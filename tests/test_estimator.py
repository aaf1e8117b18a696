import numpy as np
import pytest

from circlift import CircularCoordinates, check_points_array, circular_correlation, run_pipeline
from circlift.experiments import sample_circle
from circlift.smoothing import CircularCoords


class TestCheckPoints:
    def test_accepts_lists(self):
        arr = check_points_array([[0, 0], [1, 0], [0, 1]])
        assert arr.shape == (3, 2) and arr.dtype == float

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_points_array([[0, np.nan], [1, 0], [0, 1]])

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            check_points_array([[0, 0]])

    def test_one_axis_is_one_coordinate_per_point(self):
        arr = check_points_array([0.0, 1.0, 3.0])
        assert arr.shape == (3, 1) and arr[:, 0].tolist() == [0.0, 1.0, 3.0]


class TestEstimator:
    def test_fit_transform_recovers_circle(self):
        pts, angles = sample_circle(40, 0.0, 5, seed=2)
        est = CircularCoordinates(prime=47, threshold=0.9)
        theta = est.fit_transform(pts)
        assert theta.shape == (40,)
        truth = {i: float(a) for i, a in enumerate(angles)}
        got = CircularCoords({i: float(v) for i, v in enumerate(theta)})
        assert circular_correlation(got, truth) > 0.99
        assert est.winding_report_ is not None
        assert est.lift_report_.is_closed

    def test_numpy_integer_prime(self):
        # the prime is checked and stored as the Python int it stands for
        pts, _ = sample_circle(40, 0.05, 2, seed=2)
        for fit in (lambda p: run_pipeline(pts, prime=p).coordinate_array(),
                    lambda p: CircularCoordinates(prime=p).fit_transform(pts)):
            assert fit(np.int64(47)).tobytes() == fit(47).tobytes()
            for bad in (47.0, "47"):
                with pytest.raises(ValueError, match="^prime must be an integer"):
                    fit(bad)

    def test_fit_returns_self_and_sets_state(self):
        pts, _ = sample_circle(30, 0.0, 2, seed=1)
        est = CircularCoordinates(prime=7, threshold=0.8)
        assert est.fit(pts) is est
        assert hasattr(est, "diagram_") and hasattr(est, "coordinates_")

    def test_get_set_params_round_trip(self):
        est = CircularCoordinates(prime=13, threshold=1.5, reduce_winding=False)
        params = est.get_params()
        assert params["prime"] == 13
        assert params["threshold"] == 1.5
        clone = CircularCoordinates(**params)
        assert clone.get_params() == params
        clone.set_params(prime=47)
        assert clone.prime == 47

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            CircularCoordinates().set_params(bogus=1)

    def test_sklearn_clone_protocol(self):
        # duck-typed clone: sklearn.base.clone only needs get_params/set_params
        try:
            from sklearn.base import clone
        except ImportError:
            pytest.skip("scikit-learn not installed")
        est = CircularCoordinates(prime=13)
        cloned = clone(est)
        assert cloned.get_params() == est.get_params()

    def test_repr_shows_params(self):
        assert "prime=13" in repr(CircularCoordinates(prime=13))
