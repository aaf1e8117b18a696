"""Sklearn-style estimator wrapping the coordinate pipeline.

Implements the fit/fit_transform/get_params/set_params protocol without a
scikit-learn dependency, so the class drops into sklearn pipelines and
``sklearn.base.clone`` while keeping this package light. Like other
embedding-style learners there is no out-of-sample transform: coordinates
exist only for the fitted cloud.
"""

from __future__ import annotations

import inspect

import numpy as np

from .lifting import DEFAULT_SNF_CAP
from .pipeline import run_pipeline


def check_points_array(X) -> np.ndarray:
    """Validate a (n_samples, n_features) finite float array."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 points")
    if not np.isfinite(arr).all():
        raise ValueError("points contain NaN or infinity")
    return arr


class CircularCoordinates:
    """Circle-valued coordinates for a point cloud.

    Fits a Vietoris-Rips filtration, extracts the chosen persistent
    1-dimensional cohomology class over F_prime, lifts it to a validated
    integer cocycle, reduces its winding number to 1, and smooths it into a
    coordinate in [0, 1) per point.

    Parameters
    ----------
    prime : odd prime for the persistence and lifting field.
    threshold : Rips scale, or "auto" for the enclosing radius followed by
        restriction to the selected class's representative scale.
    class_strategy : "max-persistence" or "index:k".
    scale_policy : "midpoint" or an explicit representative scale.
    reduce_winding : divide the lifted class down to a generator before
        smoothing; disabling this reproduces the winding-w failure mode.
    snf_cap : simplex budget for integer normal-form fallbacks.
    """

    def __init__(self, prime: int = 47, threshold="auto",
                 class_strategy: str = "max-persistence",
                 scale_policy="midpoint", reduce_winding: bool = True,
                 snf_cap: int = DEFAULT_SNF_CAP):
        self.prime = prime
        self.threshold = threshold
        self.class_strategy = class_strategy
        self.scale_policy = scale_policy
        self.reduce_winding = reduce_winding
        self.snf_cap = snf_cap

    # -- sklearn protocol ----------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "CircularCoordinates":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for CircularCoordinates")
            setattr(self, key, value)
        return self

    # -- fitting ---------------------------------------------------------------

    def fit(self, X, y=None) -> "CircularCoordinates":
        points = check_points_array(X)
        result = run_pipeline(
            points=points, prime=self.prime, threshold=self.threshold,
            class_strategy=self.class_strategy, scale_policy=self.scale_policy,
            reduce=self.reduce_winding, snf_cap=self.snf_cap)
        self.result_ = result
        self.diagram_ = result.diagram
        self.pair_ = result.pair
        self.lift_report_ = result.cocycle_lift
        self.winding_report_ = result.winding_report
        self.smoothed_ = result.smoothed
        self.coordinates_ = result.coordinate_array()
        return self

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).coordinates_

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._param_names())
        return f"CircularCoordinates({args})"
