"""Properties of whole fits that need no oracle: relabelling the points
rotates or reflects the coordinates, scaling the cloud by a power of two
scales the diagram and changes nothing else, and every prime that lifts
gives the same coordinates. Noisy circles run at threshold="auto" and
trefoils at a fixed threshold."""

import numpy as np
from hypothesis import given, settings, strategies as st

from circlift import run_pipeline
from circlift.experiments import sample_circle, sample_trefoil

# derandomized, so a run is repeatable; together well under 10 s
PROPERTY = settings(max_examples=20, deadline=None, database=None, derandomize=True)


@st.composite
def clouds(draw):
    """(points, threshold): a noisy 40-point circle in R^3 at "auto", or a
    90-point trefoil at 1.2."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return sample_circle(40, 0.05, 3, seed=seed)[0], "auto"
    return sample_trefoil(90, 0.0, seed=seed), 1.2


def fit(points, threshold, prime=47):
    return run_pipeline(points=points, prime=prime, threshold=threshold)


@PROPERTY
@given(clouds(), st.integers(0, 2**32 - 1))
def test_relabelling_rotates_or_reflects(cloud, seed):
    points, threshold = cloud
    theta = fit(points, threshold).coordinate_array()
    perm = np.random.default_rng(seed).permutation(len(points))
    relabelled = np.empty_like(theta)
    relabelled[perm] = fit(points[perm], threshold).coordinate_array()
    # theta' = sign * theta + shift on the circle R/Z
    misfit = []
    for sign in (1, -1):
        turn = (relabelled - sign * theta) % 1.0
        misfit.append(np.abs((turn - turn[0] + 0.5) % 1.0 - 0.5).max())
    assert min(misfit) < 1e-9


@PROPERTY
@given(clouds(), st.sampled_from([-7, -1, 1, 3, 10]))
def test_scaling_by_a_power_of_two(cloud, k):
    points, threshold = cloud
    s = 2.0 ** k
    base = fit(points, threshold)
    scaled = fit(points * s, threshold if threshold == "auto" else threshold * s)
    pairs, scaled_pairs = base.diagram.all_pairs(), scaled.diagram.all_pairs()
    assert len(pairs) == len(scaled_pairs)
    for a, b in zip(pairs, scaled_pairs):
        assert (a.dimension, a.birth_simplex) == (b.dimension, b.birth_simplex)
        assert (a.birth * s, a.death * s, a.scale * s) == (b.birth, b.death, b.scale)
    for lift, other in ((base.cocycle_lift, scaled.cocycle_lift),
                        (base.cycle_lift, scaled.cycle_lift)):
        assert (lift.certificate, lift.r) == (other.certificate, other.r)
    assert base.winding_report.winding_number == scaled.winding_report.winding_number
    assert base.coordinate_array().tobytes() == scaled.coordinate_array().tobytes()


@PROPERTY
@given(clouds())
def test_every_prime_gives_the_same_coordinates(cloud):
    points, threshold = cloud
    want = fit(points, threshold).coordinate_array().tobytes()
    for prime in (3, 5, 1009, 2_147_483_659):
        assert fit(points, threshold, prime).coordinate_array().tobytes() == want
