"""Properties of whole fits that need no oracle: relabelling the points
rotates or reflects the coordinates, scaling the cloud by a power of two,
even one whose squares leave the float range, scales the diagram and
changes nothing else, every prime that lifts gives the same coordinates,
and a multiple of the fitted class, as external persistence software may
emit it, reduces back to the fitted coordinates.
Noisy circles run at threshold="auto" and trefoils at a fixed threshold."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from circlift import (GF, ZZ, Chain, Cochain, apply_coboundary, circular_map,
                      harmonic_smooth, kronecker_pairing, lift_closed, reduce_winding,
                      run_pipeline)
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
    assert_rotated_or_reflected(relabelled, theta)


def assert_rotated_or_reflected(theta, want) -> None:
    """theta = sign * want + shift on the circle R/Z, to 1e-9."""
    misfit = []
    for sign in (1, -1):
        turn = (theta - sign * want) % 1.0
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
@given(clouds(), st.sampled_from([-1000, -600, 600, 1000]))
def test_scaling_beyond_the_range_of_the_squares(cloud, k):
    # the squared distances of the scaled cloud would overflow to inf or
    # underflow to 0; a scaled coordinate that would be subnormal is inexact
    s = 2.0 ** k
    assume(np.array_equal(cloud[0] * s / s, cloud[0]))
    test_scaling_by_a_power_of_two.hypothesis.inner_test(cloud, k)


@PROPERTY
@given(clouds())
def test_every_prime_gives_the_same_coordinates(cloud):
    points, threshold = cloud
    want = fit(points, threshold).coordinate_array().tobytes()
    for prime in (3, 5, 1009, 2_147_483_659):
        assert fit(points, threshold, prime).coordinate_array().tobytes() == want


@PROPERTY
@given(clouds(), st.sampled_from([2, 3, 6]), st.integers(0, 2**32 - 1))
def test_a_multiple_of_the_class_reduces_to_the_fitted_coordinates(cloud, k, seed):
    # u * (k * alpha + delta h) mod p and u' * z mod p from the fit's reduced
    # cocycle alpha and its cycle z; the lift of the cocycle need not pair
    # to k with z, but it is a multiple of the class
    points, threshold = cloud
    base, p = fit(points, threshold), 47
    cx, alpha, z = base.working_complex, base.winding_report.reduced_cocycle, \
        base.cycle_lift.working_lift
    rng = np.random.default_rng(seed)
    u, u_z = (int(x) for x in rng.integers(1, p, size=2))
    h = Cochain.from_array(cx, 0, ZZ, rng.integers(-2, 3, cx.n_vertices))
    cocycle = u * (k * alpha.to_array(np.int64) + apply_coboundary(h).to_array(np.int64)) % p
    lift_a = lift_closed(Cochain.from_array(cx, 1, GF(p), cocycle), "cocycle")
    lift_z = lift_closed(Chain.from_array(cx, 1, GF(p), u_z * z.to_array(np.int64) % p), "cycle")
    report = reduce_winding(lift_a.working_lift, lift_z.working_lift)
    assert report.division_trace and abs(report.winding_number) != 1
    assert abs(kronecker_pairing(report.reduced_cocycle, z)) == 1
    coords = circular_map(harmonic_smooth(report.reduced_cocycle)).values
    assert_rotated_or_reflected(np.array([coords[v] for v in sorted(coords)]),
                                base.coordinate_array())
