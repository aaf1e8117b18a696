"""End-to-end pipeline: point cloud (or explicit complex) to circle-valued
vertex coordinates.

Order of operations: Rips complex, persistent cohomology, class selection,
restriction to the representative scale, dual cycle, integer lift of the
cocycle and the cycle, winding reduction, harmonic smoothing, tree
integration. The winding reduction step is what guarantees the final
cocycle is a generator, so coordinates wrap exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, build_rips, stored_sublevel
from .fields import OddPrime
from .lifting import DEFAULT_SNF_CAP, LiftReport, _check_snf_cap, lift_closed
from .persistence import (Diagram, PersistencePair, cycle_representative,
                          parse_class_strategy, parse_scale_policy, persistent_cohomology,
                          select_class)
from .smoothing import (CircularCoords, SmoothedCocycle, circular_map,
                        harmonic_smooth)
from .winding import WindingReport, reduce_winding


@dataclass
class PipelineResult:
    complex: FilteredComplex
    diagram: Diagram
    pair: PersistencePair
    scale: float
    working_complex: FilteredComplex
    cocycle_lift: LiftReport
    cycle_lift: LiftReport
    winding_report: WindingReport | None
    smoothed: SmoothedCocycle
    coords: CircularCoords

    def coordinate_array(self) -> np.ndarray:
        return np.array([self.coords.values[v]
                         for v in sorted(self.coords.values)])


def run_pipeline(points=None, complex: FilteredComplex | None = None, *,
                 prime: int = 47, max_dim: int = 1,
                 threshold: float | str = "auto",
                 class_strategy: str = "max-persistence",
                 scale_policy: str | float = "midpoint",
                 reduce: bool = True,
                 snf_cap: int = DEFAULT_SNF_CAP) -> PipelineResult:
    """Run the full pipeline on a point cloud or a prebuilt complex.

    ``threshold="auto"`` builds the initial complex at the enclosing radius,
    a Rips 1-skeleton when ``max_dim == 1``, then works at the selected
    class's representative scale; a complex is fitted whole. The options,
    the threshold among them, are checked before any distance is computed.
    """
    if not isinstance(max_dim, (int, np.integer)) or max_dim < 1:
        raise ValueError(f"max_dim must be an integer >= 1 to find a circle class, "
                         f"got {max_dim!r}")
    if (points is None) == (complex is None):
        raise ValueError("need points or a complex" if points is None
                         else "got both points and a complex; give one")
    if complex is not None and threshold != "auto":
        raise ValueError(f"a threshold applies to points, not to a complex, got {threshold!r}")
    parse_scale_policy(scale_policy)
    parse_class_strategy(class_strategy)
    _check_snf_cap(snf_cap)
    p = OddPrime(prime)
    if complex is None:
        complex = build_rips(points, threshold,
                             1 if max_dim == 1 and threshold == "auto" else max_dim + 1)

    # the degrees above a complex's dimension are empty and have no pairs
    diagram = persistent_cohomology(complex, p, min(max_dim, complex.dimension),
                                    scale_policy=scale_policy)
    pair = select_class(diagram, class_strategy, dim=1)
    scale = pair.scale
    sub = stored_sublevel(complex, scale)
    cycle = cycle_representative(sub, p, pair)
    pair.representative_cycle = cycle

    cocycle_p = pair.representative_cocycle.push_to(sub)
    cocycle_lift = lift_closed(cocycle_p, snf_cap=snf_cap)
    cycle_lift = lift_closed(cycle, snf_cap=snf_cap)

    alpha = cocycle_lift.working_lift
    winding_report = None
    if reduce:
        winding_report = reduce_winding(alpha, cycle_lift.working_lift,
                                        snf_cap=snf_cap)
        alpha = winding_report.reduced_cocycle

    smoothed = harmonic_smooth(alpha)
    coords = circular_map(smoothed)
    return PipelineResult(
        complex=complex, diagram=diagram, pair=pair, scale=scale,
        working_complex=sub, cocycle_lift=cocycle_lift, cycle_lift=cycle_lift,
        winding_report=winding_report, smoothed=smoothed, coords=coords)
