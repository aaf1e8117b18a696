"""Circular coordinates from point clouds with a validated lifting step.

Persistent-cohomology representatives over F_p are lifted to honest integer
cocycles via a scaling criterion, reduced to winding number 1 through the
Kronecker pairing, and smoothed into circle-valued coordinates.
"""

__version__ = "0.1.0"

from .complexes import (Chain, Cochain, FilteredComplex, GF, RR, ZZ,
                        apply_boundary, apply_coboundary, build_from_simplices,
                        build_rips, kronecker_pairing)
from .estimator import CircularCoordinates, check_points_array
from .fields import FpElement, OddPrime, abs_p, inverse, lift_coeff, range_bound, reduce_coeff
from .lifting import (IndexSystem, LiftReport, cocycle_index_system, has_p_torsion,
                      lift_closed, naive_lift, pigeonhole_bound, scaling_search,
                      snf_repair)
from .persistence import (Diagram, PersistencePair, cycle_representative,
                          persistent_cohomology, select_class)
from .pipeline import PipelineResult, run_pipeline
from .smoothing import (CircularCoords, SmoothedCocycle, circular_correlation,
                        circular_map, harmonic_smooth)
from .winding import (WindingReport, candidate_primes, class_vanishes_mod,
                      divide_step, reduce_winding)

__all__ = [
    "CircularCoordinates", "CircularCoords", "Chain", "Cochain", "Diagram",
    "FilteredComplex", "FpElement", "GF", "IndexSystem", "LiftReport",
    "OddPrime", "PersistencePair", "PipelineResult", "RR", "SmoothedCocycle",
    "WindingReport", "ZZ", "abs_p", "apply_boundary", "apply_coboundary",
    "build_from_simplices", "build_rips", "candidate_primes",
    "check_points_array", "circular_correlation", "circular_map",
    "class_vanishes_mod", "cocycle_index_system", "cycle_representative",
    "divide_step", "harmonic_smooth", "has_p_torsion", "inverse",
    "kronecker_pairing", "lift_closed", "lift_coeff", "naive_lift",
    "persistent_cohomology", "pigeonhole_bound", "range_bound",
    "reduce_coeff", "reduce_winding", "run_pipeline", "scaling_search",
    "select_class", "snf_repair",
]
