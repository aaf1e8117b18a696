"""Per-layer spans recorded from outside the library.

The traced run replaces module attributes such as
``circlift.pipeline.build_rips`` with wrappers that time each call, so the
spans sit around the exact calls that ``run_pipeline``, ``lift_closed`` and
``reduce_winding`` make, without a copy of the pipeline here. A target that
does not exist at the measured commit is reported as absent and its metrics
read 0; it is never a failure.
"""

from __future__ import annotations

import importlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import circlift


@dataclass(frozen=True)
class Target:
    """One layer boundary: a span name, the dotted attributes whose calls it
    covers, and an optional observer that turns a call into counts."""

    span: str
    locations: tuple[str, ...]
    observe: Callable | None = None
    stage: bool = False     # top-level pipeline stage: record RSS after it


@dataclass
class OpRecord:
    """Spans and counts of one operation."""

    total: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    top_level_s: float = 0.0
    observer_s: float = 0.0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def put(self, name: str, value: float) -> None:
        self.counts[name] = value


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- observers: counts read from arguments and return values -----------------

def _complex_counts(op: OpRecord, args, kwargs, cx) -> None:
    op.put("complexes.vertices", cx.n_simplices(0))
    op.put("complexes.edges", cx.n_simplices(1))
    op.put("complexes.triangles", cx.n_simplices(2))


def _restrict_counts(op: OpRecord, args, kwargs, sub) -> None:
    op.put("complexes.restrict_triangles_kept", sub.n_simplices(2))


def _persistence_counts(op: OpRecord, args, kwargs, diagram) -> None:
    cx = args[0]
    op.put("persistence.simplices_reduced",
           sum(cx.n_simplices(m) for m in range(cx.dimension + 1)))
    pairs = diagram.pairs(1)
    op.put("persistence.h1_pairs", len(pairs))
    finite = [p.death for p in pairs if np.isfinite(p.death)]
    tri = np.asarray(cx.filtration_values(2), dtype=float)
    useful = int(np.count_nonzero(tri <= max(finite))) if finite else 0
    op.put("complexes.useful_triangle_ratio", useful / tri.size if tri.size else 0.0)


_ROUTES = {"InRange": "lifting.route_in_range",
           "PerFaceRange": "lifting.route_per_face_range",
           "VerifiedOnly": "lifting.route_verified_only",
           "SnfRepaired": "lifting.route_snf_repaired"}


def _lift_counts(op: OpRecord, args, kwargs, report) -> None:
    route = _ROUTES.get(report.certificate)
    if route:
        op.add(route, 1)
    if isinstance(report.input, circlift.Cochain):
        op.put("lifting.r_cocycle", report.r)


def _scaling_counts(op: OpRecord, args, kwargs, r) -> None:
    op.add("lifting.scaling_hits", r is not None)


def _winding_counts(op: OpRecord, args, kwargs, report) -> None:
    op.put("winding.divisions", sum(t for _, t, _ in report.division_trace))
    op.put("winding.pairing_primes", len(report.candidate_primes))
    op.put("winding.winding_number", abs(report.winding_number))


def _vanish_counts(op: OpRecord, args, kwargs, vanishes) -> None:
    op.add("winding.vanish_hits", bool(vanishes))


def _solve_mod_counts(op: OpRecord, args, kwargs, x) -> None:
    rows, cols = np.shape(args[0])
    op.add("fplinalg.dense_bytes_computed", rows * cols * 8)


def _smooth_counts(op: OpRecord, args, kwargs, smoothed) -> None:
    cx = args[0].complex
    n_v, n_e = cx.n_simplices(0), cx.n_simplices(1)
    # the dense coboundary B (E x V) and Laplacian L (V x V), float64
    op.add("smoothing.dense_bytes_computed", 8 * (n_e * n_v + n_v * n_v))
    op.put("smoothing.residual", smoothed.residual_norm)


TARGETS = (
    Target("pipeline.enclosing_radius", ("circlift.pipeline.enclosing_radius",),
           stage=True),
    Target("complexes.build_rips", ("circlift.pipeline.build_rips",),
           _complex_counts, stage=True),
    Target("complexes.restrict", ("circlift.complexes.FilteredComplex.restrict",),
           _restrict_counts, stage=True),
    Target("complexes.apply_coboundary", ("circlift.lifting.apply_coboundary",
                                          "circlift.winding.apply_coboundary",
                                          "circlift.smoothing.apply_coboundary")),
    Target("persistence.persistent_cohomology",
           ("circlift.pipeline.persistent_cohomology",), _persistence_counts,
           stage=True),
    Target("persistence.cycle_representative",
           ("circlift.pipeline.cycle_representative",), stage=True),
    Target("lifting.lift_closed", ("circlift.pipeline.lift_closed", "circlift.lift_closed"),
           _lift_counts, stage=True),
    Target("lifting.cocycle_index_system", ("circlift.lifting.cocycle_index_system",)),
    Target("lifting.scaling_search", ("circlift.lifting.scaling_search",),
           _scaling_counts),
    Target("lifting.snf_repair", ("circlift.lifting.snf_repair",)),
    Target("winding.reduce_winding",
           ("circlift.pipeline.reduce_winding", "circlift.reduce_winding"),
           _winding_counts, stage=True),
    Target("winding.class_vanishes_mod", ("circlift.winding.class_vanishes_mod",),
           _vanish_counts),
    Target("winding.divide_step", ("circlift.winding.divide_step",)),
    Target("fplinalg.solve_mod", ("circlift.winding.solve_mod",), _solve_mod_counts),
    Target("snf.solve_integer", ("circlift.snf.solve_integer",)),
    Target("smoothing.harmonic_smooth",
           ("circlift.pipeline.harmonic_smooth", "circlift.harmonic_smooth"),
           _smooth_counts, stage=True),
    Target("smoothing.jacobi_cg", ("circlift.smoothing._jacobi_cg",)),
    Target("smoothing.circular_map",
           ("circlift.pipeline.circular_map", "circlift.circular_map"), stage=True),
)


def _resolve(dotted: str):
    """(owner, attribute name) for a dotted path, or None when any part of
    it does not exist. The owner is a module or a class."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


_INHERITED = object()


class Tracer:
    """Wraps the targets for the length of one traced operation and collects
    its OpRecord. Spans nest through a stack, so a span's self time is its
    duration minus that of the spans it directly encloses."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.observer_errors: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.op = OpRecord()

    def begin(self) -> None:
        """Start a traced operation: install a wrapper on every target."""
        self.op = OpRecord()
        self._stack = []
        self.absent = []
        for target in self.targets:
            for dotted in target.locations:
                found = _resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                    continue
                owner, name = found
                # A class attribute it inherits is shadowed, then deleted again.
                original = vars(owner).get(name, _INHERITED)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(target, getattr(owner, name)))

    def end(self) -> OpRecord:
        """Finish the operation: restore every wrapped attribute."""
        for owner, name, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved = []
        return self.op

    def _wrap(self, target: Target, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(target, frame, time.perf_counter())
            if target.observe is not None:
                tracer._observe(target, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, target: Target, frame: list[float], end: float) -> None:
        op = self.op
        duration = end - frame[0]
        name = target.span
        op.total[name] = op.total.get(name, 0.0) + duration
        op.self_time[name] = op.self_time.get(name, 0.0) + duration - frame[1]
        op.calls[name] = op.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            op.top_level_s += duration
        if target.stage:
            op.put(f"process.rss_mb_after_{name.split('.')[-1]}", _rss_mb())

    def _observe(self, target: Target, args, kwargs, result) -> None:
        # Counts are diagnostics: a return value whose shape changed at a
        # later commit is reported, not turned into a failed operation.
        t = time.perf_counter()
        try:
            target.observe(self.op, args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - reported on the info line
            self.observer_errors.add(f"{target.span}: {exc!r}")
        self.op.observer_s += time.perf_counter() - t


STAGES = tuple(t.span.split(".")[-1] for t in TARGETS if t.stage)


def layer_metrics(op: OpRecord, wall_s: float) -> dict[str, float]:
    """Per-layer metric values of one traced operation."""
    t, c = op.total, op.counts
    calls = op.calls
    scaling_calls = calls.get("lifting.scaling_search", 0)
    vanish_calls = calls.get("winding.class_vanishes_mod", 0)
    out = {
        "pipeline.enclosing_radius_s": t.get("pipeline.enclosing_radius", 0.0),
        "complexes.build_rips_s": t.get("complexes.build_rips", 0.0),
        "complexes.restrict_s": t.get("complexes.restrict", 0.0),
        "complexes.apply_coboundary_s": t.get("complexes.apply_coboundary", 0.0),
        "persistence.persistent_cohomology_s": t.get("persistence.persistent_cohomology", 0.0),
        "persistence.cycle_representative_s": t.get("persistence.cycle_representative", 0.0),
        "lifting.lift_closed_s": t.get("lifting.lift_closed", 0.0),
        "lifting.lift_closed_self_s": op.self_time.get("lifting.lift_closed", 0.0),
        "lifting.cocycle_index_system_s": t.get("lifting.cocycle_index_system", 0.0),
        "lifting.scaling_search_s": t.get("lifting.scaling_search", 0.0),
        "lifting.scaling_hit_ratio": (c.get("lifting.scaling_hits", 0) / scaling_calls
                                      if scaling_calls else 0.0),
        "lifting.snf_repair_s": t.get("lifting.snf_repair", 0.0),
        "winding.reduce_winding_s": t.get("winding.reduce_winding", 0.0),
        "winding.reduce_winding_self_s": op.self_time.get("winding.reduce_winding", 0.0),
        "winding.class_vanishes_mod_s": t.get("winding.class_vanishes_mod", 0.0),
        "winding.class_vanishes_mod_calls": vanish_calls,
        "winding.vanish_hit_ratio": (c.get("winding.vanish_hits", 0) / vanish_calls
                                     if vanish_calls else 0.0),
        "winding.divide_step_s": t.get("winding.divide_step", 0.0),
        "fplinalg.solve_mod_s": t.get("fplinalg.solve_mod", 0.0),
        "fplinalg.solve_mod_calls": calls.get("fplinalg.solve_mod", 0),
        "snf.solve_integer_s": t.get("snf.solve_integer", 0.0),
        "snf.solve_integer_calls": calls.get("snf.solve_integer", 0),
        "smoothing.harmonic_smooth_s": t.get("smoothing.harmonic_smooth", 0.0),
        "smoothing.harmonic_smooth_self_s": op.self_time.get("smoothing.harmonic_smooth", 0.0),
        "smoothing.circular_map_s": t.get("smoothing.circular_map", 0.0),
        "smoothing.cg_path": calls.get("smoothing.jacobi_cg", 0),
        "trace.uncovered_s": wall_s - op.top_level_s - op.observer_s,
    }
    for name in ("complexes.vertices", "complexes.edges", "complexes.triangles",
                 "complexes.restrict_triangles_kept", "complexes.useful_triangle_ratio",
                 "persistence.simplices_reduced", "persistence.h1_pairs",
                 "lifting.r_cocycle", *_ROUTES.values(),
                 "winding.divisions", "winding.pairing_primes", "winding.winding_number",
                 "fplinalg.dense_bytes_computed", "smoothing.dense_bytes_computed",
                 "smoothing.residual"):
        out[name] = c.get(name, 0)
    for stage in STAGES:
        out[f"process.rss_mb_after_{stage}"] = c.get(f"process.rss_mb_after_{stage}", 0.0)
    return out
