"""Harmonic smoothing of integer cocycles and circular coordinates.

The smoothed representative is the minimum-norm real cocycle cohomologous
to the input; it is the unique one orthogonal to the coboundaries, found by
solving the graph-Laplacian normal equations with conjugate gradients on
the edge list. Integrating it along a spanning tree then produces the
circle-valued vertex coordinates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .complexes import (Cochain, RR, _require_integer_cocycle, forest_potential,
                        spanning_forest, write_json)
from .errors import InconsistentCocycle, SolverDiverged, VertexSetMismatch

RESIDUAL_RTOL = 1e-9
EDGE_TOL = 1e-6


@dataclass(frozen=True)
class SmoothedCocycle:
    """Real cocycle alpha_tilde = alpha + delta0(potential) with vanishing
    divergence; residual_norm records ||delta0^T alpha_tilde||."""

    alpha_tilde: Cochain
    potential: Cochain
    residual_norm: float

    def to_json_dict(self) -> dict:
        return {
            "alpha_tilde": self.alpha_tilde.to_json_dict(),
            "potential": self.potential.to_json_dict(),
            "residual_norm": self.residual_norm,
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())


@dataclass(frozen=True)
class CircularCoords:
    """Map vertex id -> coordinate in [0, 1) (fraction of a full turn)."""

    values: dict[int, float]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex_id", "theta"])
            for v in sorted(self.values):
                writer.writerow([v, repr(self.values[v])])


def _jacobi_cg(matvec, diag: np.ndarray, rhs: np.ndarray, rtol: float = 1e-12,
               max_iter: int = 20000) -> np.ndarray:
    """Conjugate gradients with Jacobi preconditioning; deterministic."""
    x = np.zeros_like(rhs)
    r = rhs - matvec(x)
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    bnorm = math.sqrt(rhs @ rhs) or 1.0
    for _ in range(max_iter):
        if math.sqrt(r @ r) <= rtol * bnorm:
            break
        Lp = matvec(p)
        a = rz / float(p @ Lp)
        x = x + a * p
        r = r - a * Lp
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def harmonic_smooth(alpha: Cochain) -> SmoothedCocycle:
    """Minimum-norm real representative of an integer 1-cocycle's class.

    Solves the normal equations L f = -delta0^T alpha with one anchored
    vertex per connected component (the Laplacian kernel), then returns
    alpha_tilde = alpha + delta0 f. delta0 and its transpose act through
    the edge rows of the face table, so no matrix is formed.
    """
    if alpha.dim != 1:
        raise ValueError("smoothing applies to 1-cochains")
    _require_integer_cocycle(alpha, "smoothing_coords.harmonic_smooth")
    cx = alpha.complex
    n_v = cx.n_vertices
    # (delta0 f)(ab) = f(b) - f(a); contiguous columns, since every CG step
    # gathers and bins by them
    head, tail = np.ascontiguousarray(cx.face_table(1).T)

    def delta0_t(y: np.ndarray) -> np.ndarray:
        return np.bincount(head, y, n_v) - np.bincount(tail, y, n_v)

    a = alpha.to_array().astype(float)
    free = np.ones(n_v)
    free[spanning_forest(cx)[0]] = 0.0      # anchors: masked, so they stay 0
    degree = np.bincount(cx.face_table(1).ravel(), minlength=n_v)
    f = _jacobi_cg(lambda x: free * delta0_t(x[head] - x[tail]),
                   np.where(free > 0, degree, 1.0), -free * delta0_t(a))

    alpha_tilde = a + (f[head] - f[tail])
    residual = float(np.linalg.norm(delta0_t(alpha_tilde)))
    scale = max(1.0, float(np.linalg.norm(a)))
    if residual > RESIDUAL_RTOL * scale:
        raise SolverDiverged(
            f"normal-equation residual {residual:.3e} above tolerance",
            operation="smoothing_coords.harmonic_smooth")
    return SmoothedCocycle(Cochain.from_array(cx, 1, RR, alpha_tilde),
                           Cochain.from_array(cx, 0, RR, f), residual)


def circular_map(smoothed: SmoothedCocycle,
                 base_vertex: int | None = None) -> CircularCoords:
    """Integrate the smoothed cocycle along a breadth-first spanning tree.

    theta(base) = 0 per component and theta(b) = theta(a) + alpha_tilde(ab)
    mod 1 along tree edges; consistency is then checked on every edge
    (off-tree edges close up because the holonomy of an integer class is an
    integer). Components other than the base vertex's start at their
    lowest-index vertex.
    """
    cx = smoothed.alpha_tilde.complex
    value = smoothed.alpha_tilde.to_array()
    root = None if base_vertex is None else int(cx.indices(0, [base_vertex])[0])
    if root == -1:
        refused = ValueError(f"base vertex {base_vertex} is not a vertex of the complex")
        refused.operation = "smoothing_coords.circular_map"
        raise refused
    theta = forest_potential(cx, value, 1.0, root)

    head, tail = cx.face_table(1).T
    off = _circular_distance(theta[head] - theta[tail] - value)
    bad = np.flatnonzero(off > EDGE_TOL)
    if bad.size:
        raise InconsistentCocycle(f"edge {cx.simplex(1, bad[0])} off by {off[bad[0]]:.3e}",
                                  operation="smoothing_coords.circular_map")
    return CircularCoords({v: t % 1.0 for v, t in zip(cx.vertex_ids, theta.tolist())})


def _circular_distance(x: np.ndarray) -> np.ndarray:
    g = np.mod(x, 1.0)
    return np.minimum(g, 1.0 - g)


def circular_correlation(computed: CircularCoords,
                         truth: Mapping[int, float]) -> float:
    """Alignment score in [0, 1], invariant under rotation and reflection.

    Score is 1 - 2 * mean circular distance after the best orientation and
    offset; the optimum over offsets is attained where some pair aligns
    exactly or antipodally, so those breakpoints are scanned.
    """
    if set(computed.values) != set(truth):
        raise VertexSetMismatch("coordinate maps cover different vertices",
                                operation="smoothing_coords.circular_correlation")
    keys = sorted(computed.values)
    c = np.array([computed.values[k] for k in keys])
    t = np.array([truth[k] for k in keys])
    best = 0.0
    for orient in (1.0, -1.0):
        diffs = np.mod(c - orient * t, 1.0)
        offsets = np.concatenate([diffs, diffs + 0.5])
        for phi in offsets:
            score = 1.0 - 2.0 * float(np.mean(_circular_distance(c - orient * t - phi)))
            if score > best:
                best = score
    return best
