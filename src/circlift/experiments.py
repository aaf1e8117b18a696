"""Data generators and the non-liftable-line sparsity experiment.

Each experiment is seeded and embeds its generator identity in the output
metadata; per-prime streams are derived from (seed, prime) so rows can run
in any order, or in parallel, without changing results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fields import primes_in_range

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class SparsityRow:
    """One prime's share of sampled lines that admit no scaling lift."""

    prime: int
    samples: int
    non_liftable: int

    @property
    def proportion(self) -> float:
        return self.non_liftable / self.samples


# scalar-residue cells of the good-residue table built at once
_TABLE_CELLS = 1 << 21


def _count_non_liftable(p: int, n: int, k: int, samples: int, seed: int) -> int:
    """Sampled lines {r v} in F_p^n with no scalar placing all coordinates
    within floor((p-1)/k) in absolute value.

    Only r <= (p-1)/2 is scanned (r and p-r give the same magnitudes). A
    table over residues x and scalars r marks |r x mod p| <= bound, bit-packed
    along r; the rows a sample's coordinates select, ANDed, are nonzero
    exactly when some r lifts it. Scalars go in blocks that double up to a
    bounded table, and resolved samples drop out.
    """
    rng = np.random.default_rng([seed, p])
    bound = (p - 1) // k
    vecs = rng.integers(0, p, size=(samples, n), dtype=np.int64)
    zero_rows = ~vecs.any(axis=1)
    while zero_rows.any():
        vecs[zero_rows] = rng.integers(0, p, size=(int(zero_rows.sum()), n),
                                       dtype=np.int64)
        zero_rows = ~vecs.any(axis=1)

    residues = np.arange(p)[:, None]
    lo, step, half = 1, 8, (p - 1) // 2
    while lo <= half and len(vecs):
        hi = min(lo + step, half + 1)
        scaled = residues * np.arange(lo, hi) % p
        good = np.packbits(np.minimum(scaled, p - scaled) <= bound, axis=1)
        lifts = good[vecs[:, 0]]
        for column in vecs[:, 1:].T:
            lifts &= good[column]
        vecs = vecs[~lifts.any(axis=1)]
        lo, step = hi, max(step, min(2 * step, _TABLE_CELLS // p))
    return len(vecs)


def sparsity_sweep(n: int, prime_min: int, prime_max: int,
                   samples_per_prime: int, k: int, seed: int) -> list[SparsityRow]:
    """Proportion of non-liftable lines in F_p^n for each prime in range."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    if prime_min < 3:
        raise ValueError("sweep primes start at 3 (odd primes only)")
    return [SparsityRow(p, samples_per_prime,
                        _count_non_liftable(p, n, k, samples_per_prime, seed))
            for p in primes_in_range(prime_min, prime_max)]


def trend_slope(rows: list[SparsityRow]) -> float:
    """Least-squares slope of proportion against prime."""
    x = np.array([r.prime for r in rows], dtype=float)
    y = np.array([r.proportion for r in rows])
    x = x - x.mean()
    denom = float(x @ x)
    return float(x @ (y - y.mean())) / denom if denom else 0.0


def write_sparsity_csv(rows: list[SparsityRow], path, *, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed} generator={GENERATOR_NAME} "
                 f"numpy={np.__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(["p", "samples", "non_liftable", "proportion"])
        for r in rows:
            writer.writerow([r.prime, r.samples, r.non_liftable, repr(r.proportion)])


def sample_circle(count: int, noise_sd: float, ambient_dim: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly spaced circle points pushed into ambient_dim dimensions by a
    seeded random orthogonal map, plus isotropic Gaussian noise.

    Returns (points, ground-truth angles in [0, 1)).
    """
    if ambient_dim < 2:
        raise ValueError("ambient_dim must be >= 2")
    rng = np.random.default_rng([seed, ambient_dim, count])
    angles = np.arange(count) / count
    base = np.stack([np.cos(2 * np.pi * angles), np.sin(2 * np.pi * angles)], axis=1)
    if ambient_dim == 2:
        frame = np.eye(2)
    else:
        gauss = rng.standard_normal((ambient_dim, ambient_dim))
        q, r = np.linalg.qr(gauss)
        frame = (q * np.sign(np.diag(r)))[:, :2].T      # rows orthonormal
    points = base @ frame
    if noise_sd > 0:
        points = points + noise_sd * rng.standard_normal(points.shape)
    return points, angles


def sample_trefoil(count: int, noise_sd: float, seed: int) -> np.ndarray:
    """Points along the standard trefoil curve
    (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t), t uniform on [0, 2pi)."""
    if count < 3:
        raise ValueError("need at least 3 points")
    rng = np.random.default_rng([seed, count])
    t = 2 * np.pi * np.arange(count) / count
    pts = np.stack([np.sin(t) + 2 * np.sin(2 * t),
                    np.cos(t) - 2 * np.cos(2 * t),
                    -np.sin(3 * t)], axis=1)
    if noise_sd > 0:
        pts = pts + noise_sd * rng.standard_normal(pts.shape)
    return pts
