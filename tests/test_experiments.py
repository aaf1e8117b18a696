import csv
import math

import numpy as np
import pytest

from circlift.experiments import (SparsityRow, sample_circle, sample_trefoil,
                                  sparsity_sweep, trend_slope,
                                  write_sparsity_csv)


class TestSparsitySweep:
    def test_deterministic_under_seed(self):
        a = sparsity_sweep(6, 13, 60, 500, 3, seed=11)
        b = sparsity_sweep(6, 13, 60, 500, 3, seed=11)
        assert [(r.prime, r.non_liftable) for r in a] == \
            [(r.prime, r.non_liftable) for r in b]

    def test_single_coordinate_always_liftable(self):
        for row in sparsity_sweep(1, 5, 40, 300, 3, seed=0):
            assert row.non_liftable == 0

    def test_exact_zero_beyond_pigeonhole_bound(self):
        # 739 - 1 = 738 > 3^6, so every sampled line admits a scaling
        row = sparsity_sweep(6, 739, 739, 2000, 3, seed=4)[0]
        assert row.non_liftable == 0

    def test_large_prime_sparser_than_small(self):
        rows = {r.prime: r.proportion
                for r in sparsity_sweep(6, 13, 251, 4000, 3, seed=9)}
        assert rows[251] < rows[13]

    def test_trend_is_non_increasing(self):
        rows = sparsity_sweep(6, 13, 150, 2000, 3, seed=1)
        assert trend_slope(rows) <= 0

    def test_trend_holds_across_twenty_seed_panel(self):
        for seed in range(20):
            rows = sparsity_sweep(6, 13, 293, 10_000, 3, seed=seed)
            assert trend_slope(rows) <= 0, f"seed {seed}"

    def test_proportion_field(self):
        row = SparsityRow(7, 200, 30)
        assert row.proportion == pytest.approx(0.15)

    def test_csv_format(self, tmp_path):
        rows = sparsity_sweep(6, 13, 29, 200, 3, seed=2)
        out = tmp_path / "sweep.csv"
        write_sparsity_csv(rows, out, seed=2)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# seed=2 generator=numpy-pcg64")
        with open(out) as fh:
            body = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert body[0] == ["p", "samples", "non_liftable", "proportion"]
        assert [r[0] for r in body[1:]] == ["13", "17", "19", "23", "29"]


class TestSampleCircle:
    def test_even_angles_in_plane(self):
        pts, angles = sample_circle(60, 0.0, 2, seed=0)
        assert np.allclose(angles, np.arange(60) / 60)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        assert np.allclose(pts[0], [1.0, 0.0])

    def test_high_ambient_embedding_is_isometric(self):
        flat, _ = sample_circle(40, 0.0, 2, seed=3)
        high, _ = sample_circle(40, 0.0, 300, seed=3)
        assert high.shape == (40, 300)
        d2 = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
        d300 = np.linalg.norm(high[:, None] - high[None, :], axis=-1)
        assert np.allclose(d2, d300, atol=1e-9)

    def test_deterministic(self):
        a, _ = sample_circle(30, 0.05, 10, seed=8)
        b, _ = sample_circle(30, 0.05, 10, seed=8)
        assert np.array_equal(a, b)


class TestSampleTrefoil:
    def test_exact_curve_points(self):
        pts = sample_trefoil(3, 0.0, seed=0)
        for i, t in enumerate([0.0, 2 * math.pi / 3, 4 * math.pi / 3]):
            expect = (math.sin(t) + 2 * math.sin(2 * t),
                      math.cos(t) - 2 * math.cos(2 * t),
                      -math.sin(3 * t))
            assert np.allclose(pts[i], expect, atol=1e-12)

    def test_deterministic(self):
        a = sample_trefoil(50, 0.1, seed=2)
        b = sample_trefoil(50, 0.1, seed=2)
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_trefoil(2, 0.0, seed=0)
