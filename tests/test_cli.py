import csv
import json

import numpy as np
import pytest

from circlift import Chain, Cochain, GF, ZZ
from circlift.cli import main
from circlift.errors import DegenerateData
from circlift.experiments import sample_circle
from circlift.plots import pca_project
from conftest import (hexagon_fundamental_cycle, hexagon_generator,
                      moore_z3_complex)


def write_points_csv(path, points):
    with open(path, "w") as fh:
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_complex_json(path, cx):
    with open(path, "w") as fh:
        json.dump(cx.to_json_dict(), fh)


def write_chain_json(path, chain):
    with open(path, "w") as fh:
        json.dump(chain.to_json_dict(), fh)


@pytest.fixture
def circle_csv(tmp_path):
    pts, angles = sample_circle(30, 0.0, 4, seed=6)
    path = tmp_path / "circle.csv"
    write_points_csv(path, pts)
    return path, angles


class TestRun:
    def test_full_pipeline_artifacts(self, tmp_path, circle_csv):
        path, angles = circle_csv
        out = tmp_path / "out"
        code = main(["run", "--input", str(path), "--prime", "47",
                     "--threshold", "0.9", "--out", str(out)])
        assert code == 0
        for name in ("diagram.json", "lift_report.json", "winding_report.json",
                     "smoothed.json", "coords.csv", "coords.svg"):
            assert (out / name).exists(), name
        with open(out / "coords.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex_id", "theta"]
        assert len(rows) == 31
        report = json.loads((out / "winding_report.json").read_text())
        assert report["winding_number"] == "1"
        for name in ("diagram.json", "lift_report.json", "winding_report.json",
                     "smoothed.json"):
            assert (out / name).read_text().endswith("}\n"), name

    def test_outputs_are_deterministic(self, tmp_path, circle_csv):
        path, _ = circle_csv
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "--input", str(path), "--prime", "47",
                         "--threshold", "0.9", "--out", str(out)]) == 0
        for name in ("diagram.json", "lift_report.json", "winding_report.json",
                     "smoothed.json", "coords.csv", "coords.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_prime_two_rejected_before_compute(self, tmp_path, circle_csv, capsys):
        path, _ = circle_csv
        code = main(["run", "--input", str(path), "--prime", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"

    def test_row_of_another_length_is_named(self, tmp_path, circle_csv):
        path, _ = circle_csv
        lines = path.read_text().splitlines()
        lines[3] += ",0.5"
        path.write_text("# x,y,z,w\n\n" + "\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--input", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValueError", f"{path} line 6: 5 coordinates, but the first point has 4")

    def test_field_that_is_not_a_number_is_named(self, tmp_path):
        path, out = tmp_path / "bad.csv", tmp_path / "o"
        path.write_text("1,2\n3,x\n5,6\n")
        assert main(["run", "--input", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValueError", f"{path} line 2, field 2: 'x' is not a number")

    @pytest.mark.parametrize("threshold", ["AUTO", "bogus", "nan", "-1"])
    def test_threshold_is_refused_by_the_builder(self, tmp_path, circle_csv, threshold):
        path, _ = circle_csv
        out = tmp_path / "o"
        assert main(["run", "--input", str(path), "--threshold", threshold,
                     "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        shown = repr(float(threshold)) if threshold in ("nan", "-1") else repr(threshold)
        assert err["error"] == "ValueError"
        assert err["message"] == \
            f'threshold must be >= 0 or "auto", and not NaN, got {shown}'

    def test_csv_of_comments_only_has_no_points(self, tmp_path):
        path, out = tmp_path / "empty.csv", tmp_path / "o"
        path.write_text("# x,y\n\n# nothing here\n")
        assert main(["run", "--input", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err == {"error": "CircliftError", "message": f"no points in {path}",
                       "operation": "cli_io.cmd_run"}

    def test_threshold_with_a_complex_is_refused(self, tmp_path, hexagon):
        cpath, out = tmp_path / "cx.json", tmp_path / "o"
        write_complex_json(cpath, hexagon)
        assert main(["run", "--input", str(cpath), "--threshold", "0.1",
                     "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["message"]) == \
            ("ValueError", "a threshold applies to points, not to a complex, got 0.1")
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_contractible_input_reports_missing_class(self, tmp_path, capsys):
        from circlift import build_from_simplices
        cx = build_from_simplices([((0, 1, 2), 1.0)])
        cpath = tmp_path / "triangle.json"
        write_complex_json(cpath, cx)
        out = tmp_path / "o"
        code = main(["run", "--input", str(cpath), "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "EmptyDiagram"
        assert err["operation"] == "persistence.select_class"
        assert json.loads((out / "error.json").read_text()) == err

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestLift:
    def test_triangle_fixture(self, tmp_path, filled_triangle, triangle_cocycle_f7):
        cpath = tmp_path / "cx.json"
        ipath = tmp_path / "cochain.json"
        write_complex_json(cpath, filled_triangle)
        write_chain_json(ipath, triangle_cocycle_f7)
        code = main(["lift", "--complex", str(cpath), "--input", str(ipath),
                     "--prime", "7", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "lift_report.json").read_text())
        assert report["r"] == 2
        assert report["certificate"] == "InRange"
        preimage = {tuple(v): c for v, c in report["exact_preimage"]["entries"]}
        assert preimage == {(0, 1): "8", (0, 2): "4", (1, 2): "-4"}

    def test_degree_zero_cycle(self, tmp_path, filled_triangle):
        # a 0-chain is a cycle with no face relations: the centred lift at r=1
        cpath = tmp_path / "cx.json"
        ipath = tmp_path / "chain.json"
        write_complex_json(cpath, filled_triangle)
        write_chain_json(ipath, Chain(filled_triangle, 0, GF(7), {0: 3, 1: 5, 2: 6}))
        code = main(["lift", "--complex", str(cpath), "--input", str(ipath),
                     "--prime", "7", "--kind", "cycle", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "lift_report.json").read_text())
        assert (report["r"], report["certificate"], report["kind"]) == (1, "PerFaceRange", "cycle")
        lift = {tuple(v): c for v, c in report["working_lift"]["entries"]}
        assert lift == {(0,): "3", (1,): "-2", (2,): "-1"}

    def test_torsion_obstruction_exit_code(self, tmp_path):
        from fplinalg import in_image_mod, nullspace_mod, to_numpy_mod
        moore = moore_z3_complex()
        d1 = to_numpy_mod(moore.coboundary_matrix(1), 3)
        d0 = to_numpy_mod(moore.coboundary_matrix(0), 3)
        vec = next(v for v in nullspace_mod(d1, 3) if not in_image_mod(d0, v, 3))
        cochain = Cochain(moore, 1, GF(3), {i: int(x) for i, x in enumerate(vec)})
        cpath = tmp_path / "cx.json"
        ipath = tmp_path / "c.json"
        write_complex_json(cpath, moore)
        write_chain_json(ipath, cochain)
        code = main(["lift", "--complex", str(cpath), "--input", str(ipath),
                     "--prime", "3", "--out", str(tmp_path)])
        assert code == 4
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "TorsionObstruction"


class TestReduceWinding:
    def test_hexagon_doubled_generator(self, tmp_path, hexagon):
        cpath = tmp_path / "cx.json"
        apath = tmp_path / "alpha.json"
        bpath = tmp_path / "beta.json"
        write_complex_json(cpath, hexagon)
        write_chain_json(apath, hexagon_generator(hexagon).scale(2))
        write_chain_json(bpath, hexagon_fundamental_cycle(hexagon))
        code = main(["reduce-winding", "--complex", str(cpath),
                     "--cocycle", str(apath), "--cycle", str(bpath),
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "winding_report.json").read_text())
        assert report["winding_number"] == "2"
        assert report["pairing"] == "2"
        assert report["division_trace"] == [
            {"prime": 2, "times_divided": 1, "route": "ModPSolve"}]

    def test_zero_pairing_exit_code(self, tmp_path, hexagon, capsys):
        cpath = tmp_path / "cx.json"
        apath = tmp_path / "alpha.json"
        bpath = tmp_path / "beta.json"
        write_complex_json(cpath, hexagon)
        from circlift import apply_coboundary
        cob = apply_coboundary(Cochain(hexagon, 0, ZZ, {0: 1, 3: -2}))
        write_chain_json(apath, cob)
        write_chain_json(bpath, hexagon_fundamental_cycle(hexagon))
        code = main(["reduce-winding", "--complex", str(cpath),
                     "--cocycle", str(apath), "--cycle", str(bpath),
                     "--out", str(tmp_path)])
        assert code == 3


class TestExperiment:
    def test_sparsity_outputs(self, tmp_path):
        code = main(["experiment", "sparsity", "--n", "6", "--k", "3",
                     "--pmin", "13", "--pmax", "40", "--samples", "300",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "sparsity.csv").read_text()
        assert text.startswith("# seed=5")
        assert "p,samples,non_liftable,proportion" in text
        svg = (tmp_path / "sparsity.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("options, message", [
        (["--samples", "0"], "need at least 1 sample per prime, got 0"),
        (["--pmin", "50", "--pmax", "11"], "no prime between 50 and 11")])
    def test_options_that_mean_nothing_are_refused(self, tmp_path, options, message):
        assert main(["experiment", "sparsity", *options, "--out", str(tmp_path)]) == 1
        assert json.loads((tmp_path / "error.json").read_text()) == {
            "error": "ValueError", "message": message, "operation": "ValueError"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


class TestCoords:
    def test_hexagon_generator_coords(self, tmp_path, hexagon):
        cpath = tmp_path / "cx.json"
        apath = tmp_path / "alpha.json"
        write_complex_json(cpath, hexagon)
        write_chain_json(apath, hexagon_generator(hexagon))
        code = main(["coords", "--complex", str(cpath), "--cocycle", str(apath),
                     "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "coords.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        got = {int(v): float(t) for v, t in rows}
        for k in range(6):
            assert got[k] == pytest.approx(k / 6, abs=1e-9)


    def test_base_vertex_not_in_the_complex(self, tmp_path, hexagon):
        cpath = tmp_path / "cx.json"
        apath = tmp_path / "alpha.json"
        write_complex_json(cpath, hexagon)
        write_chain_json(apath, hexagon_generator(hexagon))
        code = main(["coords", "--complex", str(cpath), "--cocycle", str(apath),
                     "--base-vertex", "999", "--out", str(tmp_path)])
        assert code == 1
        assert json.loads((tmp_path / "error.json").read_text()) == {
            "error": "ValueError", "message": "base vertex 999 is not a vertex of the complex",
            "operation": "smoothing_coords.circular_map"}


class TestOut:
    @pytest.fixture
    def commands(self, tmp_path, circle_csv, hexagon):
        cx, alpha, beta = (tmp_path / name for name in ("cx.json", "alpha.json", "beta.json"))
        write_complex_json(cx, hexagon)
        write_chain_json(alpha, hexagon_generator(hexagon))
        write_chain_json(beta, hexagon_fundamental_cycle(hexagon))
        return {
            "run": (["run", "--input", str(circle_csv[0]), "--threshold", "0.9"],
                    "coords.csv"),
            "lift": (["lift", "--complex", str(cx), "--input", str(alpha), "--prime", "7"],
                     "lift_report.json"),
            "reduce-winding": (["reduce-winding", "--complex", str(cx),
                                "--cocycle", str(alpha), "--cycle", str(beta)],
                               "winding_report.json"),
            "experiment": (["experiment", "sparsity", "--pmax", "11", "--samples", "10"],
                           "sparsity.csv"),
            "coords": (["coords", "--complex", str(cx), "--cocycle", str(alpha)],
                       "coords.csv"),
        }

    @pytest.mark.parametrize("command", ["run", "lift", "reduce-winding", "experiment",
                                         "coords"])
    def test_every_command_makes_its_output_directory(self, tmp_path, commands, command):
        argv, written = commands[command]
        out = tmp_path / "fresh" / "dir"
        assert main([*argv, "--out", str(out)]) == 0
        assert (out / written).exists()

    def test_out_that_is_a_file(self, tmp_path, commands, capsys):
        # error.json cannot be written, and the command still fails
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv, _ = commands["experiment"]
        assert main([*argv, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileExistsError"
        assert out.read_text() == "kept\n"


class TestPcaProject:
    def test_planar_input_is_isometric_up_to_rotation(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((20, 2))
        proj = pca_project(pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(proj[:, None] - proj[None, :], axis=-1)
        assert np.allclose(d_in, d_out, atol=1e-9)

    def test_embedded_circle_recovered(self):
        pts, _ = sample_circle(50, 0.0, 300, seed=9)
        proj = pca_project(pts)
        radii = np.linalg.norm(proj - proj.mean(axis=0), axis=1)
        assert np.allclose(radii, 1.0, atol=1e-9)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            pca_project(np.ones((5, 3)))
