"""Batch command-line front end.

Subcommands wire the pipeline end to end (``run``) or expose individual
stages on the documented JSON/CSV formats (``lift``, ``reduce-winding``,
``experiment``, ``coords``). Every failure exits nonzero with a
machine-readable JSON diagnostic naming the failing operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .complexes import Chain, Cochain, FilteredComplex, GF, ZZ, write_json
from .errors import CircliftError, TorsionObstruction, ZeroPairing
from .experiments import sparsity_sweep, write_sparsity_csv
from .lifting import DEFAULT_SNF_CAP, lift_closed
from .pipeline import run_pipeline
from .plots import pca_project, svg_line_chart, svg_scatter
from .smoothing import circular_map, harmonic_smooth
from .winding import reduce_winding

EXIT_ERROR = 1
EXIT_ZERO_PAIRING = 3
EXIT_TORSION = 4


def _read_points_csv(path: Path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([])
            for field, v in enumerate(line.split(","), 1):
                try:
                    rows[-1].append(float(v))
                except ValueError:
                    raise ValueError(f"{path} line {number}, field {field}: "
                                     f"{v!r} is not a number") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path} line {number}: {len(rows[-1])} coordinates, "
                                 f"but the first point has {len(rows[0])}")
    if not rows:
        raise CircliftError(f"no points in {path}", operation="cli_io.cmd_run")
    return np.asarray(rows, dtype=float)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_input(path: Path):
    """Points CSV or explicit-complex JSON, by extension."""
    if path.suffix.lower() == ".json":
        return None, FilteredComplex.from_json_dict(_read_json(path))
    return _read_points_csv(path), None


def _threshold(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:      # "auto", or a word that build_rips refuses by name
        return text


def cmd_run(args) -> int:
    points, complex_ = _load_input(args.input)
    result = run_pipeline(
        points=points, complex=complex_, prime=args.prime,
        max_dim=args.max_dim, threshold=args.threshold,
        class_strategy=args.class_strategy, scale_policy=args.scale_policy,
        reduce=not args.no_reduce, snf_cap=args.snf_cap)

    out = args.out
    result.diagram.write_json(out / "diagram.json")
    write_json(out / "lift_report.json", result.cocycle_lift.to_json_dict())
    if result.winding_report is not None:
        write_json(out / "winding_report.json", result.winding_report.to_json_dict())
    result.smoothed.write_json(out / "smoothed.json")
    result.coords.write_csv(out / "coords.csv")

    if points is not None:
        proj = pca_project(points)
        thetas = [result.coords.values[v] for v in sorted(result.coords.values)]
        svg_scatter(proj, thetas, out / "coords.svg",
                    title=f"circlift {__version__}")
    return 0


def cmd_lift(args) -> int:
    cx = FilteredComplex.from_json_dict(_read_json(args.complex))
    cls = Chain if args.kind == "cycle" else Cochain
    vec = cls.from_json_dict(cx, _read_json(args.input), ring=GF(args.prime))
    report = lift_closed(vec, snf_cap=args.snf_cap)
    write_json(args.out / "lift_report.json", report.to_json_dict())
    return 0


def cmd_reduce_winding(args) -> int:
    cx = FilteredComplex.from_json_dict(_read_json(args.complex))
    alpha = Cochain.from_json_dict(cx, _read_json(args.cocycle), ring=ZZ)
    beta = Chain.from_json_dict(cx, _read_json(args.cycle), ring=ZZ)
    report = reduce_winding(alpha, beta, snf_cap=args.snf_cap)
    write_json(args.out / "winding_report.json", report.to_json_dict())
    return 0


def cmd_experiment(args) -> int:
    rows = sparsity_sweep(args.n, args.pmin, args.pmax, args.samples, args.k,
                          args.seed)
    write_sparsity_csv(rows, args.out / "sparsity.csv", seed=args.seed)
    svg_line_chart([r.prime for r in rows], [r.proportion for r in rows],
                   args.out / "sparsity.svg",
                   title=f"non-liftable lines, n={args.n} k={args.k} "
                         f"seed={args.seed} circlift {__version__}")
    return 0


def cmd_coords(args) -> int:
    cx = FilteredComplex.from_json_dict(_read_json(args.complex))
    alpha = Cochain.from_json_dict(cx, _read_json(args.cocycle), ring=ZZ)
    smoothed = harmonic_smooth(alpha)
    coords = circular_map(smoothed, base_vertex=args.base_vertex)
    smoothed.write_json(args.out / "smoothed.json")
    coords.write_csv(args.out / "coords.csv")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlift",
        description="circular coordinates with validated cocycle lifting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline on a point cloud or complex")
    run.add_argument("--input", required=True, type=Path,
                     help="points CSV (no header) or explicit-complex JSON")
    run.add_argument("--prime", type=int, default=47)
    run.add_argument("--max-dim", type=int, default=1)
    run.add_argument("--threshold", type=_threshold, default="auto")
    run.add_argument("--class", dest="class_strategy", default="max-persistence",
                     help='"max-persistence" or "index:k"')
    run.add_argument("--scale", dest="scale_policy", default="midpoint")
    run.add_argument("--snf-cap", type=int, default=DEFAULT_SNF_CAP)
    run.add_argument("--no-reduce", action="store_true",
                     help="skip the winding reduction step")
    run.add_argument("--out", type=Path, default=Path("."))

    lift = sub.add_parser("lift", help="lift one F_p (co)chain")
    lift.add_argument("--complex", required=True)
    lift.add_argument("--input", required=True, help="(co)chain JSON over F_p")
    lift.add_argument("--prime", type=int, required=True)
    lift.add_argument("--kind", choices=["cocycle", "cycle"], default="cocycle")
    lift.add_argument("--snf-cap", type=int, default=DEFAULT_SNF_CAP)
    lift.add_argument("--out", type=Path, default=Path("."))

    rw = sub.add_parser("reduce-winding", help="reduce an integer cocycle")
    rw.add_argument("--complex", required=True)
    rw.add_argument("--cocycle", required=True, help="integer cochain JSON")
    rw.add_argument("--cycle", required=True, help="integer chain JSON")
    rw.add_argument("--snf-cap", type=int, default=DEFAULT_SNF_CAP)
    rw.add_argument("--out", type=Path, default=Path("."))

    exp = sub.add_parser("experiment", help="run a statistical experiment")
    exp.add_argument("experiment", choices=["sparsity"])
    exp.add_argument("--n", type=int, default=6)
    exp.add_argument("--k", type=int, default=3)
    exp.add_argument("--pmin", type=int, default=3)
    exp.add_argument("--pmax", type=int, default=300)
    exp.add_argument("--samples", type=int, default=10_000)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", type=Path, default=Path("."))

    coords = sub.add_parser("coords", help="smooth a cocycle and emit coordinates")
    coords.add_argument("--complex", required=True)
    coords.add_argument("--cocycle", required=True, help="integer cochain JSON")
    coords.add_argument("--base-vertex", type=int, default=None)
    coords.add_argument("--out", type=Path, default=Path("."))
    return parser


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, TorsionObstruction):
        return EXIT_TORSION
    if isinstance(err, ZeroPairing):
        return EXIT_ZERO_PAIRING
    return EXIT_ERROR


def main(argv=None) -> int:
    # argparse exits with code 2 on any other command
    args = _build_parser().parse_args(argv)
    command = {"run": cmd_run, "lift": cmd_lift, "reduce-winding": cmd_reduce_winding,
               "experiment": cmd_experiment, "coords": cmd_coords}[args.command]
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return command(args)
    except (CircliftError, ValueError, OSError, KeyError) as err:
        operation = getattr(err, "operation", None) or type(err).__name__
        diagnostic = {
            "error": type(err).__name__,
            "operation": operation,
            "message": str(err),
        }
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        try:        # fails when --out could not be made
            write_json(args.out / "error.json", diagnostic)
        except OSError:
            pass
        return _exit_code_for(err)


if __name__ == "__main__":
    raise SystemExit(main())
