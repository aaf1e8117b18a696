"""circlift benchmark: one workload per invocation, from a checkout's root.

    python3 perfbench/run.py --workload circle_auto --seed 1 --seconds 36 --trace 0

The workload runs in its own subprocess (worker.py) against the checkout's
``src/`` tree, one operation at a time. With --trace 0 the last line of
standard output is the end-to-end result; with --trace 1 it carries the
per-layer metrics of a separate traced run. The line before it records the
environment, the output fingerprints and any trace target absent at this
commit. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("circle_auto", "trefoil_sparse", "foreign_reps")

# Set-up is measured in this many processes and reported as their median.
SETUP_REPEATS = {"full": 5, "smoke": 2}
# One BLAS/OpenMP thread: operations run one at a time and are mostly
# single-threaded Python, one thread keeps the run-to-run spread low, and a
# fixed reduction order keeps the coordinate fingerprints repeatable.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_worker(args, env, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(res: dict, setups: list[float]) -> dict:
    attempted = res["attempted"]
    ops = res["op_seconds"]
    return {
        "op_s": {"value": statistics.median(ops) if ops else 0.0, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_frac": {"value": (attempted - res["failed"]) / attempted, "unit": "ratio"},
        "circ_corr_min": {"value": res["circ_corr_min"], "unit": "ratio"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=tuple(SETUP_REPEATS), default="full",
                    help="input sizes; 'smoke' is for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "circlift" / "__init__.py").is_file():
        print(f"perfbench: no circlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS[args.scale] - 1):
                setups.append(run_worker(args, env, deadline, setup_only=True)["setup_s"])
        res = run_worker(args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "env": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                "python": platform.python_version(), "numpy": res["numpy"],
                "blas_threads": res["blas_threads"], "pythonhashseed": env["PYTHONHASHSEED"]},
        "setup_seconds": setups,
        "op_seconds": res["op_seconds"],
        "op_cpu_seconds": res["op_cpu_seconds"],
        "fingerprints": res["fingerprints"],
    }
    if args.trace:
        info.update(traced_op_seconds=res["traced_op_seconds"], absent=res["absent"],
                    observer_errors=res["observer_errors"])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(res["layers"].items())}
    else:
        metrics = end_to_end(res, setups)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or "rss_mb" in name:
        return "MB"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("residual"):
        return "norm"
    if name.endswith("r_cocycle"):
        return "scalar"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
