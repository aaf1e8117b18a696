"""One workload in its own process: set up, then issue one operation at a
time (a closed loop with one client) until the run's seconds are used.

Started by run.py, which passes the monotonic time at which it launched this
process so set-up time counts from process start. The last line of standard
output is one JSON object with the raw measurements.

With --trace 1, operations alternate untraced and traced on the same input;
the traced one must reproduce the untraced fingerprint, and the pair gives
the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> int:
    print(f"perfbench worker: {message}", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import circlift
    src = (ROOT / "src").resolve()
    if Path(circlift.__file__).resolve().parent.parent != src:
        return _fail(f"circlift imported from {circlift.__file__}, not from {src}")
    import spans
    import workloads
    missing = [n for n in workloads.REQUIRED_NAMES
               if n not in circlift.__all__ or not hasattr(circlift, n)]
    if missing:
        return _fail(f"circlift.__all__ lacks {missing}")

    wl = workloads.make(args.workload, args.seed, args.scale)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    untraced_s: list[float] = []
    untraced_cpu_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    fingerprints: dict[int, str] = {}
    corr_min = float("inf")
    attempted = failed = 0
    min_ops = 2 if tracer else 1
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        index = attempted // 2 if tracer else attempted
        variant = wl.variant(index)
        attempted += 1
        # Drop the previous operation's outputs first, so the peak RSS is that
        # of one operation and no collection of its garbage lands in a timing.
        out = outcome = op = None
        gc.collect()
        if traced:
            tracer.begin()
        try:
            t, cpu = time.perf_counter(), time.process_time()
            out = wl.run(variant)
            elapsed = time.perf_counter() - t
            cpu = time.process_time() - cpu
            outcome = wl.check(variant, out)
        except Exception:  # noqa: BLE001 - an operation that raised counts as failed
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            op = tracer.end() if traced else None
        key = index if variant is not None else 0
        if fingerprints.setdefault(key, outcome.fingerprint) != outcome.fingerprint:
            failed += 1
            print(f"fingerprint of input {key} changed:\n  {fingerprints[key]}\n"
                  f"  {outcome.fingerprint}", file=sys.stderr)
            continue
        corr_min = min(corr_min, outcome.circ_corr)
        if traced:
            traced_s.append(elapsed)
            layers.append(spans.layer_metrics(op, elapsed))
        else:
            untraced_s.append(elapsed)
            untraced_cpu_s.append(cpu)

    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "op_seconds": untraced_s,
        "op_cpu_seconds": untraced_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "circ_corr_min": corr_min if corr_min != float("inf") else 0.0,
        "fingerprints": {str(k): v for k, v in sorted(fingerprints.items())},
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if tracer:
        names = spans.layer_metrics(spans.OpRecord(), 0.0)
        medians = {name: statistics.median(op[name] for op in layers) if layers else 0.0
                   for name in names}
        medians["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            if traced_s and untraced_s else 0.0)
        result.update(layers=medians, traced_op_seconds=traced_s, absent=tracer.absent,
                      observer_errors=sorted(tracer.observer_errors))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
