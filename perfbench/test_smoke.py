"""Smoke test of the benchmark: every workload at smoke size, through run.py,
in both trace modes. Every metric BENCHMARK.json names must be emitted with
its unit, every output check must pass, and the traced operations must
reproduce the untraced fingerprints.

    python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_checks(workload):
    fingerprints = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(HERE.parent, workload, trace)
        assert proc.returncode == 0, proc.stderr
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        fingerprints.append(json.loads(info_line)["info"]["fingerprints"])
    untraced, traced = fingerprints
    shared = set(untraced) & set(traced)
    assert shared and all(untraced[k] == traced[k] for k in shared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "circle_auto", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_trace_target_is_reported_absent_and_the_rest_restored():
    script = """
import json
import circlift.pipeline as pl, spans
original = pl.build_rips
tracer = spans.Tracer((spans.Target("x", ("circlift.pipeline.build_rips",
                                          "circlift.pipeline.no_such_name",
                                          "circlift.no_such_module.f")),))
tracer.begin()
wrapped = pl.build_rips is not original
tracer.end()
print(json.dumps([tracer.absent, wrapped, pl.build_rips is original]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    absent, wrapped, restored = json.loads(proc.stdout)
    assert absent == ["circlift.pipeline.no_such_name", "circlift.no_such_module.f"]
    assert wrapped and restored
