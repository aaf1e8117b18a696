"""Certificates are explicit checks, so ``python -O`` (which strips asserts)
still refuses a corrupted result with ValidationFailed."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys
import circlift.lifting as lifting
import circlift.winding as winding
from circlift import (Chain, Cochain, GF, ZZ, apply_coboundary, build_from_simplices,
                      lift_closed)
from circlift.cli import main
from circlift.errors import ValidationFailed

out, complex_path, cochain_path = sys.argv[1:4]
report = {"optimize": sys.flags.optimize}

cx = build_from_simplices([((0, 1, 2), 1.0)])
c = Cochain.from_simplices(cx, 1, GF(7), {(1, 2): 3, (0, 2): 4, (0, 1): 1})
with open(complex_path, "w") as fh:
    json.dump(cx.to_json_dict(), fh)
with open(cochain_path, "w") as fh:
    json.dump(c.to_json_dict(), fh)

honest_lift = lifting.naive_lift
def corrupted_lift(v):
    # one extra unit on the first edge: no longer closed over Z
    return honest_lift(v) + Cochain(v.complex, v.dim, ZZ, {0: 1})
lifting.naive_lift = corrupted_lift
try:
    lift_closed(c)
    report["lift"] = "returned"
except ValidationFailed as err:
    report["lift"] = err.operation
report["cli_exit"] = main(["lift", "--complex", complex_path, "--input", cochain_path,
                           "--prime", "7", "--out", out])
lifting.naive_lift = honest_lift

hexagon = build_from_simplices([((i, (i + 1) % 6), 1.0) for i in range(6)])
gen = Cochain.from_simplices(hexagon, 1, ZZ, {(0, 1): 2})
loop = Chain.from_simplices(
    hexagon, 1, ZZ, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): -1})
honest_split = winding._split
def corrupted_split(*args, **kwargs):
    # same class, but gamma shifted by a coboundary the witness never sees
    split = honest_split(*args, **kwargs)
    if split is None:
        return None
    f, gamma, route = split
    return f, gamma + apply_coboundary(Cochain(hexagon, 0, ZZ, {0: 1})), route
winding._split = corrupted_split
try:
    winding.reduce_winding(gen, loop)
    report["winding"] = "returned"
except ValidationFailed as err:
    report["winding"] = err.operation
print(json.dumps(report))
"""


def test_corrupted_certificates_fail_under_python_dash_o(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT, str(tmp_path / "out"),
         str(tmp_path / "cx.json"), str(tmp_path / "c.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"optimize": 1, "lift": "lifting.lift_closed", "cli_exit": 1,
                      "winding": "winding.reduce_winding"}
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["error"] == "ValidationFailed"
    assert not (tmp_path / "out" / "lift_report.json").exists()
