"""The same outcomes on every SIMD path numpy dispatches to.  numpy's
``exp`` and ``log`` differ in their last bits between its code paths, so a
value may move between CPUs; each estimate must cover that move.  A fixed
subset of route calls runs in this process and in a child interpreter
whose ``NPY_DISABLE_CPU_FEATURES`` names every dispatched target above
numpy's baseline that this CPU has, and every call must give the same kind
of outcome in both, with |v1 - v2| <= e1 + e2 for values."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as _umath

from gjmsdet import METHODS, SpherePoint, Tolerance, logdet

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the 55-point grid d = 3..21, scan_k(35), and the 63 points of the strata of
# perfbench's diagonal workload
POINTS = (
    [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
    + [(35, k) for k in range(1, 18)]
    + [(d, (d - 1) // 2) for lo in (65, 217, 377, 537, 697, 857, 1007)
       for d in range(lo, lo + 17, 2)]
)

# runs outcomes() in the child and prints it with the targets numpy runs there
CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from test_simd_paths import dispatched, outcomes
print(json.dumps([dispatched(), outcomes()]))
"""


def dispatched() -> list:
    """The targets above numpy's baseline that it dispatches to here."""
    return [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]


def outcomes() -> list:
    """Each call's outcome: "value" with the value and the estimate, or the
    error's type name."""
    out = []
    for tol in (Tolerance(), Tolerance(rel_tol=1e-13)):
        for d, k in POINTS:
            for method in METHODS:
                try:
                    res = logdet(SpherePoint(d, k), method, tol)
                    out.append(["value", res.value, res.err_estimate])
                except Exception as exc:  # every error is an outcome to compare
                    out.append([type(exc).__name__])
    return out


def test_outcomes_agree_without_the_dispatched_targets():
    targets = dispatched()
    if not targets:
        pytest.skip(f"numpy dispatches to no target above its baseline "
                    f"{' '.join(_umath.__cpu_baseline__)} on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent), SRC],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        try:  # the two halves run at once
            here = outcomes()
            stdout, stderr = child.communicate(timeout=120)
        finally:
            child.kill()
    assert child.returncode == 0, stderr
    child_targets, there = json.loads(stdout)
    assert child_targets == [], f"{child_targets} still dispatched"
    assert len(here) == len(there) == 2 * len(POINTS) * len(METHODS) == 1080
    for i, (a, b) in enumerate(zip(here, there)):
        call = f"call {i}: {a} here, {b} without {' '.join(targets)}"
        assert a[0] == b[0], call
        if a[0] == "value":
            assert abs(Fraction(a[1]) - Fraction(b[1])) <= Fraction(a[2]) + Fraction(b[2]), call
