"""Calls that once ran without bound or raised a raw exception, each run in
a fresh interpreter under a 200 MB address-space limit (RLIMIT_AS, set in
the child) and a timeout.  Each must end within 1 s, timed in the child
around the call alone, in a value or a package error."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADDRESS_SPACE = 200 * 2**20

# evaluates the probe expression in argv[1], timed, and prints its outcome
# ("= " and the value's repr, or the error's module.name), its message and
# the seconds it took
RUNNER = """
import json, sys, time
import numpy as np
from gjmsdet import (Envelopes, FactorIndex, QuadratureSpec, SpherePoint, Tolerance, cli,
                     eval_u, integrand_direct, integrate_rows, integrate_semi_infinite, logdet,
                     logdet_factor, scans, truncation_point, u_coefficients, zeta_odd)
f = lambda x, row: (-x, 1.0)
start = time.perf_counter()
try:
    outcome = ["= " + repr(eval(sys.argv[1])), ""]
except Exception as exc:
    outcome = [f"{type(exc).__module__}.{type(exc).__name__}", str(exc)]
print(json.dumps([*outcome, time.perf_counter() - start]))
"""

PROBES = {
    "factor_numpy_float_huge_j": (
        "logdet_factor(np.float64(5.0), FactorIndex(10**400))",
        "gjmsdet.errors.DivergentIntegralError",
    ),
    "cli_limiting_huge_range": (
        "cli.main(['limiting', '--d-min', '3', '--d-max', '100000000001'])", "= 2",
    ),
    "cli_scan_k_huge_d": ("cli.main(['scan-k', '--d', '100000000001'])", "= 2"),
    "scan_k_10^5000": ("scans.scan_k(10**5000 + 1)", "gjmsdet.errors.UnsupportedArgumentError"),
    "repr_huge_point": (
        "repr(SpherePoint(10**5000 + 1, 1))", "= 'SpherePoint(d of 16610 bits, k=1)'",
    ),
    "zeta_odd_10001": ("zeta_odd(10001)", "= 1.0"),
    "zeta_odd_10^6+1": ("zeta_odd(10**6 + 1)", "= 1.0"),
    "logdet_of_a_tuple": ("logdet((5, 2))", "gjmsdet.errors.ParameterError"),
    "compute_rows_of_a_tuple": (
        "scans.compute_rows([(5, 2)])", "gjmsdet.errors.ParameterError",
    ),
    "integrand_of_the_wrong_shape": (
        "integrate_rows(lambda x, row: (np.zeros(3), 1.0), Envelopes(0.0, 1.0), Tolerance())",
        "gjmsdet.errors.ParameterError",
    ),
    # powers past the interpreter's digit limit (4300 by default) are refused
    # as they are built, not built whole
    "eval_u_10^6": ("eval_u(10**6, 2.0)", "gjmsdet.errors.UnsupportedArgumentError"),
    "u_coefficients_10^6": ("u_coefficients(10**6)", "gjmsdet.errors.UnsupportedArgumentError"),
    # envelopes whose truncation point passes the binary64 range, once inf or
    # a NaN sample after numpy overflow warnings
    **{name: (call, "gjmsdet.errors.DivergentIntegralError") for name, call in {
        "truncation_point_at_a_subnormal_rate": "truncation_point(1.0, 5e-324, 1.0)",
        "integrate_rows_at_a_subnormal_rate":
            "integrate_rows(f, Envelopes(0.0, 1e-310), Tolerance())",
        "integrate_rows_at_a_huge_log_c": "integrate_rows(f, Envelopes(1e308, 0.5), Tolerance())",
        "integrate_semi_infinite_at_a_subnormal_rate":
            "integrate_semi_infinite(f, QuadratureSpec(5e-324))",
    }.items()},
    # arguments of the wrong type at the entries of the integration layer
    **{name: (call, "gjmsdet.errors.ParameterError") for name, call in {
        "integrand_direct_of_a_tuple": "integrand_direct((5, 2), 1.0)",
        "integrand_direct_at_a_str": "integrand_direct(SpherePoint(5, 2), 'a')",
        "factor_of_an_int": "logdet_factor(5, 1)",
        "factor_at_a_str_dimension": "logdet_factor('5', FactorIndex(1))",
        "factor_at_no_dimension": "logdet_factor(None, FactorIndex(1))",
        "integrate_rows_of_a_tuple": "integrate_rows(f, (0.0, 1.0), Tolerance())",
        "integrate_rows_without_tolerance": "integrate_rows(f, Envelopes(0.0, 1.0), None)",
        "integrate_semi_infinite_of_an_int": "integrate_semi_infinite(f, 5)",
        "integrand_returning_none": (
            "integrate_rows(lambda x, row: None, Envelopes(0.0, 1.0), Tolerance())"
        ),
        "integrand_returning_strs": (
            "integrate_rows(lambda x, row: ('a', 'b'), Envelopes(0.0, 1.0), Tolerance())"
        ),
        "scan_limiting_of_strs": "scans.scan_limiting('3', '5')",
        "scan_paneitz_of_none": "scans.scan_paneitz(None, 7)",
    }.items()},
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("name", PROBES)
def test_probe_ends_quickly_in_a_value_or_a_package_error(name):
    expression, expected = PROBES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one BLAS thread, so the limit holds the interpreter whatever the core count
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, expression], env=env, capture_output=True,
        text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    outcome, message, seconds = json.loads(proc.stdout.splitlines()[-1])
    assert (outcome, seconds < 1.0) == (expected, True), (message, seconds)
