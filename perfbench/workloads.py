"""One pass of each workload, and the checks on every value it returns.

An operation is one route evaluation of one point (``diagonal``) or
one process invocation (``cli``).  A call is one point evaluated by all four
routes, or one invocation.  An operation fails when it raises (a typed
package error or anything else), returns a non-finite value, returns a value
off the frozen oracle by more than the package's own agreement threshold
max(1e-9, 1e-8 |oracle|), or, for ``cli``, exits non-zero.  A failure is
counted by cause and never stops the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter

from gjmsdet import chebyshev, cli, errors, scans, spectral
from gjmsdet.spectral import METHODS, SpherePoint

ABS_TOL = 1e-9
REL_TOL = 1e-8
CHILD_TIMEOUT_S = 120

TYPED_ERRORS = tuple(
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
)

# Defects open when the benchmark was defined.  Their failures are counted by
# cause apart from unexpected ones, so they show in every record without
# making a run incorrect; a known defect that starts passing is counted too.
# product_rule weights k base integrals by integers as large as C(k+j, k-1-j),
# and the cancellation error passes the threshold from d = 127 on.
PRODUCT_RULE_CANCELS_FROM_D = 127
# The sixth invocation (d = 1025) overflows building the integrand's envelope
# and exits 1 with a traceback instead of a typed error.
CLI_KNOWN_DEFECT = 5

CLI_CALLS = (
    ("eval", "--d", "5", "--k", "2"),
    ("eval", "--d", "7", "--k", "2", "--method", "direct", "--tol", "1e-12"),
    ("closed-form",),
    ("rules", "--k", "511"),
    ("scan-k", "--d", "35", "--method", "all", "--out", "{csv}", "--svg", "{svg}"),
    ("eval", "--d", "1025", "--k", "512", "--method", "direct"),
)

# A fresh process starts with these empty; the in-process cli pass clears them.
COLD_CACHES = (spectral.zeta_odd, chebyshev.u_coefficients, chebyshev.v_coefficients)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gjmsdet.cli; "
    "print(time.perf_counter() - t)"
)


def within(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= max(ABS_TOL, REL_TOL * abs(ref))


class Tally:
    """Outcome of every operation of a run.  Each check returns whether the
    operation passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()  # cause -> unexpected failures
        self.known: Counter = Counter()  # cause -> failures of known defects
        self.known_passed = 0
        self.exit_codes: Counter = Counter()
        self.max_abs_err = 0.0
        self.err_underestimates = 0

    @property
    def unexpected(self) -> int:
        return sum(self.failed.values())

    @property
    def fail_frac(self) -> float:
        return (self.unexpected + sum(self.known.values())) / self.attempted

    def _fail(self, cause: str, known: bool, ops: int = 1) -> bool:
        (self.known if known else self.failed)[cause] += ops
        return False

    def _passed(self, values, known: bool) -> bool:
        for value, _, ref in values:
            self.max_abs_err = max(self.max_abs_err, abs(value - ref))
        self.known_passed += known
        return True

    def _estimates(self, values) -> None:
        for value, err, ref in values:
            if err is not None and math.isfinite(value) and abs(value - ref) > err:
                self.err_underestimates += 1

    def value(self, value: float, err, ref: float, known: bool = False) -> bool:
        """Check one returned value and its error estimate."""
        self.attempted += 1
        self._estimates([(value, err, ref)])
        if not within(value, ref):
            return self._fail("off_oracle", known)
        return self._passed([(value, err, ref)], known)

    def error(self, exc: Exception, known: bool = False, ops: int = 1) -> bool:
        self.attempted += ops
        cause = "typed_error" if isinstance(exc, TYPED_ERRORS) else "raw_exception"
        return self._fail(cause, known, ops)

    def invocation(self, code: int, values, known: bool = False) -> bool:
        """Check one CLI run: its exit code, then every (value, estimate,
        oracle) it printed; ``values`` is None when the output was malformed."""
        self.attempted += 1
        self.exit_codes[code] += 1
        if code != 0:
            return self._fail("bad_exit", known)
        if values is None:
            return self._fail("off_oracle", known)
        self._estimates(values)
        if not all(within(v, ref) for v, _, ref in values):
            return self._fail("off_oracle", known)
        return self._passed(values, known)


def _nothing() -> None:
    pass


def diagonal_pass(points, oracle, tally: Tally, new_call=_nothing):
    """Each route called on its own with ``logdet(point, method)``, so one
    failing route does not hide the others; a call's latency is their sum."""
    latencies, ok_calls = [], 0
    for d, k in points:
        new_call()
        point = SpherePoint(d, k)
        elapsed, ok = 0.0, True
        for method in METHODS:
            known = method == "product_rule" and d >= PRODUCT_RULE_CANCELS_FROM_D
            start = time.perf_counter()
            try:
                res = spectral.logdet(point, method)
            except Exception as exc:  # a raw exception is a failure, not a crash
                elapsed += time.perf_counter() - start
                ok &= tally.error(exc, known)
                continue
            elapsed += time.perf_counter() - start
            ok &= tally.value(res.value, res.err_estimate, oracle[(d, k)], known)
        latencies.append(elapsed)
        ok_calls += ok
    return latencies, ok_calls


IN_PROCESS_PASSES = {"diagonal": diagonal_pass}


# --- cli ---------------------------------------------------------------------

_EVAL_LINE = re.compile(r"^(\w+)\s+(\S+)\s+err (\S+)$")
_CLOSED_LINE = re.compile(r"^closed_form d=(\d+) k=(\d+): (\S+)\s+err (\S+)$")
_RULE_FACTOR = re.compile(r"P_2\^(\d+)\(d(?:-(\d+))?\)")


def _flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _eval_values(argv, stdout: str, oracle, paths):
    d, k = int(_flag(argv, "--d")), int(_flag(argv, "--k"))
    method = _flag(argv, "--method", "all")
    expected = set(METHODS) if method == "all" else {method}
    found = {}
    for line in stdout.splitlines()[1:]:
        m = _EVAL_LINE.match(line)
        if m:
            found[m[1]] = (float(m[2]), float(m[3]), oracle[(d, k)])
    return list(found.values()) if set(found) == expected else None


def _closed_form_values(argv, stdout: str, oracle, paths):
    found = {}
    for line in stdout.splitlines():
        m = _CLOSED_LINE.match(line)
        if m:
            d, k = int(m[1]), int(m[2])
            found[d] = (float(m[3]), float(m[4]), oracle[(d, k)])
    return list(found.values()) if set(found) == {5, 7} else None


def _rules_values(argv, stdout: str, oracle, paths):
    """The product-rule powers must be v_j(k) = C(k+j, k-1-j), in order of
    descending dimension d - 2j.  No float values: [] when right."""
    k = int(_flag(argv, "--k"))
    if not stdout.startswith(f"P_{2 * k}(d) ~ "):
        return None
    factors = [(int(p), int(off or 0)) for p, off in _RULE_FACTOR.findall(stdout)]
    expected = [(math.comb(k + j, k - 1 - j), 2 * j) for j in range(k)]
    return [] if factors == expected else None


def _scan_values(argv, stdout: str, oracle, paths):
    """The CSV must hold every (35, k) row for every route, and the SVG one
    polyline through the 17 points."""
    d = int(_flag(argv, "--d"))
    try:
        with open(paths["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        svg = ET.parse(paths["svg"]).getroot()
        n_points = [
            len(p.get("points", "").split())
            for p in svg.iter("{http://www.w3.org/2000/svg}polyline")
        ]
    except (OSError, ET.ParseError):
        return None
    if not lines or lines[0] != scans.CSV_HEADER or n_points != [(d - 1) // 2]:
        return None
    found = {}
    for line in lines[1:]:
        row_d, k, method, value, err = line.split(",")
        key = (int(row_d), int(k))
        found[key + (method,)] = (float(value), float(err), oracle[key])
    expected = {(d, k, m) for k in range(1, (d - 1) // 2 + 1) for m in METHODS}
    if set(found) != expected or len(lines) != len(expected) + 1:
        return None
    return list(found.values())


_CLI_CHECKS = {
    "eval": _eval_values,
    "closed-form": _closed_form_values,
    "rules": _rules_values,
    "scan-k": _scan_values,
}


def cli_pass(run_one, out_dir: str, oracle, tally: Tally, new_call=_nothing):
    """The CLI_CALLS in order, each through ``run_one(argv) -> (seconds,
    exit code, stdout)``.  Output that cannot be parsed counts as off the
    oracle."""
    paths = {"csv": os.path.join(out_dir, "scan.csv"), "svg": os.path.join(out_dir, "scan.svg")}
    latencies, ok_calls = [], 0
    for i, template in enumerate(CLI_CALLS):
        argv = [arg.format(**paths) for arg in template]
        for path in paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        new_call()
        elapsed, code, stdout = run_one(argv)
        latencies.append(elapsed)
        values = None
        if code == 0:
            with contextlib.suppress(ValueError, KeyError):
                values = _CLI_CHECKS[argv[0]](argv, stdout, oracle, paths)
        ok_calls += tally.invocation(code, values, known=i == CLI_KNOWN_DEFECT)
    return latencies, ok_calls


def child_env(src: str) -> dict:
    """Environment for a child interpreter that imports the package from
    ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, env: dict, cwd: str):
    """Run one child interpreter to completion: (seconds, exit code, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def subprocess_cli(env: dict, cwd: str):
    """``run_one`` for cli_pass: a fresh interpreter per invocation."""
    return lambda argv: run_child(["-m", "gjmsdet.cli", *argv], env, cwd)


def in_process_cli(argv):
    """``run_one`` for cli_pass: ``cli.main(argv)`` in this process, with the
    caches a fresh process would start without emptied first."""
    for cached in COLD_CACHES:
        cached.cache_clear()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the interpreter exits 1 on an uncaught exception
            code = 1
    return time.perf_counter() - start, code, out.getvalue()
