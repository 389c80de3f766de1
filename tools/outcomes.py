"""Print one line per outcome of a fixed set of route and quadrature calls.

A line names the call (the point and route, or the batch and its row), the
tolerance, then either ``float.hex`` of the value and the estimate and the
panel count, or the error's type and message.  Run it on two checkouts and
``diff`` the outputs to see every value, estimate, panel count and error a
change moves:

    PYTHONPATH=src python tools/outcomes.py > outcomes.txt

The set: the four routes on the 55-point grid (d = 3..21), the points of
``scan_k(35)``, the diagonal k = (d-1)/2 for d = 3..1025, k in {1, 2, 3,
(d-1)//4} at d in {101, 301, 1023, 1025}, six points past the diagonal's
easy cases and k in {1, 3} at the d of ``EDGE_D``, either side of 2^53 - 1;
then ``product_rule`` at (1485, 742) and (40001, 20000), past its last
order with binary64 powers; each at the default ``Tolerance`` and at
``max_panels`` 4 and 16, and at ``rel_tol`` 1e-8, 1e-12 and 1e-15 for
d <= 301.  ``logdet_factor`` at every j, its divergent j = (d-1)/2
included, at d in {3, 5, 21, 35, 101}, at the default ``Tolerance`` and at
``rel_tol`` 1e-13, then at j = 0 at the d of ``EDGE_D``, and at d = 3 at
the j of ``HUGE_J``, past the binary64 range; ``float.hex`` of
``integrand_direct`` at x in {1e-3, 1, 7, 100} on the grid and the diagonal;
then three batches of ``integrate_staged``, spikes, signed and the signed
rows with envelope starts inside their first layouts, at six tolerances,
``abs_tol`` 0 and 1e-300 among them.  A route's or a factor's panel count
is that of its quadrature calls (``spectral._integrals``).  Warnings are
raised as errors, so a warning prints as its call's outcome.  A line names
d = 10^400 + 1 and the j of ``HUGE_J`` by powers (``_named``), though an
error message may spell one out.

Last come the command-line outcomes: a fixed list of ``cli.main`` calls
(``CLI_CALLS``), run in this process in an empty temporary working
directory with ``COLUMNS=80``.  Each prints its argv, its exit code, its
stdout and stderr, and the name and text of every file it wrote.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings
from itertools import chain

import numpy as np

from gjmsdet import METHODS, FactorIndex, SpherePoint, cli, spectral
from gjmsdet.quadrature import Envelopes, Tolerance, _PlainIntegrand, integrate_staged


def points():
    """The (d, k) of every route outcome, in order."""
    grid = {(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)}
    grid |= {(35, k) for k in range(1, 18)}
    grid |= {(d, (d - 1) // 2) for d in range(3, 1026, 2)}
    grid |= {(d, k) for d in (101, 301, 1023, 1025) for k in (1, 2, 3, (d - 1) // 4)}
    grid |= {(1035, 517), (1023, 100), (301, 40), (1075, 1), (1101, 1), (301, 150)}
    return sorted(grid)


def _tol(t: Tolerance) -> str:
    return f"rel_tol={t.rel_tol!r},abs_tol={t.abs_tol!r},max_panels={t.max_panels}"


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# either side of 2^53 - 1, the last d whose rows are exact binary64 integers
EDGE_D = (2**53 - 1, 2**53 + 1, 2**63 + 1, 10**20 + 1, 10**400 + 1)


# factor indices whose 2j + 1 passes the binary64 range
HUGE_J = (10**400, 2**1100, 10**5000)

# names of the ints that str() spells out at length, or refuses past 4300 digits
_NAMES = {10**400 + 1: "10^400+1", 10**400: "10^400", 2**1100: "2^1100", 10**5000: "10^5000"}


def _named(n: int) -> str:
    return _NAMES[n] if n in _NAMES else str(n)


def route_calls():
    """(d, k, methods) of every route outcome, in order: every route at
    ``points()`` and at ``EDGE_D``, then ``product_rule`` past its last
    order with binary64 powers."""
    yield from ((d, k, METHODS) for d, k in points())
    yield from ((d, k, METHODS) for d in EDGE_D for k in (1, 3))
    yield from ((d, k, ("product_rule",)) for d, k in ((1485, 742), (40001, 20000)))


def route_lines(panels: list):
    """The route outcomes; ``panels`` collects the panel counts of the
    quadrature calls of each route call."""
    wide = [Tolerance(), Tolerance(max_panels=4), Tolerance(max_panels=16)]
    tight = [Tolerance(rel_tol=1e-8), Tolerance(rel_tol=1e-12), Tolerance(rel_tol=1e-15)]
    for d, k, methods in route_calls():
        for tol in wide + (tight if d <= 301 else []):
            for method in methods:
                panels.clear()
                try:
                    res = spectral.logdet(SpherePoint(d, k), method, tol)
                    out = f"{res.value.hex()} {res.err_estimate.hex()} {sum(panels)}"
                except Exception as exc:  # every error is an outcome to compare
                    out = _error(exc)
                yield f"({_named(d)}, {k}) {method} {_tol(tol)}: {out}"


def factor_calls():
    """(d, j, tolerance) of every ``logdet_factor`` outcome, in order."""
    for d in (3, 5, 21, 35, 101):
        for tol in (Tolerance(), Tolerance(rel_tol=1e-13)):
            yield from ((d, j, tol) for j in range((d - 1) // 2 + 1))
    yield from ((d, 0, Tolerance()) for d in EDGE_D)
    yield from ((3, j, Tolerance()) for j in HUGE_J)


def factor_lines(panels: list):
    for d, j, tol in factor_calls():
        panels.clear()
        try:
            value = spectral.logdet_factor(d, FactorIndex(j), tol)
            out = f"{value.hex()} {sum(panels)}"
        except Exception as exc:
            out = _error(exc)
        yield f"factor j={_named(j)} at d={_named(d)} {_tol(tol)}: {out}"


def integrand_lines():
    x = np.array([1e-3, 1.0, 7.0, 100.0])
    grid = [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
    for d, k in grid + [(d, (d - 1) // 2) for d in range(23, 1026, 2)]:
        logmag, sign = spectral.integrand_direct(SpherePoint(d, k), x)
        out = " ".join(v.hex() for v in logmag.tolist())
        yield f"integrand_direct ({d}, {k}): {out} sign={sign.tolist()}"


# rows 0-6 are e^(-10 x); rows 7 and 8 hold width-0.0005 spikes at x = 2, 3
_SPIKE_CENTERS = np.array([0.0] * 7 + [2.0, 3.0])
_SPIKES = Envelopes([0.0] * 7 + [3.001, 4.001], [10.0] * 7 + [1.0, 1.0])


def _spikes(x, row):
    return np.where(row < 7, -10.0 * x, -4e6 * (x - _SPIKE_CENTERS[row]) ** 2), 1.0


# e^(-r x) cos(w x) over a spread of decay rates r and frequencies w; at
# r = 8 the first layout's last panel [8, 10] is sampled, yet lies past the
# cut its row's target sets
_RATES = np.array([0.5, 1.0, 2.0, 5.0, 8.0, 10.0, 50.0, 400.0])
_FREQS = np.array([3.0, 1.0, 7.0, 2.0, 3.0, 20.0, 5.0, 1.0])
_SIGNED = Envelopes(0.0, _RATES)
# the same rows with their envelopes holding only from a start inside the
# first layout, so no pair before it may be pruned
_STARTED = Envelopes(0.0, _RATES, [0.5, 1.5, 3.0, 5.0, 6.0, 8.5, 9.5, 0.25])


def _signed(x, row):
    c = np.cos(_FREQS[row] * x)
    return np.log(np.abs(c)) - _RATES[row] * x, np.sign(c)


def batch_lines():
    tols = [Tolerance(), Tolerance(rel_tol=1e-13), Tolerance(rel_tol=1e-15),
            Tolerance(max_panels=16), Tolerance(abs_tol=0.0), Tolerance(abs_tol=1e-300)]
    for name, f, env in (("spikes", _spikes, _SPIKES), ("signed", _signed, _SIGNED),
                         ("started", _signed, _STARTED)):
        for tol in tols:
            try:
                rows = integrate_staged(_PlainIntegrand(f), env.log_const, env.rate, env.start, tol)
            except Exception as exc:
                yield f"{name} {_tol(tol)}: {_error(exc)}"
                continue
            for r, (v, e, n, failed) in enumerate(
                zip(rows.value.tolist(), rows.err_estimate.tolist(),
                    rows.panels_used.tolist(), rows.failed.tolist())
            ):
                yield f"{name} row {r} {_tol(tol)}: {v.hex()} {e.hex()} {n} failed={failed}"


_SCAN_FILES = ("--method", "all", "--out", "rows.csv", "--svg", "chart.svg")

CLI_CALLS = (
    # the cli benchmark's six calls
    ("eval", "--d", "5", "--k", "2"),
    ("eval", "--d", "7", "--k", "2", "--method", "direct", "--tol", "1e-12"),
    ("closed-form",),
    ("rules", "--k", "511"),
    ("scan-k", "--d", "35", "--method", "all", "--out", "scan.csv", "--svg", "scan.svg"),
    ("eval", "--d", "1025", "--k", "512", "--method", "direct"),
    # each scan command with every route and both files
    ("scan-k", "--d", "11", *_SCAN_FILES),
    ("limiting", "--d-min", "3", "--d-max", "11", *_SCAN_FILES),
    ("paneitz", "--d-min", "5", "--d-max", "13", *_SCAN_FILES),
    ("--help",),
    *((command, "--help") for command in
      ("eval", "scan-k", "limiting", "paneitz", "rules", "closed-form")),
    ("scan-k", "--d", "2"),
    ("limiting", "--d-min", "4"),
    ("paneitz", "--d-min", "3"),
    ("scan-k", "--d", "11", "--out", "missing/x.csv"),
)


def cli_lines():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            for argv in CLI_CALLS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:  # argparse's --help and usage errors
                        code = exc.code
                yield f"cli {' '.join(argv)}: exit {code}"
                yield f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"
                for name in sorted(os.listdir()):
                    with open(name, encoding="utf-8") as fh:
                        yield f"file {name}:\n{fh.read()}"
                    os.remove(name)
        finally:
            os.chdir(cwd)


def main() -> None:
    warnings.simplefilter("error")  # so that a warning is an outcome, not a stray line
    panels = []
    integrals = spectral._integrals

    def counted(*args, **kwargs):
        rows = integrals(*args, **kwargs)
        panels.append(int(rows[3].sum()))
        return rows

    spectral._integrals = counted
    for line in chain(route_lines(panels), factor_lines(panels), integrand_lines(), batch_lines(),
                      cli_lines()):
        print(line)


if __name__ == "__main__":
    main()
