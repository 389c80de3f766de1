"""Print one line per outcome of a fixed set of route and quadrature calls
and of a seeded set of random ones.

The first line names numpy's version and the SIMD targets it runs
(``numpy_simd.header``), as some outcomes differ between those code paths.
Every other line names the call (the point and route, or the batch and its
row), the tolerance, then either ``float.hex`` of the value and the
estimate and the panel count, or the error's type and message.  Run it on
two checkouts and ``diff`` the outputs to see every value, estimate, panel
count and error a change moves:

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

Then come the command-line outcomes: a fixed list of ``cli.main`` calls
(``CLI_CALLS``), run in this process in an empty temporary working
directory with ``COLUMNS=80``.  Each prints its argv, its exit code, its
stdout and stderr, and the name and text of every file it wrote.

Last come ``FUZZ_COUNT`` random calls drawn from each seed of
``FUZZ_SEEDS``, each at a random ``Tolerance`` (rel_tol log-uniform in
1e-17..1e-2, abs_tol in ``ABS_TOLS``, max_panels in ``MAX_PANELS``), each
line opening with ``fuzz`` and the call: ``logdet`` by a random route and
``logdet_factor`` at a random j, both at an odd d <= 400, each printed as
above, and ``integrate_rows`` and ``integrate_staged`` (through
``_PlainIntegrand``) on a batch of ``_random_rows``, a line a row with the
value, the estimate, the panel count and the truncation point, and for
``integrate_staged`` the ``failed`` flag.  A call that raises prints one
line with the error.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import tempfile
import warnings
from itertools import chain

import numpy as np

from gjmsdet import METHODS, FactorIndex, SpherePoint, cli, spectral
from gjmsdet.quadrature import (Envelopes, Tolerance, _PlainIntegrand, integrate_rows,
                                integrate_staged)
from numpy_simd import header


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


def _route(d: int, k: int, method: str, tol: Tolerance, panels: list) -> str:
    """One route call's value, estimate and panel count, or its error."""
    panels.clear()
    try:
        res = spectral.logdet(SpherePoint(d, k), method, tol)
        return f"{res.value.hex()} {res.err_estimate.hex()} {sum(panels)}"
    except Exception as exc:  # every error is an outcome to compare
        return _error(exc)


def route_lines(panels: list):
    """The route outcomes; ``panels`` collects the panel counts of the
    quadrature calls of each route call."""
    wide = [Tolerance(), Tolerance(max_panels=4), Tolerance(max_panels=16)]
    tight = [Tolerance(rel_tol=1e-8), Tolerance(rel_tol=1e-12), Tolerance(rel_tol=1e-15)]
    for d, k, methods in route_calls():
        for tol in wide + (tight if d <= 301 else []):
            for method in methods:
                out = _route(d, k, method, tol, panels)
                yield f"({_named(d)}, {k}) {method} {_tol(tol)}: {out}"


def factor_calls():
    """(d, j, tolerance) of every ``logdet_factor`` outcome, in order."""
    for d in (3, 5, 21, 35, 101):
        for tol in (Tolerance(), Tolerance(rel_tol=1e-13)):
            yield from ((d, j, tol) for j in range((d - 1) // 2 + 1))
    yield from ((d, 0, Tolerance()) for d in EDGE_D)
    yield from ((3, j, Tolerance()) for j in HUGE_J)


def _factor(d: int, j: int, tol: Tolerance, panels: list) -> str:
    """One ``logdet_factor`` call's value and panel count, or its error."""
    panels.clear()
    try:
        return f"{spectral.logdet_factor(d, FactorIndex(j), tol).hex()} {sum(panels)}"
    except Exception as exc:
        return _error(exc)


def factor_lines(panels: list):
    for d, j, tol in factor_calls():
        yield f"factor j={_named(j)} at d={_named(d)} {_tol(tol)}: {_factor(d, j, tol, panels)}"


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


FUZZ_SEEDS = (0, 1, 2)
FUZZ_COUNT = 1500
ABS_TOLS = (0.0, 1e-300, 1e-30, 1e-15, 1e-8)
MAX_PANELS = (4, 16, 64, 4096)


def _random_rows(rng: random.Random):
    """A batch of 1 to 12 random rows, plain or signed: the envelope's
    (shift, rate, start) and ``f(x, row)`` of them."""
    n = rng.randint(1, 12)
    shift = [rng.uniform(-3.0, 3.0) for _ in range(n)]
    rate = [math.exp(rng.uniform(math.log(0.3), math.log(30.0))) for _ in range(n)]
    start = rng.choice((0.0, rng.uniform(0.0, 20.0)))
    s, L = np.array(shift), np.array(rate)
    if rng.random() < 0.5:
        c = np.array([float(rng.randint(0, 2)) for _ in range(n)])

        def f(x, row):
            return s[row] - L[row] * x - c[row] * np.log1p(x * x), 1.0
    else:
        w = np.array([rng.uniform(0.0, 6.0) for _ in range(n)])

        def f(x, row):
            wave = np.cos(w[row] * x)
            return s[row] - L[row] * x + np.log(np.abs(wave)), np.where(wave < 0.0, -1.0, 1.0)
    return (shift, rate, start), f


def _batch(kind: str, args: tuple, f, tol: Tolerance) -> list:
    """The line suffixes and outcomes of ``integrate_rows`` or
    ``integrate_staged`` on a random batch: one a row, or one error."""
    try:
        env = Envelopes(*args)
        if kind == "integrate_rows":
            rows = [f"{r.value.hex()} {r.err_estimate.hex()} {r.panels_used} "
                    f"{r.truncation_point.hex()}" for r in integrate_rows(f, env, tol)]
        else:
            staged = integrate_staged(_PlainIntegrand(f), env.log_const, env.rate, env.start, tol)
            rows = [f"{v.hex()} {e.hex()} {n} {x.hex()} failed={failed}"
                    for v, e, n, x, failed in zip(*(a.tolist() for a in staged))]
    except Exception as exc:
        return [f": {_error(exc)}"]
    return [f" row {r}: {out}" for r, out in enumerate(rows)]


def fuzz_lines(panels: list):
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        for _ in range(FUZZ_COUNT):
            tol = (10.0 ** rng.uniform(-17.0, -2.0), rng.choice(ABS_TOLS), rng.choice(MAX_PANELS))
            kind = rng.choice(("logdet", "logdet_factor", "integrate_rows", "integrate_staged"))
            if kind == "logdet":
                d = rng.randrange(3, 401, 2)
                args = (d, rng.randint(1, (d - 1) // 2), rng.choice(METHODS))
                outs = [": " + _route(*args, Tolerance(*tol), panels)]
            elif kind == "logdet_factor":
                d = rng.randrange(3, 401, 2)
                args = (d, rng.randint(0, (d - 3) // 2))
                outs = [": " + _factor(*args, Tolerance(*tol), panels)]
            else:
                args, f = _random_rows(rng)
                outs = _batch(kind, args, f, Tolerance(*tol))
            yield from (f"fuzz {kind}{args} at Tolerance{tol}{out}" for out in outs)


def main() -> None:
    warnings.simplefilter("error")  # so that a warning is an outcome, not a stray line
    panels = []
    integrals = spectral._integrals

    def counted(*args, **kwargs):
        rows = integrals(*args, **kwargs)
        panels.append(int(rows[3].sum()))
        return rows

    spectral._integrals = counted
    print(header())
    for line in chain(route_lines(panels), factor_lines(panels), integrand_lines(), batch_lines(),
                      cli_lines(), fuzz_lines(panels)):
        print(line)


if __name__ == "__main__":
    main()
