"""Time the package of two checkouts against each other, in one process,
or compare their results bit for bit:

    python tools/ab.py PARENT_DIR CHANGE_DIR [--pairs 150]
    python tools/ab.py PARENT_DIR CHANGE_DIR --fuzz 1500 [--seed 0]

Each tree's ``src/gjmsdet`` is loaded under its own module name
(``gjmsdet_parent`` and ``gjmsdet_change``), so both run on one
interpreter and one numpy.  Every case is timed in interleaved pairs: in
each pair both trees run it, the parent first in even pairs and the change
first in odd ones, and the pair gives the ratio of their times,
change/parent.  A sample repeats the case until it lasts about 5 ms (the
count is fixed once, from the parent's warm-up).  For each case the tool
prints the median ratio with its quartiles, below 1 where the change is
faster, and each tree's median time per run of the case.

The cases:
- ``diagonal``: every route called alone at k = (d-1)/2 for d in
  ``DIAGONAL``, one d from each stratum of perfbench's ``diagonal``
  workload; a typed refusal (``product_rule`` from d = 91) counts as a call;
- ``direct`` at (35, 3), one row;
- ``sum`` at (1021, 510);
- ``product_rule`` at (81, 40);
- ``scan_k(35, "all")``.

With ``--fuzz N`` it times nothing: it makes N random calls, drawn from
``--seed``, on both trees and compares what each returns or raises, every
float by its hex form and every error by its class name, message and
arguments.  It prints the first call whose outcomes differ, with both
outcomes, and exits 1; else it exits 0.  The calls, each at a random
``Tolerance`` (rel_tol log-uniform in 1e-17..1e-2, abs_tol in ``ABS_TOLS``,
max_panels in ``MAX_PANELS``), are:
- ``logdet`` by a random route at a random point with d <= 400;
- ``logdet_factor`` at a random d <= 400 and valid j;
- ``integrate_rows`` on a batch of 1 to 12 random rows, plain
  (e^(s - L x) / (1 + x^2)^c) or signed (e^(s - L x) cos(w x));
- ``integrate_staged`` on such a batch through ``_PlainIntegrand``, with
  its ``failed`` flags.
Only names that both trees define are used.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DIAGONAL = (65, 225, 385, 545, 705, 865, 1015)
SAMPLE_S = 0.005
WARM_UP = 2
ABS_TOLS = (0.0, 1e-300, 1e-30, 1e-15, 1e-8)
MAX_PANELS = (4, 16, 64, 4096)


def load(tree: Path, name: str) -> dict:
    """The ``spectral``, ``scans`` and ``errors`` modules of the package in
    ``tree``/src/gjmsdet, imported under the package name ``name``."""
    package = tree / "src" / "gjmsdet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parts = ("spectral", "scans", "errors", "quadrature")
    return {part: importlib.import_module(f"{name}.{part}") for part in parts}


def cases(pkg: dict) -> dict:
    """Each case's name and a callable that runs it once on ``pkg``."""
    spectral, scans, errors = pkg["spectral"], pkg["scans"], pkg["errors"]
    refused = errors.UnsupportedArgumentError
    point = spectral.SpherePoint
    diagonal = [point(d, (d - 1) // 2) for d in DIAGONAL]

    def diagonal_pass():
        for p in diagonal:
            for method in spectral.METHODS:
                try:
                    spectral.logdet(p, method)
                except refused:
                    pass

    def route(p, method):
        return lambda: spectral.logdet(p, method)

    return {
        "diagonal": diagonal_pass,
        "direct (35, 3)": route(point(35, 3), "direct"),
        "sum (1021, 510)": route(point(1021, 510), "sum"),
        "product_rule (81, 40)": route(point(81, 40), "product_rule"),
        "scan_k(35, all)": lambda: scans.scan_k(35, "all"),
    }


def sample(run, reps: int) -> float:
    """Seconds per run of ``run``, over ``reps`` runs."""
    start = time.perf_counter()
    for _ in range(reps):
        run()
    return (time.perf_counter() - start) / reps


def _hex(values) -> list:
    """Each float of ``values`` (an array or a sequence) by its hex form."""
    return [float(v).hex() for v in values]


def _outcome(run) -> tuple:
    """What ``run()`` returns, through ``_hex`` where it is floats, or the
    class name, message and arguments of what it raises."""
    try:
        return ("=", run())
    except Exception as exc:  # every error is an outcome to compare
        return (type(exc).__name__, str(exc), repr(exc.args))


def _rows(rng: random.Random):
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


def fuzz_calls(count: int, seed: int) -> list:
    """``count`` random calls, each a description and a function of one
    tree's modules that makes the call and returns a comparable result."""
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        tol = (10.0 ** rng.uniform(-17.0, -2.0), rng.choice(ABS_TOLS), rng.choice(MAX_PANELS))
        kind = rng.choice(("logdet", "logdet_factor", "integrate_rows", "integrate_staged"))
        if kind == "logdet":
            d = rng.randrange(3, 401, 2)
            args = (d, rng.randint(1, (d - 1) // 2), rng.choice(("direct", "sum", "chebyshev",
                                                                "product_rule")))

            def call(pkg, args=args, tol=tol):
                spectral = pkg["spectral"]
                res = spectral.logdet(spectral.SpherePoint(*args[:2]), args[2],
                                      pkg["quadrature"].Tolerance(*tol))
                return _hex((res.value, res.err_estimate)) + [res.method]
        elif kind == "logdet_factor":
            d = rng.randrange(3, 401, 2)
            args = (d, rng.randint(0, (d - 3) // 2))

            def call(pkg, args=args, tol=tol):
                spectral = pkg["spectral"]
                factor = spectral.FactorIndex(args[1])
                return _hex([spectral.logdet_factor(args[0], factor,
                                                    pkg["quadrature"].Tolerance(*tol))])
        else:
            args, f = _rows(rng)

            def call(pkg, kind=kind, args=args, f=f, tol=tol):
                quad = pkg["quadrature"]
                env, tolerance = quad.Envelopes(*args), quad.Tolerance(*tol)
                if kind == "integrate_rows":
                    return [_hex((r.value, r.err_estimate, r.truncation_point)) + [r.panels_used]
                            for r in quad.integrate_rows(f, env, tolerance)]
                rows = quad.integrate_staged(quad._PlainIntegrand(f), env.log_const, env.rate,
                                             env.start, tolerance)
                return [_hex(rows.value), _hex(rows.err_estimate), _hex(rows.truncation_point),
                        rows.panels_used.tolist(), rows.failed.tolist()]
        calls.append((f"{kind}{args} at Tolerance{tol}", call))
    return calls


def fuzz(pkgs: list, count: int, seed: int) -> int:
    """Run ``count`` random calls on both trees; 1 at the first difference."""
    for i, (name, call) in enumerate(fuzz_calls(count, seed)):
        with np.errstate(all="ignore"):
            parent, change = (_outcome(lambda: call(pkg)) for pkg in pkgs)
        if parent != change:
            print(f"call {i}: {name}\n  parent {parent}\n  change {change}")
            return 1
    print(f"{count} calls (seed {seed}): no difference")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=150)
    parser.add_argument("--fuzz", type=int, metavar="N", help="compare N random calls instead")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    pkgs = [load(tree, f"gjmsdet_{side}")
            for tree, side in ((args.parent, "parent"), (args.change, "change"))]
    if args.fuzz is not None:
        return fuzz(pkgs, args.fuzz, args.seed)
    trees = [cases(pkg) for pkg in pkgs]
    reps = {}
    for name in trees[0]:
        warm = [min(sample(tree[name], 1) for _ in range(WARM_UP)) for tree in trees]
        reps[name] = max(1, math.ceil(SAMPLE_S / warm[0]))
    times = {name: ([], []) for name in reps}
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for name, n in reps.items():
            for side in order:
                times[name][side].append(sample(trees[side][name], n))
    print(f"{args.pairs} pairs; ratio change/parent: median [q1, q3]; median ms per run")
    for name, (parent, change) in times.items():
        q1, median, q3 = statistics.quantiles([c / p for p, c in zip(parent, change)], n=4)
        ms = [1e3 * statistics.median(side) for side in (parent, change)]
        print(f"{name:22} {median:6.3f} [{q1:.3f}, {q3:.3f}]   parent {ms[0]:8.3f}   "
              f"change {ms[1]:8.3f}   x{reps[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
