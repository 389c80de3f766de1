"""Time the package of two checkouts against each other, in one process:

    python tools/ab.py PARENT_DIR CHANGE_DIR [--pairs 150]

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
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

DIAGONAL = (65, 225, 385, 545, 705, 865, 1015)
SAMPLE_S = 0.005
WARM_UP = 2


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
    parts = ("spectral", "scans", "errors")
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=150)
    args = parser.parse_args(argv)
    trees = [cases(load(tree, f"gjmsdet_{side}"))
             for tree, side in ((args.parent, "parent"), (args.change, "change"))]
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


if __name__ == "__main__":
    main()
