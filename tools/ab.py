"""Time the package of two checkouts against each other:

    python tools/ab.py PARENT_DIR CHANGE_DIR [--pairs 150] [--record]

Each tree's ``src/gjmsdet`` is loaded under its own module name
(``gjmsdet_parent`` and ``gjmsdet_change``), so both run on one
interpreter and one numpy.  The timing runs twice, each time in a fresh
child interpreter: once with the parent loaded first and once with the
change loaded first, as the load order alone can move a ratio beyond its
quartiles.  In each child every case is timed in interleaved pairs: in
each pair both trees run it, the parent first in even pairs and the
change first in odd ones, and the pair gives the ratio of their times,
change/parent.  A sample repeats the case until it lasts about 5 ms (the
count is fixed once per child, from the parent's warm-up).  For each case
the tool prints the median ratio with its quartiles from each child, below
1 where the change is faster, the geometric mean of the two medians, and
each tree's median time per run of the case, pooled over both children.

The cases:
- ``diagonal``: every route called alone at k = (d-1)/2 for d in
  ``DIAGONAL``, one d from each stratum of perfbench's ``diagonal``
  workload; a typed refusal (``product_rule`` from d = 91) counts as a call;
- ``tail call (69, 34)``: the four routes at (69, 34), one call of that
  workload's tail stratum (d = 65..81), where ``sum`` and
  ``product_rule`` integrate 32 to 40 rows;
- ``direct`` at (35, 3), one row;
- ``sum`` at (1021, 510);
- ``product_rule`` at (81, 40);
- ``scan_k(35, "all")``.

With ``--record`` it also writes each tree's record of these samples to
the working directory, as ``BENCH_parent-<commit>.json`` and
``BENCH_change-<commit>.json`` (the first seven hex digits of the commit,
or ``src-`` and those of the source digest for a tree that is no git
checkout).  For each case a record holds the tree's median and quartiles
in ms per run over both children (``pairs`` samples each), and each
child's median and runs per sample, the parent-first child first; and the
provenance: the tree's commit and whether its ``src`` differs from it, a
SHA-256 of its ``src/gjmsdet`` sources, the Python and numpy versions,
numpy's SIMD targets (``numpy_simd.simd_targets``), the machine and its
CPU count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from numpy_simd import simd_targets

DIAGONAL = (65, 225, 385, 545, 705, 865, 1015)
SAMPLE_S = 0.005
WARM_UP = 2
SIDES = ("parent", "change")


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

    tail = point(69, 34)

    def tail_call():
        for method in spectral.METHODS:
            spectral.logdet(tail, method)

    return {
        "diagonal": diagonal_pass,
        "tail call (69, 34)": tail_call,
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


def repetitions(run) -> int:
    """Runs of ``run`` per sample, so that a sample lasts about SAMPLE_S."""
    warm = min(sample(run, 1) for _ in range(WARM_UP))
    return max(1, math.ceil(SAMPLE_S / warm))


def time_pairs(parent: str, change: str, parent_first: bool, pairs: int) -> dict:
    """Each case's pair ratios change/parent and each tree's seconds per
    run, timed in this process with the trees loaded in the order given."""
    trees = {side: Path(tree) for side, tree in zip(SIDES, (parent, change))}
    loaded = {side: load(trees[side], f"gjmsdet_{side}")
              for side in (SIDES if parent_first else SIDES[::-1])}
    runs = [cases(loaded[side]) for side in SIDES]
    reps = {}
    for name in runs[0]:
        reps[name] = repetitions(runs[0][name])
        repetitions(runs[1][name])  # warm the change up as much
    times = {name: ([], []) for name in reps}
    for pair in range(pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for name, n in reps.items():
            for side in order:
                times[name][side].append(sample(runs[side][name], n))
    return {name: {"ratios": [c / p for p, c in zip(*times[name])], "times": times[name],
                   "reps": reps[name]} for name in reps}


def in_child(*args) -> dict:
    """``time_pairs(*args)`` in a fresh interpreter of its own."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(time_pairs, *args).result()


def pooled(runs: list, name: str, side: int) -> dict:
    """One tree's record of case ``name``: its median and quartiles in ms
    per run over the samples of both children, each child's median, and
    each child's runs per sample."""
    per_child = [run[name]["times"][side] for run in runs]
    q1, median, q3 = (1e3 * v for v in statistics.quantiles(per_child[0] + per_child[1], n=4))
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3,
            "child_median_ms": [1e3 * statistics.median(times) for times in per_child],
            "runs_per_sample": [run[name]["reps"] for run in runs]}


def compare(parent: Path, change: Path, pairs: int, record: bool) -> int:
    """Time both trees in two children, one per load order, print each
    case's ratios and, with ``record``, write each tree's record."""
    runs = [in_child(str(parent), str(change), first, pairs) for first in (True, False)]
    print(f"{pairs} pairs in each of two processes; ratio change/parent: median [q1, q3] "
          "with the parent loaded first, then with the change loaded first; their "
          "geometric mean; median ms per run")
    records = {side: {name: pooled(runs, name, i) for name in runs[0]}
               for i, side in enumerate(SIDES)}
    for name in runs[0]:
        medians, shown = [], []
        for run in runs:
            q1, median, q3 = statistics.quantiles(run[name]["ratios"], n=4)
            medians.append(median)
            shown.append(f"{median:6.3f} [{q1:.3f}, {q3:.3f}]")
        ms = [records[side][name]["median_ms"] for side in SIDES]
        print(f"{name:22} {shown[0]}  {shown[1]}  mean {math.sqrt(medians[0] * medians[1]):6.3f}"
              f"   parent {ms[0]:8.3f}   change {ms[1]:8.3f}   x{runs[0][name]['reps']}")
    if record:
        for side, tree in zip(SIDES, (parent, change)):
            write_record(tree, side, pairs, records[side])
    return 0


def _git(tree: Path, *args) -> str:
    """The output of ``git args`` in ``tree``, or "" where git fails there."""
    try:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return ""
    return done.stdout.strip()


def provenance(tree: Path) -> dict:
    """Where the numbers of ``tree`` come from: its commit, whether its src
    differs from it, a digest of its sources, and the interpreter, numpy and
    machine that ran them."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "gjmsdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = _git(tree, "rev-parse", "HEAD")
    return {
        "commit": commit or None,
        "src_differs_from_commit": bool(_git(tree, "status", "--porcelain", "--", "src"))
        if commit else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_targets": simd_targets(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_record(tree: Path, side: str, pairs: int, timings: dict) -> None:
    """Write BENCH_<side>-<commit>.json: ``timings``, each case's record,
    with the provenance of ``tree``."""
    source = provenance(tree)
    commit = source["commit"]
    label = f"{side}-{commit[:7]}" if commit else f"{side}-src-{source['src_sha256'][:7]}"
    out = {"label": label, "pairs": pairs, "sample_s": SAMPLE_S, **source, "cases": timings}
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=150)
    parser.add_argument("--record", action="store_true",
                        help="also write each tree's timings as BENCH_<side>-<commit>.json")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change, args.pairs, args.record)


if __name__ == "__main__":
    sys.exit(main())
