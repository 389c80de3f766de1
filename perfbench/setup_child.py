"""Set-up of the in-process workload in a fresh interpreter: the package
import plus the first pass over the workload, which fills the caches.
Prints the seconds both took.

    PYTHONPATH=src python3 perfbench/setup_child.py diagonal SEED
"""

from __future__ import annotations

import sys
import time

import points


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = points.WORKLOAD_POINTS[workload](seed)
    oracle = points.load_oracle()
    start = time.perf_counter()
    import gjmsdet  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads  # the benchmark's own code, not timed

    start = time.perf_counter()
    workloads.IN_PROCESS_PASSES[workload](inputs, oracle, workloads.Tally())
    print(import_s + time.perf_counter() - start)


if __name__ == "__main__":
    main()
