"""Inputs of the two workloads, drawn from a seed, and the frozen oracle.

Kept free of any import of the package, so the oracle generator and the
set-up probe can load it without paying for (or timing) that import.
"""

from __future__ import annotations

import json
import os
import random

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

# The 17 points of scan_k(35), which the `cli` workload's scan-k prints.
SCAN_35 = tuple((35, k) for k in range(1, 18))

# Diagonal k = (d-1)/2.  The seed draws one odd d from each of seven narrow
# strata spread over [65, 1023].  A pass costs about the same for every seed
# (the cost of `sum` and `product_rule` grows with k, and a stratum spans only
# 16 in d), the middle stratum holds the median call for every seed, and the
# top stratum holds the tail.
DIAGONAL_STRATA = tuple(
    tuple(range(lo, lo + 17, 2)) for lo in (65, 217, 377, 537, 697, 857, 1007)
)

# (d, k) values the `cli` workload's eval and closed-form print.
CLI_POINTS = ((5, 2), (7, 2), (1025, 512))


def diagonal_points(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    points = [(d, (d - 1) // 2) for d in (rng.choice(s) for s in DIAGONAL_STRATA)]
    rng.shuffle(points)
    return points


WORKLOAD_POINTS = {"diagonal": diagonal_points}


def oracle_points() -> list[tuple[int, int]]:
    """Every (d, k) any seed of any workload can ask the oracle about."""
    diagonal = [(d, (d - 1) // 2) for s in DIAGONAL_STRATA for d in s]
    return sorted(set(SCAN_35) | set(diagonal) | set(CLI_POINTS))


def load_oracle() -> dict[tuple[int, int], float]:
    """The frozen reference value of every point in ``oracle_points()``."""
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)["logdet"]
    return {
        tuple(int(part) for part in key.split(",")): float(value)
        for key, value in table.items()
    }
