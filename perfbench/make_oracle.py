"""Regenerate the frozen oracle table ``oracle.json``.

    python3 perfbench/make_oracle.py

Every value comes from ``logdet_reference`` in ``tests/_oracles.py``: mpmath
tanh-sinh quadrature at 40 significant digits, which shares no code with the
package's Gauss-Legendre pipeline.  The benchmark itself only reads the
table, so it runs without mpmath.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import mpmath as mp  # noqa: E402
from _oracles import logdet_reference  # noqa: E402

from points import ORACLE_PATH, oracle_points  # noqa: E402

DIGITS = 30


def main() -> None:
    table = {
        f"{d},{k}": mp.nstr(logdet_reference(d, k), DIGITS)
        for d, k in oracle_points()
    }
    out = {
        "source": "tests/_oracles.py:logdet_reference",
        "mpmath_dps": mp.mp.dps,
        "digits": DIGITS,
        "logdet": table,
    }
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
