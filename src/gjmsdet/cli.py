"""Command-line front end.

Commands: eval, scan-k, limiting, paneitz, rules, closed-form.
Exit codes: 0 success, 2 usage or validation, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .chebyshev import v_coefficients
from .errors import (
    AccuracyError,
    DivergentIntegralError,
    EvaluationError,
    InternalConsistencyError,
    ParameterError,
    UnsupportedArgumentError,
)
from .exact import METHOD_SELECTORS, SpherePoint, closed_form_p4

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def __getattr__(name: str):
    # Kept for the tracer in perfbench/spans.py, which reads and rebinds these
    # three names, until ROADMAP item 4.  The commands do not use them.
    if name not in ("logdet", "write_csv", "write_svg"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import scans

    return getattr(scans, name)


def _tolerance(args):
    """The ``--tol`` Tolerance.  The commands that integrate import it and
    ``scans`` as they run: both load numpy, which ``rules`` and
    ``closed-form`` do without."""
    from .quadrature import Tolerance

    return Tolerance() if args.tol is None else Tolerance(args.tol)


def _cmd_eval(args) -> int:
    from .scans import compute_rows, max_pairwise_discrepancy

    point = SpherePoint(args.d, args.k)
    rows = compute_rows([point], args.method, _tolerance(args))
    print(f"d={point.d} k={point.k}")
    for row in rows:
        print(f"{row.method:<13} {row.value:.17g}   err {row.err_estimate:.3g}")
    if len(rows) > 1:
        spread = max_pairwise_discrepancy([row.value for row in rows])
        print(f"max pairwise discrepancy: {spread:.3g}")
    return EXIT_OK


def _emit_rows(args, rows, x_of_row, x_label: str) -> int:
    from .scans import format_csv, write_csv, write_svg

    if args.out:
        write_csv(args.out, rows)
    else:
        sys.stdout.write(format_csv(rows))
    if args.svg:
        # one polyline per chart: with several methods, plot the first tag
        tag = rows[0].method
        line = [r for r in rows if r.method == tag]
        write_svg(
            args.svg,
            [x_of_row(r) for r in line],
            [r.value for r in line],
            x_label=x_label,
            y_label="log det",
        )
    return EXIT_OK


def _cmd_scan_k(args) -> int:
    from .scans import scan_k

    rows = scan_k(args.d, args.method, _tolerance(args))
    return _emit_rows(args, rows, lambda r: r.k, "k")


def _cmd_limiting(args) -> int:
    from .scans import scan_limiting

    rows = scan_limiting(args.d_min, args.d_max, args.method, _tolerance(args))
    return _emit_rows(args, rows, lambda r: r.d, "d")


def _cmd_paneitz(args) -> int:
    from .scans import scan_paneitz

    rows = scan_paneitz(args.d_min, args.d_max, args.method, _tolerance(args))
    return _emit_rows(args, rows, lambda r: r.d, "d")


def _cmd_rules(args) -> int:
    rule = v_coefficients(args.k)
    factors = []
    for j, power in enumerate(rule.v):
        dim = "d" if j == 0 else f"d-{2 * j}"
        factors.append(f"P_2^{power}({dim})")
    print(f"P_{2 * args.k}(d) ~ " + " ".join(factors))
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    dims = (args.d,) if args.d is not None else (5, 7)
    for d in dims:
        res = closed_form_p4(d)
        print(
            f"closed_form d={d} k=2: {res.value:.17g}   err {res.err_estimate:.3g}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjmsdet",
        description=(
            "Log-determinants of scalar GJMS operators on odd-dimensional "
            "round spheres, by four mutually checking evaluation routes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument(
            "--tol", type=float, default=None,
            help="relative quadrature tolerance",
        )

    def add_output(p):
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("--svg", default=None, help="also write an SVG chart here")

    def add_method(p, default="direct"):
        p.add_argument(
            "--method", default=default,
            choices=[s for s in METHOD_SELECTORS if s != "product_rule"],
            help=f"evaluation route (default {default})",
        )

    p = sub.add_parser("eval", help="evaluate one (d, k) point")
    p.add_argument("--d", type=int, required=True, help="odd sphere dimension >= 3")
    p.add_argument("--k", type=int, required=True, help="order, 1 <= k <= (d-1)/2")
    add_method(p, default="all")
    add_tol(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scan-k", help="all allowed k at fixed d")
    p.add_argument("--d", type=int, required=True)
    add_method(p)
    add_tol(p)
    add_output(p)
    p.set_defaults(func=_cmd_scan_k)

    p = sub.add_parser("limiting", help="k = (d-1)/2 over a dimension range")
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=21)
    add_method(p)
    add_tol(p)
    add_output(p)
    p.set_defaults(func=_cmd_limiting)

    p = sub.add_parser("paneitz", help="k = 2 over a dimension range")
    p.add_argument("--d-min", type=int, default=5)
    p.add_argument("--d-max", type=int, default=21)
    add_method(p)
    add_tol(p)
    add_output(p)
    p.set_defaults(func=_cmd_paneitz)

    p = sub.add_parser("rules", help="print the determinant product rule for k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("closed-form", help="closed forms for k = 2, d = 5 and 7")
    p.add_argument("--d", type=int, default=None, choices=(5, 7))
    p.set_defaults(func=_cmd_closed_form)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, UnsupportedArgumentError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, EvaluationError, InternalConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
