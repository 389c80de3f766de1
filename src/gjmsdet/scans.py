"""Parameter scans over (d, k) and flat-file emission: CSV rows and a
minimal standalone SVG polyline chart.

Rows are produced in deterministic (d, k, method) order.  CSV values are
written with 17 significant digits so a round trip through text reproduces
the exact binary64 values.

A scan holds at most ``MAX_SCAN_POINTS`` (100000) points: ``scan_k``,
``scan_limiting`` and ``scan_paneitz`` count their points arithmetically,
after checking their dimensions and before they build any ``SpherePoint``,
and raise UnsupportedArgumentError past it (the CLI exits 2).  At a few
hundred microseconds a route call, the largest scan takes about a minute
per route.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Optional, Sequence

from .errors import MethodDisagreementError, ParameterError, UnsupportedArgumentError
from .exact import Record, _named, require_integer, require_point, select_methods
from .quadrature import Tolerance
from .spectral import SpherePoint, logdet

__all__ = [
    "ScanRow",
    "CSV_HEADER",
    "MAX_SCAN_POINTS",
    "select_methods",
    "compute_rows",
    "scan_k",
    "scan_limiting",
    "scan_paneitz",
    "max_pairwise_discrepancy",
    "check_method_agreement",
    "format_csv",
    "write_csv",
    "parse_csv",
    "read_csv",
    "write_svg",
]

CSV_HEADER = "d,k,method,value,err_estimate"

# the most points a scan holds (see the module docstring)
MAX_SCAN_POINTS = 100_000

# Agreement guard for --method all: pairwise spread must stay within
# max(1e-9 absolute, 1e-8 relative to the largest magnitude).
_AGREE_ABS = 1e-9
_AGREE_REL = 1e-8


class ScanRow(Record):
    __slots__ = ("d", "k", "method", "value", "err_estimate")


def max_pairwise_discrepancy(values: Sequence[float]) -> float:
    return max(values) - min(values) if len(values) > 1 else 0.0


def check_method_agreement(rows: Sequence[ScanRow]) -> None:
    """Guard scans that computed several methods per point: raise
    MethodDisagreementError if any point's pairwise spread exceeds the
    agreement tolerance."""
    by_point: dict[tuple[int, int], list[tuple[str, float]]] = {}
    for row in rows:
        by_point.setdefault((row.d, row.k), []).append((row.method, row.value))
    for (d, k), pairs in by_point.items():
        values = [v for _, v in pairs]
        disc = max_pairwise_discrepancy(values)
        allowed = max(_AGREE_ABS, _AGREE_REL * max(abs(v) for v in values))
        if disc > allowed:
            raise MethodDisagreementError(d, k, disc, allowed, pairs)


def compute_rows(
    points: Iterable[SpherePoint],
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> list[ScanRow]:
    """Evaluate the requested method(s) at each point, in (d, k) order.
    A point that is not a SpherePoint raises ParameterError."""
    methods = select_methods(method)
    points = list(points)
    for point in points:
        require_point(point)
    rows = []
    for point in sorted(points, key=lambda p: (p.d, p.k)):
        for tag in methods:
            res = logdet(point, tag, tolerance)
            rows.append(
                ScanRow(point.d, point.k, res.method, res.value, res.err_estimate)
            )
    if len(methods) > 1:
        check_method_agreement(rows)
    return rows


def scan_k(
    d: int, method: str = "direct", tolerance: Optional[Tolerance] = None
) -> list[ScanRow]:
    """All allowed orders k = 1 .. (d-1)/2 at fixed dimension d."""
    SpherePoint(d, 1)  # refuses a d that is not an odd integer >= 3
    count = _bounded((d - 1) // 2)
    return compute_rows([SpherePoint(d, k) for k in range(1, count + 1)], method, tolerance)


def _bounded(count: int) -> int:
    """``count``, a scan's number of points, or UnsupportedArgumentError
    past MAX_SCAN_POINTS."""
    if count > MAX_SCAN_POINTS:
        raise UnsupportedArgumentError(
            f"{_named('scan point count', count)} is past the limit of {MAX_SCAN_POINTS}"
        )
    return count


def _odd_range(d_min: int, d_max: int) -> range:
    if d_min % 2 == 0 or d_max % 2 == 0:
        raise ParameterError("d must be odd and >= 3")
    if d_min < 3 or d_max < d_min:
        raise ParameterError("need 3 <= d_min <= d_max")
    require_integer("d", d_min)
    require_integer("d", d_max)
    _bounded((d_max - d_min) // 2 + 1)
    return range(d_min, d_max + 1, 2)


def scan_limiting(
    d_min: int = 3,
    d_max: int = 21,
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> list[ScanRow]:
    """The limiting order k = (d-1)/2 across a range of odd dimensions."""
    points = [SpherePoint(d, (d - 1) // 2) for d in _odd_range(d_min, d_max)]
    return compute_rows(points, method, tolerance)


def scan_paneitz(
    d_min: int = 5,
    d_max: int = 21,
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> list[ScanRow]:
    """The fourth-order (k = 2) operator across a range of odd dimensions.

    The magnitudes oscillate about zero and shrink as d grows, so the
    determinant tends to unity with increasing dimension.
    """
    if d_min < 5:
        raise ParameterError("k = 2 needs d >= 5")
    points = [SpherePoint(d, 2) for d in _odd_range(d_min, d_max)]
    return compute_rows(points, method, tolerance)


def format_csv(rows: Sequence[ScanRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.d},{r.k},{r.method},{r.value:.17g},{r.err_estimate:.17g}")
    return "\n".join(lines) + "\n"


def write_csv(path: str, rows: Sequence[ScanRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows))


def parse_csv(text: str) -> list[ScanRow]:
    """The rows of a ``format_csv`` text, blank lines skipped.  A malformed
    row raises ParameterError naming its 1-based line."""
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), 1) if ln]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ParameterError(f"expected header {CSV_HEADER!r}")
    rows = []
    for n, ln in lines[1:]:
        try:
            d, k, method, value, err = ln.split(",")
            rows.append(ScanRow(int(d), int(k), method, float(value), float(err)))
        except ValueError:
            raise ParameterError(f"line {n}: malformed row {ln!r}") from None
    return rows


def read_csv(path: str) -> list[ScanRow]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_csv(fh.read())


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi], lo < hi, with a 1-2-5 step
    that gives at most five intervals."""
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / 5))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= 5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(
    path: str,
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a standalone SVG 1.1 polyline chart of ys against xs.

    Deliberately minimal: one polyline with point markers, a frame, and
    labelled axis ticks.  Enough to eyeball a scan's shape, nothing more.
    The labels are text, escaped for XML.
    Raises ParameterError, before the file is opened, on unequal or empty
    input, a non-finite value, or an axis whose padded range passes binary64.
    """
    if len(xs) != len(ys) or not xs:
        raise ParameterError("xs and ys must be equal-length and non-empty")
    if not all(map(math.isfinite, [*xs, *ys])):
        raise ParameterError("xs and ys must be finite")
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 72.0, 18.0, 18.0, 48.0

    def _bounds(vals):
        lo, hi = min(vals), max(vals)
        pad = abs(lo) * 0.1 if lo == hi else (hi - lo) * 0.05
        # A subnormal pad (as at lo == hi == 0) or one lost to rounding (a range
        # a few ulps wide) leaves a width the ticks cannot resolve.
        if pad < sys.float_info.min or lo - pad == lo or hi + pad == hi:
            pad = max(abs(lo) * 0.1, 1.0)
        lo, hi = lo - pad, hi + pad
        if not math.isfinite(hi - lo):
            raise ParameterError("xs and ys must span a range binary64 holds after padding")
        return lo, hi

    x_lo, x_hi = _bounds(xs)
    y_lo, y_hi = _bounds(ys)

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{width - ml - mr:g}" '
        f'height="{height - mt - mb:g}" fill="none" stroke="black"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb:.2f}" '
            f'x2="{x:.2f}" y2="{height - mb + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{y:.2f}" '
            f'x2="{ml:.2f}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_fmt_tick(t)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" '
            f'font-size="12" text-anchor="middle">{_xml_text(x_label)}</text>'
        )
    if y_label:
        cx, cy = 16.0, (mt + height - mb) / 2
        parts.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 {cx:.2f} {cy:.2f})">'
            f"{_xml_text(y_label)}</text>"
        )
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="#1f77b4"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
