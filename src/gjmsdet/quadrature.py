"""Adaptive composite Gauss-Legendre integration on [0, inf), row-batched.

Intended for smooth integrands decaying exponentially: |f(x)| <= C e^(-L x)
for x beyond some x0.  The semi-infinite range is truncated at a point X
where the analytic envelope bound on the discarded tail,

    int_X^inf C e^(-L x) dx = C e^(-L X) / L,

drops below tolerance; that bound is folded into the reported error
estimate rather than silently ignored.  The constant C is carried as log C,
so envelopes far outside the binary64 range (2^(d-1) at d > 1024) still give
a finite truncation point and tail bound.

Integrands are supplied in log-magnitude-plus-sign form: the evaluator
receives an ndarray of abscissas and returns ``(log|f|, sign)``.  This keeps
factors like cosh^(d+1)(x/2) representable where the plain product would
overflow binary64 long before the integrand itself stops being tiny.

The scheme is a fixed 32-node Gauss rule per panel with bisection
refinement: a panel is accepted when its one-panel value and the sum over
its two halves agree within the panel's share of the error budget, and the
two-level difference is charged to the estimate.

``integrate_rows`` runs R independent integrals in lock-step sweeps.  Each
row keeps the state a lone integral has: its truncation point and tail
bound, its initial breaks, its target and per-panel budgets, and its count
of panels evaluated.  The unresolved (row, panel) pairs of every row sit in
flat arrays beside a row index, so one sweep bisects the panels of all rows
and evaluates their children with vectorised calls ``f(x, row)``, a fixed
number of panels at a time so memory stays flat.  Acceptance is decided per
panel against its own row's budget, and a row's value is the exactly rounded
(fsum) sum of its accepted panels, so every row returns the same value and
panel count as when it is integrated alone.  ``integrate_semi_infinite`` is
the one-row call.

There are no randomized abscissas; identical inputs give bit-identical
results.  Everything here is stateless and safe to call concurrently as long
as the integrand itself is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from .errors import AccuracyError, DivergentIntegralError, EvaluationError, ParameterError

__all__ = [
    "Tolerance",
    "Envelopes",
    "QuadratureSpec",
    "IntegralResult",
    "LogIntegrand",
    "RowIntegrand",
    "truncation_point",
    "integrate_rows",
    "integrate_semi_infinite",
]

LogIntegrand = Callable[[np.ndarray], Tuple[np.ndarray, Union[np.ndarray, float]]]
RowIntegrand = Callable[
    [np.ndarray, np.ndarray], Tuple[np.ndarray, Union[np.ndarray, float]]
]

_GAUSS_ORDER = 32
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_EPS = float(np.finfo(float).eps)
_MIN_TRUNCATION = 10.0
_TAIL_TOL_FLOOR = 1e-300
# Panels per integrand call: 4096 abscissas, so each temporary of one call
# stays at 32 KB whatever the batch size.
_CHUNK_PANELS = 128


@dataclass(frozen=True)
class Tolerance:
    """Accuracy target and budget of an integral, shared by every row of a
    batch.  ``rel_tol`` is the target relative error, ``abs_tol`` an
    absolute floor used both for near-zero integrals and for choosing the
    truncation point, ``max_panels`` the number of 32-node panel evaluations
    each row may spend."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_panels: int = 4096

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise ParameterError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ParameterError("abs_tol must be non-negative")
        if self.max_panels < 4:
            raise ParameterError("max_panels must allow at least a few panels")


class Envelopes:
    """Decay envelopes of R integrands, one row each:
    |f_r(x)| <= exp(log_const[r]) * e^(-rate[r] x) for x >= start[r].

    Scalars broadcast against the arrays; the attributes are 1-D float
    arrays of the common length R.
    """

    __slots__ = ("log_const", "rate", "start")

    def __init__(self, log_const, rate, start=0.0) -> None:
        fields = [np.array(v, dtype=float, ndmin=1) for v in (log_const, rate, start)]
        n_rows = max(v.size for v in fields)
        if n_rows == 0 or any(v.ndim != 1 or v.size not in (1, n_rows) for v in fields):
            raise ParameterError("envelope fields must be scalars or 1-D arrays of one length")
        self.log_const, self.rate, self.start = (
            v if v.size == n_rows else np.full(n_rows, v[0]) for v in fields
        )
        # NaN fails every comparison, so min and max reject it too
        if not self.rate.min() > 0:
            raise DivergentIntegralError("decay_rate must be positive")
        if not np.abs(self.log_const).max() < np.inf:
            raise ParameterError("envelope constants must be positive and finite")
        if not (self.start.min() >= 0 and self.start.max() < np.inf):
            raise ParameterError("env_start must be non-negative")

    def __len__(self) -> int:
        return self.rate.size


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, budget and decay envelope for one semi-infinite integral:
    the argument of ``integrate_semi_infinite`` and nothing else.  The
    log-determinant routes, the scans and the CLI take a ``Tolerance``, as
    each route knows its own integrand's envelope.

    ``decay_rate`` is the exponent L of the envelope |f(x)| <= env_const *
    e^(-L x), valid for x >= env_start.  ``rel_tol``, ``abs_tol`` and
    ``max_panels`` are as in ``Tolerance``.
    """

    decay_rate: float
    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_panels: int = 4096
    env_const: float = 1.0
    env_start: float = 0.0

    def __post_init__(self) -> None:
        if self.decay_rate <= 0:
            raise DivergentIntegralError("decay_rate must be positive")
        self.tolerance  # validates the tolerance fields
        if self.env_const <= 0:
            raise ParameterError("env_const must be positive")
        if self.env_start < 0:
            raise ParameterError("env_start must be non-negative")

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.rel_tol, self.abs_tol, self.max_panels)

    @property
    def envelope(self) -> Envelopes:
        """The one-row envelope of this spec."""
        return Envelopes(math.log(self.env_const), self.decay_rate, self.env_start)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    err_estimate: float
    panels_used: int
    truncation_point: float

    def __post_init__(self) -> None:
        if self.err_estimate < 0 or self.truncation_point <= 0:
            raise ParameterError("malformed integral result")


def _truncation(log_c, decay_rate, tol: float):
    """truncation_point from log(c_bound), elementwise over arrays."""
    x = (log_c - np.log(decay_rate) - math.log(tol)) / decay_rate
    return np.maximum(x, _MIN_TRUNCATION)


def truncation_point(c_bound: float, decay_rate: float, tol: float) -> float:
    """Smallest X with c_bound * e^(-decay_rate * X) / decay_rate <= tol,
    clamped below at 10.

    The left side bounds the discarded tail of any integrand satisfying the
    envelope, so integrating on [0, X] loses at most ``tol``.
    """
    if decay_rate <= 0:
        raise DivergentIntegralError("decay_rate must be positive")
    if c_bound <= 0 or tol <= 0:
        raise ParameterError("c_bound and tol must be positive")
    return float(_truncation(math.log(c_bound), decay_rate, tol))


def _eval_chunk(f: RowIntegrand, lo: np.ndarray, hi: np.ndarray, row: np.ndarray):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _NODES
    logmag, sign = f(x.reshape(-1), row.repeat(_GAUSS_ORDER))
    logmag = np.asarray(logmag, dtype=float).reshape(x.shape)
    fx = np.exp(logmag)
    sign = np.asarray(sign, dtype=float)
    if sign.ndim:
        fx *= sign.reshape(x.shape)
    elif sign != 1.0:
        fx *= sign
    weighted = fx * _WEIGHTS
    vals = weighted.sum(axis=1) * half
    mass = np.abs(weighted, out=weighted).sum(axis=1) * half
    # A NaN or infinite sample, or a panel sum past binary64, leaves its
    # panel's mass non-finite, so one check on the masses guards them all.
    bad = ~np.isfinite(mass)
    if np.count_nonzero(bad):
        _raise_non_finite(x[bad], logmag[bad], fx[bad], float(center[bad][0]))
    return vals, mass


def _raise_non_finite(x, logmag, fx, center: float):
    """The EvaluationError for panels whose mass is not finite, naming the
    first offending abscissa."""
    bad = np.isnan(logmag) | (logmag == np.inf)
    if bad.any():
        raise EvaluationError("integrand log-magnitude is not finite", float(x[bad][0]))
    bad = ~np.isfinite(fx)
    if bad.any():
        raise EvaluationError("integrand value overflowed", float(x[bad][0]))
    raise EvaluationError("panel Gauss sum overflowed", center)


def _eval_panels(f: RowIntegrand, lo: np.ndarray, hi: np.ndarray, row: np.ndarray):
    """Gauss values of row ``row[i]``'s integrand over each [lo_i, hi_i]; also
    the absolute mass sum |w f| h of each panel, used for the round-off
    floor.  Evaluated _CHUNK_PANELS panels at a time."""
    if lo.size <= _CHUNK_PANELS:
        return _eval_chunk(f, lo, hi, row)
    vals = np.empty(lo.size)
    mass = np.empty(lo.size)
    for s in range(0, lo.size, _CHUNK_PANELS):
        e = s + _CHUNK_PANELS
        vals[s:e], mass[s:e] = _eval_chunk(f, lo[s:e], hi[s:e], row[s:e])
    return vals, mass


def _initial_panels(x_max: np.ndarray):
    """Each row's first panels, [0, 1], [1, 2], [2, 4], ..., [2^m, x_max]
    with 2^m < x_max <= 2^(m+1), flattened: (lo, hi, row, panels per row)."""
    mant, exp = np.frexp(x_max)  # x_max = mant 2^exp, 1/2 <= mant < 1
    counts = exp + 1 - (mant == 0.5)
    ends = counts.cumsum()
    row = np.arange(x_max.size).repeat(counts)
    hi = np.ldexp(1.0, np.arange(ends[-1]) - (ends - counts)[row])
    lo = 0.5 * hi
    lo[ends - counts] = 0.0
    hi[ends - 1] = x_max
    return lo, hi, row, counts


def _row_sums(vals: np.ndarray, counts: np.ndarray):
    """Sum and largest magnitude of each row's initial panel values, summed
    as a lone integral sums them: rows with equal panel counts share one 2-D
    sum, which adds each row in the same order as a 1-D sum of that row."""
    if counts.size == 1:
        return vals.sum(keepdims=True), np.abs(vals).max(keepdims=True)
    starts = counts.cumsum() - counts
    rough = np.empty(counts.size)
    peak = np.empty(counts.size)
    for n in set(counts.tolist()):
        rows = np.flatnonzero(counts == n)
        seg = vals[starts[rows, None] + np.arange(n)]
        rough[rows] = seg.sum(axis=1)
        peak[rows] = np.abs(seg).max(axis=1)
    return rough, peak


def _fsum(values: List[float], at: float) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise EvaluationError("integral overflowed up to the truncation point", at) from None


def integrate_rows(
    f: RowIntegrand, envelopes: Envelopes, tolerance: Tolerance
) -> List[IntegralResult]:
    """Approximate int_0^inf f_r(x) dx for every row r of ``envelopes``.

    ``f(x, row)`` evaluates, at each abscissa x[i], the integrand of row
    row[i] and returns ``(log|f|, sign)``.  Returns one IntegralResult per
    row, each identical to what the row would give integrated alone; its
    ``err_estimate`` adds three honest contributions: the accepted
    two-level panel differences, the analytic tail bound at the truncation
    point, and a round-off floor proportional to the absolute Gauss mass.

    Raises AccuracyError when a row runs out of ``tolerance.max_panels``
    first, for the lowest such row and carrying its best value and
    estimate; EvaluationError on a non-finite integrand sample or a panel
    sum or integral that overflows binary64.  Overflow is reported by that
    error alone: numpy's overflow warnings are silenced for the call.
    """
    with np.errstate(over="ignore"):
        return _integrate_rows(f, envelopes, tolerance)


def _integrate_rows(
    f: RowIntegrand, envelopes: Envelopes, tolerance: Tolerance
) -> List[IntegralResult]:
    n_rows = len(envelopes)
    log_c, rate = envelopes.log_const, envelopes.rate
    tail_tol = max(tolerance.abs_tol, _TAIL_TOL_FLOOR)
    x_max = np.maximum(_truncation(log_c, rate, tail_tol), envelopes.start)
    tail = np.exp(log_c - rate * x_max) / rate

    lo, hi, row, counts = _initial_panels(x_max)
    vals, _ = _eval_panels(f, lo, hi, row)
    panels = counts.copy()

    rough, peak = _row_sums(vals, counts)
    target = np.maximum(
        tolerance.abs_tol, tolerance.rel_tol * np.maximum(np.abs(rough), peak)
    )
    budgets = (target / counts)[row]

    min_width = 1e-12 * np.maximum(1.0, x_max)
    accepted_vals: List[np.ndarray] = []
    accepted_rows: List[np.ndarray] = []
    accepted_err = np.zeros(n_rows)
    accepted_mass = np.zeros(n_rows)
    failures = {}

    while lo.size:
        needed = 2 * np.bincount(row, minlength=n_rows)
        over = (needed > 0) & (panels + needed > tolerance.max_panels)
        if np.count_nonzero(over):
            for r in np.flatnonzero(over).tolist():
                active = vals[row == r]
                done = [v[w == r] for v, w in zip(accepted_vals, accepted_rows)]
                failures[r] = AccuracyError(
                    "panel budget exhausted before tolerance was met",
                    value=_fsum(np.concatenate(done + [active]).tolist(), float(x_max[r])),
                    err_estimate=float(accepted_err[r] + np.abs(active).sum() + tail[r]),
                    panels_used=int(panels[r]),
                )
            keep = ~over[row]
            lo, hi, vals, row, budgets = lo[keep], hi[keep], vals[keep], row[keep], budgets[keep]
            if not lo.size:
                break
            needed[over] = 0
        panels += needed

        mid = 0.5 * (lo + hi)
        child_lo = lo.repeat(2)
        child_lo[1::2] = mid
        child_hi = hi.repeat(2)
        child_hi[0::2] = mid
        child_row = row.repeat(2)
        child_vals, child_mass = _eval_panels(f, child_lo, child_hi, child_row)

        pair = child_vals[0::2] + child_vals[1::2]
        delta = np.abs(vals - pair)
        accept = (delta <= budgets) | ((hi - lo) <= min_width[row])

        if np.count_nonzero(accept):
            taken = accept.repeat(2)
            accepted_vals.append(child_vals[taken])
            accepted_rows.append(child_row[taken])
            accepted_err += np.bincount(row[accept], delta[accept], n_rows)
            accepted_mass += np.bincount(child_row[taken], child_mass[taken], n_rows)

        rejected = ~accept
        taken = rejected.repeat(2)
        lo, hi, vals, row = child_lo[taken], child_hi[taken], child_vals[taken], child_row[taken]
        budgets = (budgets[rejected] * 0.5).repeat(2)

    if failures:
        raise failures[min(failures)]

    by_row = np.concatenate(accepted_vals)
    if n_rows == 1:
        leaves = np.array([by_row.size])
    else:
        all_rows = np.concatenate(accepted_rows)
        leaves = np.bincount(all_rows, minlength=n_rows)
        by_row = by_row[np.argsort(all_rows, kind="stable")]
    ends = leaves.cumsum().tolist()
    err = accepted_err + tail + 8.0 * _EPS * accepted_mass
    return [
        IntegralResult(
            value=_fsum(by_row[end - n:end].tolist(), x),
            err_estimate=e,
            panels_used=n,
            truncation_point=x,
        )
        for end, e, n, x in zip(ends, err.tolist(), leaves.tolist(), x_max.tolist())
    ]


def integrate_semi_infinite(f: LogIntegrand, spec: QuadratureSpec) -> IntegralResult:
    """Approximate int_0^inf f(x) dx for a log-magnitude-plus-sign integrand.

    The one-row case of ``integrate_rows``: ``f`` takes only the abscissas,
    and ``spec`` gives the envelope and the tolerance.  Returns an
    IntegralResult; raises AccuracyError (carrying the best value and
    estimate) when ``spec.max_panels`` runs out first, and EvaluationError on
    a non-finite integrand sample or an overflowing panel sum.
    """
    return integrate_rows(lambda x, row: f(x), spec.envelope, spec.tolerance)[0]
