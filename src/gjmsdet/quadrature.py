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

Panels are also pruned: one starting at or past its envelope's start and
the point where the tail falls to eps b (eps the binary64 epsilon, b the
row's target over its initial panel count) is accepted unbisected, charged
its |value|, and the row's tail bound then runs from its first pruned panel.
Before the first sampling abs_tol, which no target is below, stands in for
the target, and the panels pruned then are never sampled.  A row that would
overrun its panel budget retires its unresolved panels the same way, kept
at their values and charged their |value|.

``integrate_rows`` runs R independent integrals in lock-step sweeps.  Each
row keeps the state a lone integral has: its truncation point and tail
bound, its initial breaks, its target and per-panel budgets, and its count
of panels evaluated.  The unresolved (row, panel) pairs of every row sit in
flat arrays beside a row index, so one sweep bisects the panels of all rows
and evaluates their children.  Acceptance is decided per panel against its
own row's budget, and a row's value is the exactly rounded (fsum) sum of its
accepted panels, so every row returns the same value and panel count as
when it is integrated alone.  ``integrate_semi_infinite`` is the one-row
call.

Rows of one batch often integrate over the same panels: their initial
panels [0, 1], [1, 2], [2, 4], ... coincide up to each row's last one, and
where several rows reject a panel they bisect it alike.  So every call
keeps, per sweep, a table of panels, and each pair carries an index into
it.  The first table holds those power-of-two panels once, then each row's
last panel; the children of a panel that several rows reject are made
once, and the table is compacted each sweep with a flag array and its cumsum.

The integrand is evaluated in two stages (``integrate_staged``): a shared
stage, once per table panel, computes the terms that do not depend on the
row, the abscissas being one of them only where the second stage needs
them; a per-pair stage, a fixed number of pairs at a time so memory stays
flat, gathers those terms and adds the row-dependent parts.  A plain
``f(x, row)`` is the two-stage integrand whose only shared term is x.
Splitting the work this way moves no value: pair order, budgets,
acceptance and each row's fsum are those of a lone call, so a row's result
is bit-identical to its lone call whatever it shares.

There are no randomized abscissas; identical inputs give bit-identical
results.  Everything here is stateless and safe to call concurrently as long
as the integrand itself is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Tuple, Union

import numpy as np

from .errors import AccuracyError, DivergentIntegralError, EvaluationError, ParameterError
from .exact import is_integer

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
    each row may spend.  ``rel_tol`` must be positive and finite,
    ``abs_tol`` finite and non-negative, ``max_panels`` an integer (an int
    or a numpy integer, stored as an int) of at least 4; anything else
    raises ParameterError."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-15
    max_panels: int = 4096

    def __post_init__(self) -> None:
        # written so that NaN, which fails every comparison, is rejected too
        if not 0 < self.rel_tol < math.inf:
            raise ParameterError("rel_tol must be positive and finite")
        if not 0 <= self.abs_tol < math.inf:
            raise ParameterError("abs_tol must be non-negative and finite")
        if not is_integer(self.max_panels):
            raise ParameterError("max_panels must be an integer")
        object.__setattr__(self, "max_panels", int(self.max_panels))
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
        if not (self.rate.min() > 0 and self.rate.max() < np.inf):
            raise DivergentIntegralError("decay_rate must be positive and finite")
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
        # written, as in Tolerance, so that NaN is rejected too
        if not 0 < self.decay_rate < math.inf:
            raise DivergentIntegralError("decay_rate must be positive and finite")
        # validates the tolerance fields and stores max_panels as an int
        object.__setattr__(self, "max_panels", self.tolerance.max_panels)
        if not 0 < self.env_const < math.inf:
            raise ParameterError("env_const must be positive and finite")
        if not 0 <= self.env_start < math.inf:
            raise ParameterError("env_start must be non-negative and finite")

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.rel_tol, self.abs_tol, self.max_panels)

    @property
    def envelope(self) -> Envelopes:
        """The one-row envelope of this spec."""
        return Envelopes(math.log(self.env_const), self.decay_rate, self.env_start)


@dataclass(frozen=True)
class IntegralResult:
    """``panels_used`` counts the panels sampled for the value (0 when the
    envelope bounds the whole integral); malformed fields raise ParameterError."""

    value: float
    err_estimate: float
    panels_used: int
    truncation_point: float

    def __post_init__(self) -> None:
        used = self.panels_used  # the comparisons reject NaN too
        if not (-math.inf < self.value < math.inf and 0 <= self.err_estimate < math.inf
                and 0 < self.truncation_point < math.inf and type(used) is int and used >= 0):
            raise ParameterError("malformed integral result")


def _truncation(log_c, decay_rate, log_tol, floor=_MIN_TRUNCATION):
    """Where the tail bound C e^(-L x) / L falls to e^log_tol, at least ``floor``."""
    return np.maximum((log_c - np.log(decay_rate) - log_tol) / decay_rate, floor)


def truncation_point(c_bound: float, decay_rate: float, tol: float) -> float:
    """Smallest X with c_bound * e^(-decay_rate * X) / decay_rate <= tol,
    clamped below at 10.

    The left side bounds the discarded tail of any integrand satisfying the
    envelope, so integrating on [0, X] loses at most ``tol``.
    """
    if not 0 < decay_rate < math.inf:
        raise DivergentIntegralError("decay_rate must be positive and finite")
    if not (0 < c_bound < math.inf and 0 < tol < math.inf):
        raise ParameterError("c_bound and tol must be positive and finite")
    return float(_truncation(math.log(c_bound), decay_rate, math.log(tol)))


class _PlainIntegrand:
    """A row integrand ``f(x, row)`` as a two-stage integrand that shares
    only the abscissas: it receives flat abscissas and rows, as
    ``integrate_rows`` promises."""

    __slots__ = ("f",)

    def __init__(self, f: RowIntegrand) -> None:
        self.f = f

    def shared(self, x: np.ndarray) -> Tuple[np.ndarray, ...]:
        return (x,)

    def per_pair(self, terms, row: np.ndarray):
        (x,) = terms
        return self.f(x.reshape(-1), row.repeat(x.shape[1]))


class RowArrays(NamedTuple):
    """What ``integrate_staged`` returns, one entry per row: the fields of
    ``IntegralResult`` as arrays."""

    value: np.ndarray
    err_estimate: np.ndarray
    panels_used: np.ndarray
    truncation_point: np.ndarray


def _abscissas(center: np.ndarray, half: np.ndarray) -> np.ndarray:
    return center[:, None] + half[:, None] * _NODES


def _eval_chunk(integrand, center, half, terms, pidx, row):
    """Gauss value and absolute mass of each of a chunk of pairs: pair i
    integrates row ``row[i]`` over table panel ``pidx[i]``, whose half-width
    and shared terms are gathered to it here (its abscissas only to name
    a non-finite sample)."""
    h = half[pidx]
    logmag, sign = integrand.per_pair([t[pidx] for t in terms], row[:, None])
    logmag = np.asarray(logmag, dtype=float).reshape(pidx.size, _GAUSS_ORDER)
    fx = np.exp(logmag)
    sign = np.asarray(sign, dtype=float)
    if sign.ndim:
        fx *= sign.reshape(fx.shape)
    elif sign != 1.0:
        fx *= sign
    fx *= _WEIGHTS
    vals = fx.sum(axis=1) * h
    # a scalar sign of 1 leaves every term positive, so the mass is the value
    mass = vals if sign.ndim == 0 and sign == 1.0 else np.abs(fx, out=fx).sum(axis=1) * h
    # A NaN or infinite sample, or a panel sum past binary64, leaves its
    # panel's mass non-finite, so one check on the masses guards them all.
    bad = ~np.isfinite(mass)
    if np.count_nonzero(bad):
        c = center[pidx[bad]]
        _raise_non_finite(_abscissas(c, h[bad]), logmag[bad], fx[bad], float(c[0]))
    return vals, mass


def _raise_non_finite(x, logmag, fx, center: float):
    """The EvaluationError for panels whose mass is not finite, naming the
    first offending abscissa.  ``fx`` holds |w f|, which is finite exactly
    where f is."""
    bad = np.isnan(logmag) | (logmag == np.inf)
    if bad.any():
        raise EvaluationError("integrand log-magnitude is not finite", float(x[bad][0]))
    bad = ~np.isfinite(fx)
    if bad.any():
        raise EvaluationError("integrand value overflowed", float(x[bad][0]))
    raise EvaluationError("panel Gauss sum overflowed", center)


def _shared_stage(integrand, center: np.ndarray, half: np.ndarray):
    """The shared stage at the abscissas of every panel of a table,
    _CHUNK_PANELS panels a call."""
    parts = [
        integrand.shared(_abscissas(center[s:s + _CHUNK_PANELS], half[s:s + _CHUNK_PANELS]))
        for s in range(0, center.size, _CHUNK_PANELS)
    ]
    return parts[0] if len(parts) == 1 else [np.concatenate(t) for t in zip(*parts)]


def _eval_panels(integrand, lo: np.ndarray, hi: np.ndarray, pidx: np.ndarray, row: np.ndarray):
    """Gauss values of each (row, panel) pair: pair i integrates row
    ``row[i]`` over table panel [lo, hi][pidx[i]].  Also the absolute mass
    sum |w f| h of each pair, used for the round-off floor.

    The shared stage runs once per table panel, the per-pair stage
    _CHUNK_PANELS pairs at a time on gathered shared terms."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    terms = _shared_stage(integrand, center, half)
    if row.size <= _CHUNK_PANELS:
        return _eval_chunk(integrand, center, half, terms, pidx, row)
    vals = np.empty(row.size)
    mass = np.empty(row.size)
    for s in range(0, row.size, _CHUNK_PANELS):
        e = s + _CHUNK_PANELS
        vals[s:e], mass[s:e] = _eval_chunk(integrand, center, half, terms, pidx[s:e], row[s:e])
    return vals, mass


def _initial_panels(x_max: np.ndarray):
    """Each row's first panels, [0, 1], [1, 2], [2, 4], ..., [2^m, x_max]
    with 2^m < x_max <= 2^(m+1): (lo, hi, pidx, row, panels per row).

    Pair i, of row row[i], is panel pidx[i] of the table (lo, hi).  With
    n + 1 the most panels of any row, the table holds [0, 1], [1, 2], ...,
    [2^(n-2), 2^(n-1)] once, shared by every row up to its own last panel,
    then each row's last panel in row order.  This relies on every x_max
    being at least _MIN_TRUNCATION = 10: every row then has at least 5
    panels, and a lone row's table is its own panels in order.
    """
    mant, exp = np.frexp(x_max)  # x_max = mant 2^exp, 1/2 <= mant < 1
    counts = exp + 1 - (mant == 0.5)
    n = int(counts.max()) - 1
    hi = np.ldexp(1.0, np.concatenate((np.arange(n), counts - 1)))
    lo = 0.5 * hi
    lo[0] = 0.0
    hi[n:] = x_max
    ends = counts.cumsum()
    row = np.arange(x_max.size).repeat(counts)
    pidx = np.arange(ends[-1]) - (ends - counts)[row]  # panel j of its row
    pidx[ends - 1] = np.arange(n, n + x_max.size)
    return lo, hi, pidx, row, counts


def _distinct(lo: np.ndarray, hi: np.ndarray, pidx: np.ndarray):
    """The table panels some pair points at, in table order, and the pairs'
    indices into them: a flag array and its cumsum, with no sort."""
    used = np.zeros(lo.size, dtype=bool)
    used[pidx] = True
    renumber = used.cumsum() - 1
    return lo[used], hi[used], renumber[pidx]


def _bisect(lo: np.ndarray, hi: np.ndarray, pidx: np.ndarray):
    """The halves of every table panel, left then right, and the indices of
    each pair's two children."""
    mid = 0.5 * (lo + hi)
    child_lo = lo.repeat(2)
    child_lo[1::2] = mid
    child_hi = hi.repeat(2)
    child_hi[0::2] = mid
    child_pidx = (2 * pidx).repeat(2)
    child_pidx[1::2] += 1
    return child_lo, child_hi, child_pidx


def _cutoffs(envelopes: Envelopes, tail: np.ndarray, bound):
    """Per row, where the envelope's tail falls to ``bound``, never before
    its start; None if no row's ``tail`` at its truncation point is below
    ``bound``, as then no panel can start past its cutoff."""
    if np.count_nonzero(tail < bound):
        return _truncation(envelopes.log_const, envelopes.rate, np.log(bound), envelopes.start)


def _past(lo: np.ndarray, pidx: np.ndarray, row: np.ndarray, cut):
    """Mask of the pairs starting at or past their row's cutoff, or None."""
    past = None if cut is None else lo[pidx] >= cut[row]
    return past if past is not None and np.count_nonzero(past) else None


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
    row[i] and returns ``(log|f|, sign)``; it receives at most
    _CHUNK_PANELS * 32 abscissas a call.  Returns one IntegralResult per
    row, each identical to what the row would give integrated alone; its
    ``err_estimate`` adds four honest contributions: the accepted two-level
    panel differences, the |value| of pruned panels, the analytic tail bound
    from the truncation point or the first pruned panel, and a round-off
    floor proportional to the absolute Gauss mass.

    Raises AccuracyError when a row runs out of ``tolerance.max_panels``
    first, for the lowest such row: its unresolved panels retire as pruned
    ones do, and the error carries the row's value and an estimate of the
    same four parts; EvaluationError on a non-finite integrand sample or a
    panel sum or integral that overflows binary64.  Overflow is reported by
    that error alone: numpy's overflow warnings are silenced for the call.
    """
    rows = integrate_staged(_PlainIntegrand(f), envelopes, tolerance)
    return [IntegralResult(*fields) for fields in zip(*(a.tolist() for a in rows))]


def integrate_staged(integrand, envelopes: Envelopes, tolerance: Tolerance) -> RowArrays:
    """``integrate_rows`` for a two-stage integrand, returning the rows'
    results as arrays rather than IntegralResult objects.

    ``integrand.shared(x)`` takes a 2-D array of abscissas, one panel a
    line, and returns a sequence of arrays of its shape: the terms every row
    shares, the abscissas among them if the second stage needs them.
    ``integrand.per_pair(terms, row)`` takes those terms gathered to the
    panels of a chunk of (row, panel) pairs and a column of their rows, and
    returns ``(log|f|, sign)``.  Each row's value, estimate and panel count,
    and every error raised, are those of evaluating both stages on the
    pairs' own abscissas.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return _integrate_rows(integrand, envelopes, tolerance)


def _integrate_rows(integrand, envelopes: Envelopes, tolerance: Tolerance) -> RowArrays:
    n_rows = len(envelopes)
    log_c, rate = envelopes.log_const, envelopes.rate
    tail_tol = max(tolerance.abs_tol, _TAIL_TOL_FLOOR)
    x_max = np.maximum(_truncation(log_c, rate, math.log(tail_tol)), envelopes.start)
    tail = np.exp(log_c - rate * x_max) / rate

    lo, hi, pidx, row, counts = _initial_panels(x_max)
    # unsampled panels enter valued 0.0; the first sweep, cutting no later, prunes them
    cut = _cutoffs(envelopes, tail, _EPS * (tolerance.abs_tol / counts))
    unsampled = _past(lo, pidx, row, cut)
    if unsampled is None:
        vals, unsampled = _eval_panels(integrand, lo, hi, pidx, row)[0], 0
    else:
        sampled, vals = ~unsampled, np.zeros(row.size)
        if np.count_nonzero(sampled):
            table = _distinct(lo, hi, pidx[sampled])
            vals[sampled] = _eval_panels(integrand, *table, row[sampled])[0]
        unsampled = np.bincount(row[unsampled], minlength=n_rows)
    panels = counts - unsampled

    # bincount adds each row's values in pair order, alone or in a batch
    rough = np.bincount(row, vals, n_rows)
    peak = np.zeros(n_rows)
    np.maximum.at(peak, row, np.abs(vals))
    target = np.maximum(
        tolerance.abs_tol, tolerance.rel_tol * np.maximum(np.abs(rough), peak)
    )
    budgets = (target / counts)[row]
    cut = _cutoffs(envelopes, tail, _EPS * (target / counts))

    min_width = 1e-12 * np.maximum(1.0, x_max)
    accepted_vals: List[np.ndarray] = []
    accepted_rows: List[np.ndarray] = []
    accepted_err = np.zeros(n_rows)
    accepted_mass = np.zeros(n_rows)
    failed = np.zeros(n_rows, dtype=bool)

    while row.size:
        retired = _past(lo, pidx, row, cut)
        if retired is not None:
            b_row = row[retired]
            b_lo, b_rate = lo[pidx[retired]], rate[b_row]
            # pruned panels run on to x_max, so the tail from the first covers all
            np.maximum.at(tail, b_row, np.exp(log_c[b_row] - b_rate * b_lo) / b_rate)
        needed = 2 * np.bincount(row if retired is None else row[~retired], minlength=n_rows)
        over = (needed > 0) & (panels + needed > tolerance.max_panels)
        if np.count_nonzero(over):
            # a row out of budget retires its pairs as pruned panels are retired
            failed |= over
            needed[over] = 0
            retired = over[row] if retired is None else retired | over[row]
        panels += needed
        if retired is not None:
            accepted_vals.append(vals[retired])
            accepted_rows.append(row[retired])
            accepted_err += np.bincount(row[retired], np.abs(vals[retired]), n_rows)
            kept = ~retired
            pidx, vals, row, budgets = pidx[kept], vals[kept], row[kept], budgets[kept]
            if not row.size:
                break

        lo, hi, pidx = _distinct(lo, hi, pidx)
        width = (hi - lo)[pidx]
        child_lo, child_hi, child_pidx = _bisect(lo, hi, pidx)
        child_row = row.repeat(2)
        child_vals, child_mass = _eval_panels(
            integrand, child_lo, child_hi, child_pidx, child_row
        )

        pair = child_vals[0::2] + child_vals[1::2]
        delta = np.abs(vals - pair)
        accept = (delta <= budgets) | (width <= min_width[row])

        if np.count_nonzero(accept):
            taken = accept.repeat(2)
            accepted_vals.append(child_vals[taken])
            accepted_rows.append(child_row[taken])
            accepted_err += np.bincount(row[accept], delta[accept], n_rows)
            accepted_mass += np.bincount(child_row[taken], child_mass[taken], n_rows)

        rejected = ~accept
        taken = rejected.repeat(2)
        lo, hi, pidx = child_lo, child_hi, child_pidx[taken]
        vals, row = child_vals[taken], child_row[taken]
        budgets = (budgets[rejected] * 0.5).repeat(2)

    all_rows = np.concatenate(accepted_rows)
    leaves = np.bincount(all_rows, minlength=n_rows)
    flat = np.concatenate(accepted_vals)[np.argsort(all_rows, kind="stable")].tolist()
    ends = leaves.cumsum().tolist()
    err = accepted_err + tail + 8.0 * _EPS * accepted_mass
    if np.count_nonzero(failed):
        r = int(failed.argmax())
        raise AccuracyError(
            "panel budget exhausted before tolerance was met",
            value=_fsum(flat[ends[r] - leaves[r]:ends[r]], float(x_max[r])),
            err_estimate=float(err[r]),
            panels_used=int(panels[r]),
        )
    value = np.array([
        _fsum(flat[end - n:end], x)
        for end, n, x in zip(ends, leaves.tolist(), x_max.tolist())
    ])
    return RowArrays(value, err, leaves - unsampled, x_max)


def integrate_semi_infinite(f: LogIntegrand, spec: QuadratureSpec) -> IntegralResult:
    """Approximate int_0^inf f(x) dx for a log-magnitude-plus-sign integrand.

    The one-row case of ``integrate_rows``: ``f`` takes only the abscissas,
    and ``spec`` gives the envelope and the tolerance.  Returns an
    IntegralResult; raises AccuracyError (carrying the best value and
    estimate) when ``spec.max_panels`` runs out first, and EvaluationError on
    a non-finite integrand sample or an overflowing panel sum.
    """
    return integrate_rows(lambda x, row: f(x), spec.envelope, spec.tolerance)[0]
