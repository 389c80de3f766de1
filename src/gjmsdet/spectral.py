"""Log-determinants of scalar GJMS operators P_2k on odd-dimensional spheres.

On the round unit d-sphere (d odd) the order-2k GJMS operator factorizes
into shifted conformal Laplacians, and its zeta-regularized log-determinant,
for integer 1 <= k <= (d-1)/2, is by every route one identity:

    log det P_2k(d) = s(d,k) * sum_r w_r 2^-(p_r-2) I(a_r, p_r),

    I(a, p) = int_0^inf  pi/(x^2 + pi^2)
                         * sinh(x/2) sinh(a x) / cosh^p(x/2)  dx,
    s(d,k)  = (-1)^((d-1)/2 + k).

The integrand is positive, vanishes like a x^2 / (2 pi) at 0, and decays
like 2^(p-2) pi e^(-(p-1-2a)x/2) / x^2, so the quadrature module can
truncate with an exact envelope.  The four routes differ only in their rows
(a_r, p_r), integer weights w_r (held as binary64, each rounded once) and
whether the integrand is regrouped:

    route          a_r      p_r        w_r, j < k                 regrouped
    direct         k        d+1        1                          no
    chebyshev      k        d+1        1                          yes
    sum            j+1/2    d          (-1)^(k-1-j)               no
    product_rule   1        d-2j+1     (-1)^(k-1+j) v_j(k)        no

``_plan`` is this table's one statement in code: a route's plan is its
a_r, p_r and w_r as float64 arrays of one length (1 for ``direct`` and
``chebyshev``, k for the others) and its regrouping flag, and every later
step (the bounds, the refusal, the skipping, the integrand) takes those
arrays as they are.  ``integrand_direct`` evaluates the ``direct`` plan's
row.  Every row is exact only while d + 1 <= 2^53, so each route,
``integrand_direct`` and ``logdet_factor`` raise UnsupportedArgumentError
for d > 2^53 - 1; ``product_rule`` raises it for k > 741 too, as v_j(742)
passes the binary64 range, before any power or row is built.

``direct`` is the single integral; ``chebyshev`` regroups it through
sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2)); ``sum`` integrates the factors
log det(B^2 - alpha_j^2), alpha_j = j + 1/2; ``product_rule`` takes the
integer powers v_j(k) of the k = 1 determinants at d, d-2, ..., d-2k+2.

Sign convention: the per-factor representation is implemented with sign
(-1)^((d-1)/2 + j + 1), that is s(d, j+1), as factor j is the last row of
``sum`` at k = j+1, of weight +1.  Summing the factors through the
geometric identity sum_{j<k} (-1)^j sinh((j+1/2)x) = (-1)^(k-1) sinh(kx) /
(2 cosh(x/2)) then reproduces s(d,k) above exactly, which is why ``sum``
has the weights (-1)^(k-1-j); the opposite per-factor sign would flip
every k and contradict the k = 1 case.  A route's value is s(d,k) times
the weighted sum, so a result that underflows to zero still carries
s(d,k).

Rows that cannot matter are not integrated.  ``_log_mass_bound`` bounds
each scaled row integral 2^-(p-2) I(a, p) by B(a, p) in closed form (Gamma
functions through Stirling's series with Binet's remainder bound); in a
plan of more than one row, ``logdet`` skips every row whose |w_r| B_r is
at most eps max_s |w_s| B_s / n (eps binary64 epsilon, n rows), below
what binary64 resolves beside the largest row, and adds the skipped rows'
|w_r| B_r to the estimate, as their binary64 sum rounded up by the factor
1 + 2 m eps (m rows skipped).  On the diagonal ``sum`` then integrates 8
of its 510 rows at d = 1021 and 9 of 192 at d = 385, and
``product_rule``'s plans keep 172 and 102 (but are refused, below); at
d <= 49, on the 55-point grid and in ``scan_k(35)`` no row is skipped.

Before the skipping, a plan that binary64 cannot resolve is refused.
``_log_mass_lower`` bounds each scaled row integral from below by L(a, p)
in closed form, and the round-off floor that every
accepted panel is charged puts the result's estimate above 2 eps
sum_r |w_r| L_r.  Where eps sum_r |w_r| L_r exceeds max(abs_tol, rel_tol
2/(pi (d-2k))), 2/(pi (d-2k)) bounding |log det P_2k(d)|, the estimate
could not meet the tolerance, and ``logdet`` raises
UnsupportedArgumentError instead.  At the default ``Tolerance`` this
refuses ``product_rule``, whose binomial weights cancel, on the diagonal
from d = 91 on, and at no point of the 55-point grid or of ``scan_k(35)``.
The floor of ``sum``, whose weights are +-1, stays below 1e-17, so it is
not refused at an abs_tol of 1e-15 or more; ``direct`` and ``chebyshev``
have one row and are never refused.  Every result still returned is
unchanged, bit for bit.

The numpy-free exact layer (``SpherePoint``, ``LogDetResult``, ``METHODS``,
``zeta_odd``, ``ClosedForm`` and ``closed_form_p4``) lives in ``exact`` and
is imported back here, so ``spectral.zeta_odd`` is ``exact.zeta_odd``.
Everything is pure and immutable; points of a parameter grid may be
evaluated concurrently without coordination.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .chebyshev import v_coefficients
from .errors import AccuracyError, DivergentIntegralError, ParameterError, UnsupportedArgumentError
from .exact import METHODS, ClosedForm, LogDetResult, SpherePoint, closed_form_p4, zeta_odd
from .exact import (_LN2, Record, _named, is_integer, require_integer, require_point,
                    require_real, require_type)
from .quadrature import _DEFAULT_TOLERANCE, _EPS, _ROUNDOFF, Tolerance, integrate_staged

# Not called here (every route calls integrate_staged), but perfbench/spans.py
# reads and rebinds spectral.integrate_semi_infinite, so the name stays.
from .quadrature import integrate_semi_infinite  # noqa: F401

__all__ = [
    "SpherePoint",
    "FactorIndex",
    "LogDetResult",
    "ClosedForm",
    "METHODS",
    "integrand_direct",
    "logdet_direct",
    "logdet_factor",
    "logdet_sum",
    "logdet_chebyshev",
    "logdet_product_rule",
    "logdet",
    "zeta_odd",
    "closed_form_p4",
]

_LNPI = math.log(math.pi)
_PISQ = math.pi * math.pi


class FactorIndex(Record):
    """Index j of one factor B^2 - alpha_j^2, with alpha_j = j + 1/2.
    Any integer type is accepted; the field holds a plain int."""

    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        if not is_integer(j) or j < 0:
            raise ParameterError("factor index j must be a non-negative integer")
        super().__init__(int(j))

    @property
    def alpha(self) -> float:
        return self.j + 0.5


def _log_sinh(t):
    """log(sinh t) = t + log(-expm1(-2t)) - log 2 for an array t > 0, stable
    for both tiny and huge t; computed in one new array."""
    u = -2.0 * t
    np.expm1(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    u += t
    u -= _LN2
    return u


def _log_cosh(t):
    """log(cosh t) = t + log1p(exp(-2t)) - log 2 for an array t >= 0, stable
    for huge t; computed in one new array."""
    u = -2.0 * t
    np.exp(u, out=u)
    np.log1p(u, out=u)
    u += t
    u -= _LN2
    return u


class _LogIntegrand:
    """log of  pi/(x^2+pi^2) sinh(x/2) sinh(a_r x) / cosh^p_r(x/2)  at x > 0
    for the rows r of ``a`` and ``p``, one call per chunk of the quadrature.

    The one integrand behind every route, at the rows of its plan
    (``_plan``), equal-length float arrays.  With ``regrouped`` it is the
    Chebyshev regrouping of ``chebyshev``: sinh^2(x/2) U_{2a-1}(cosh(x/2))
    replaces sinh(x/2) sinh(a x), with U in its hyperbolic form
    sinh(a x)/sinh(x/2) so the log-space pipeline stays finite at large x.

    Each pair's rounding scale is the sum, over the log terms combined, of
    the term's largest magnitude at the panel's two end nodes.  Every term
    is monotone in x (log pi/(x^2+pi^2), p log cosh(x/2), the regrouped
    sinh term) or its magnitude is quasi-convex (|log sinh|, which changes
    sign once), so that sum bounds the terms' summed magnitudes at every
    node of the panel.
    """

    __slots__ = ("a", "p", "regrouped")

    def __init__(self, a, p, regrouped: bool = False) -> None:
        self.a, self.p, self.regrouped = a, p, regrouped

    def __call__(self, x, row):
        """(log|f|, sign, scale) at the abscissas ``x``, one pair a line, of
        the rows in the column ``row``: the head log pi/(x^2+pi^2) plus one or
        two log sinh(x/2), then log sinh(a x), less log sinh(x/2) when
        regrouped, then -p log cosh(x/2), each term's part of the scale
        added as it is.  A row's values do not depend on its batch."""
        half = 0.5 * x
        log_sinh_half = _log_sinh(half)
        logmag = _log_cosh(half)
        head = np.multiply(x, x, out=half)  # half is read: its buffer takes x^2
        head += _PISQ
        np.log(head, out=head)
        np.subtract(_LNPI, head, out=head)
        # log pi/(x^2+pi^2) < 0 falls with x: its magnitude peaks at the last node
        scale = _end_magnitude(log_sinh_half) * (2.0 if self.regrouped else 1.0) - head[:, -1]
        head += 2.0 * log_sinh_half if self.regrouped else log_sinh_half
        sinh_term = _log_sinh(self.a[row] * x)
        if self.regrouped:
            sinh_term -= log_sinh_half
        scale += _end_magnitude(sinh_term)
        head += sinh_term
        logmag *= self.p[row]
        scale += logmag[:, -1]  # p log cosh(x/2) >= 0 grows with x
        return np.subtract(head, logmag, out=logmag), 1.0, scale


def _end_magnitude(term):
    """max(|term|) over the first and last node of each panel (line)."""
    return np.maximum(np.abs(term[:, 0]), np.abs(term[:, -1]))


def _envelope(a, p):
    """(log C, L) of the decay envelope C e^(-L x) of ``_LogIntegrand``:
    C = 2^(p-2) pi, L = (p-1-2a)/2, with C kept in log space because it
    passes the binary64 range from p = 1026 on.  The regrouping has the same
    integrand, so the same envelope."""
    return _LNPI + (p - 2) * _LN2, 0.5 * (p - 1 - 2 * a)


# log(2pi)/2 from Stirling, log(1/pi) from the bound, log 2 as the margin
_LOG_BOUND_CONST = 0.5 * math.log(2.0 * math.pi) - _LNPI + _LN2


def _log_mass_bound(a, p):
    """log of an upper bound B(a, p) on the scaled row integral
    2^-(p-2) I(a, p), elementwise for rows with p - 2a - 1 >= 1:

        B = Gamma((p+2a-1)/2) Gamma((p-2a+1)/2) / Gamma(p)
            * 4a / (pi (p-2a-1)).

    From pi/(x^2+pi^2) <= 1/pi, sinh t sinh(2at) = (cosh((2a+1)t) -
    cosh((2a-1)t))/2 and int_0^inf cosh(mu t)/cosh^nu t dt =
    2^(nu-2) Gamma((nu+mu)/2) Gamma((nu-mu)/2) / Gamma(nu)
    (Gradshteyn-Ryzhik 3.512.1).  Stirling's series log Gamma(z) =
    (z-1/2) log z - z + log(2pi)/2 + mu(z) with 0 < mu(z) < 1/(12z) (Binet)
    bounds the numerator from above and Gamma(p) from below; the z terms
    cancel since the numerator arguments sum to p.
    A log 2 margin covers the rounding of this and of the exp of it.  The
    regrouping has the same integrand, so the same bound."""
    u = 0.5 * (p - 1.0) + a  # (p+2a-1)/2
    w = p - u  # (p-2a+1)/2
    return (
        (u - 0.5) * np.log(u) + (w - 0.5) * np.log(w) - (p - 0.5) * np.log(p)
        + p / (12.0 * u * w)  # 1/(12u) + 1/(12w)
        + np.log((a + a) / (w - 1.0))  # 4a/(p-2a-1)
        + _LOG_BOUND_CONST
    )


# log of (sqrt(pi) erf(2)/4 - e^-4)/2, half of int_0^2 t^2 e^(-t^2) dt
_LOG_LOWER_CONST = math.log(0.5 * (0.25 * math.sqrt(math.pi) * math.erf(2.0) - math.exp(-4.0)))


def _log_mass_lower(a, p):
    """log of a lower bound L(a, p) on the scaled row integral
    2^-(p-2) I(a, p), elementwise for rows with a > 0:

        L = a 2^-(p-2) pi/(32/p + pi^2) (8/p)^(3/2)
            (sqrt(pi) erf(2)/4 - e^-4) / 2.

    On [0, X] with X^2 = 32/p, pi/(x^2+pi^2) >= pi/(X^2+pi^2),
    sinh(x/2) sinh(a x) >= a x^2/2 and cosh^p(x/2) <= e^(p x^2/8), and
    int_0^X x^2 e^(-p x^2/8) dx = (8/p)^(3/2) (sqrt(pi) erf(2)/4 - e^-4).
    It lies within e^0.06 of the integral at (1, 1022) and within e^1.6 at
    (1, 4), and far below it where a nears p/2 and the integrand peaks past
    X.  Its rounding, a relative few eps p on the log, is far inside the
    factor-2 margin of the refusal that uses it (``_check_round_off_floor``)."""
    return (
        np.log(a) - (p - 2.0) * _LN2 + _LNPI - np.log(32.0 / p + _PISQ)
        + 1.5 * np.log(8.0 / p) + _LOG_LOWER_CONST
    )


def integrand_direct(point: SpherePoint, x):
    """Log-magnitude and sign of the direct integrand at x > 0.

    The integrand  pi/(x^2+pi^2) sinh(x/2) sinh(kx) / cosh^(d+1)(x/2)  is
    strictly positive, so the sign is always +1.  Accepts a scalar or an
    ndarray of abscissas, evaluated as one ``_LogIntegrand`` call on the
    ``direct`` plan's row with one abscissa a panel.  A ``point`` that is
    not a SpherePoint, or an ``x`` that is not positive and finite real
    numbers, raises ParameterError.
    """
    require_point(point)
    try:  # a str that is not a number, or a complex, fails the conversion
        xs = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        xs = np.empty(0)
    if xs.size == 0 or np.any(~np.isfinite(xs)) or np.any(xs <= 0.0):
        raise ParameterError("x must be positive and finite")
    f = _LogIntegrand(*_plan(point, "direct")[:2])
    column = xs.reshape(-1, 1)
    with np.errstate(over="ignore"):  # x^2 overflows past 1e154; the limit is -inf
        logmag = f(column, 0)[0].reshape(xs.shape)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(logmag), 1
    return logmag, np.ones_like(logmag)


def _integrals(a, p, tolerance: Tolerance, regrouped: bool = False) -> tuple:
    """2^-(p_r-2) times the integral over [0, inf) of ``_LogIntegrand`` at
    (a_r, p_r), for every row r of the equal-length float arrays ``a`` and
    ``p``, in one batched quadrature call: values, estimates, ``failed``
    flags and panel counts as arrays.

    The envelope goes to ``integrate_staged`` as ``_envelope``'s arrays
    with a start of 0, unchecked: the checks of ``SpherePoint`` (k <= (d-1)/2
    and d + 1 <= 2^53) and of ``logdet_factor`` (2j + 1 < d) give every row
    2a <= p - 2 <= 2^53, so a rate (p-1-2a)/2 of at least 1/2 and a finite
    log C.

    The scale is applied with ``np.ldexp``: exact while a value and its
    estimate stay normal.  Below 2^-1022 ldexp rounds each to the subnormal
    spacing 2^-1074 (a value may round to 0), so the estimate is then
    widened to cover both roundings and is never lost to underflow.
    """
    rows = integrate_staged(_LogIntegrand(a, p, regrouped), *_envelope(a, p), 0.0, tolerance)
    shift = 2 - p.astype(int)
    value = np.ldexp(rows.value, shift)
    err = np.ldexp(rows.err_estimate, shift)
    tiny = np.minimum(np.abs(value), err) < sys.float_info.min
    if np.count_nonzero(tiny):
        err[tiny] = np.nextafter(err[tiny] + math.ulp(0.0), math.inf)
    return value, err, rows.failed, rows.panels_used


def _reduce(where: str, sign: int, weights, rows, skipped: float = 0.0) -> Tuple[float, float]:
    """``sign`` times the exact (fsum) weighted sum of the ``_integrals``
    ``rows``, and their estimates summed at |weight| plus ``skipped``; if
    a row failed, instead one AccuracyError named ``where`` with these."""
    values, errs, failed, panels = rows
    value = sign * math.fsum((weights * values).tolist())
    err = math.fsum([*(np.abs(weights) * errs).tolist(), skipped])
    if np.count_nonzero(failed):
        message = f"{where}: panel budget exhausted before tolerance was met"
        raise AccuracyError(message, value, err, int(panels.sum()))
    return value, err


def _alternating(k: int):
    """(-1)^(k-1-j) for j < k, as binary64."""
    return np.where(np.arange(k - 1, -1, -1) % 2, -1.0, 1.0)


# the last order k whose powers v_j(k) = C(k+j, 2j+1) are all binary64
# numbers: max_j v_j(742) passes 2^1024, and each v_j(k) grows with k
_LAST_PRODUCT_ORDER = 741


@lru_cache(maxsize=None)
def _product_weights(k: int):
    """The ``product_rule`` weights (-1)^(k-1+j) v_j(k), j < k, as a
    read-only binary64 array (each power rounded once), built once per k.
    Raises UnsupportedArgumentError past k = 741, before any power is built,
    as a power then passes the binary64 range."""
    if k > _LAST_PRODUCT_ORDER:
        raise UnsupportedArgumentError(
            f"product rule at k = {k} needs powers v_j(k) past the binary64 limit "
            f"{sys.float_info.max:.4g}; its last order with binary64 powers is "
            f"k = {_LAST_PRODUCT_ORDER}"
        )
    weights = _alternating(k) * np.array(v_coefficients(k).v, dtype=float)
    weights.flags.writeable = False
    return weights


def _check_exact_rows(d: int) -> None:
    """Raise UnsupportedArgumentError naming d where d + 1, the largest row
    p of any plan at d, passes 2^53: the rows would round in binary64."""
    if d + 1 > 2**53:
        raise UnsupportedArgumentError(
            f"{_named('d', d)} is past 2^53 - 1, the last dimension whose rows p <= d + 1 "
            "are exact binary64 integers"
        )


def _plan(point: SpherePoint, method: str) -> tuple:
    """The module docstring's table, and its one statement in code: the rows
    a and p and the weights (each rounded once, as int * float rounds it) of
    the route ``method`` at ``point``, as float64 arrays of one length, and
    the regrouping flag.  Raises UnsupportedArgumentError past d = 2^53 - 1
    (``_check_exact_rows``) and, for ``product_rule``, past k = 741."""
    d, k = point.d, point.k
    _check_exact_rows(d)
    if method in ("direct", "chebyshev"):
        return np.full(1, float(k)), np.full(1, d + 1.0), np.ones(1), method == "chebyshev"
    if method == "sum":
        return np.arange(k) + 0.5, np.full(k, float(d)), _alternating(k), False
    if method == "product_rule":
        weights = _product_weights(k)  # first, as it refuses k > 741
        return np.ones(k), np.arange(d + 1.0, d - 2 * k + 1, -2), weights, False
    raise UnsupportedArgumentError(
        f"unknown method {method!r}; expected one of {METHODS}"
    )


def _resolved(tolerance: Optional[Tolerance]) -> Tolerance:
    """``tolerance``, or for None quadrature's one default ``Tolerance``;
    else ParameterError, before any field of it is read."""
    if not isinstance(tolerance, (Tolerance, type(None))):
        raise ParameterError(f"tolerance must be a Tolerance, not {type(tolerance).__name__}")
    return _DEFAULT_TOLERANCE if tolerance is None else tolerance


def logdet(
    point: SpherePoint,
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> LogDetResult:
    """log det P_2k(d) by one of the four evaluation routes, named by tag:
    the route's rows integrated in one batch, then s(d,k) times their
    weighted sum, with the estimates summed at the weights' magnitudes.

    A plan of more than one row is first refused, with
    UnsupportedArgumentError, if its round-off floor alone would put the
    estimate past max(abs_tol, rel_tol 2/(pi (d-2k))) (see
    ``_check_round_off_floor``): ``product_rule`` on the diagonal from
    d = 91 at the default tolerance.  Else it drops the rows whose bound
    mass |w_r| B_r is at most eps max_s |w_s| B_s / n; their summed bound
    mass is added to the estimate (see ``_drop_negligible``).  Out
    of panels, raises an AccuracyError named by route and point, in log-det units.
    A ``point`` that is not a SpherePoint, or a ``tolerance`` that is
    neither a Tolerance nor None, raises ParameterError."""
    require_point(point)
    tolerance = _resolved(tolerance)
    a, p, weights, regrouped = _plan(point, method)
    where = f"{method} at d={point.d}, k={point.k}"  # after _plan refused a d too long to print
    skipped = 0.0
    if weights.size > 1:
        # |log det P_2k(d)| <= 2/(pi (d-2k)) at every point: the derivation
        # is in the docstring of test_criterion_5_additive_spread_window
        value_bound = 2.0 / (math.pi * (point.d - 2 * point.k))
        _check_round_off_floor(where, a, p, weights, tolerance, value_bound)
        a, p, weights, skipped = _drop_negligible(a, p, weights)
    rows = _integrals(a, p, tolerance, regrouped)
    value, err = _reduce(where, point.sign, weights, rows, skipped)
    return LogDetResult(value, err, method, point)


def _check_round_off_floor(
    where: str, a, p, weights, tol: Tolerance, value_bound: float
) -> None:
    """Raise UnsupportedArgumentError named ``where`` when the plan's
    eps sum_r |w_r| L_r (L from ``_log_mass_lower``) exceeds the target
    max(abs_tol, rel_tol value_bound), ``value_bound`` bounding |value|.

    Every accepted panel is charged 2 eps (scale + 1) times its mass
    (quadrature._ROUNDOFF), so each row's estimate is at least 2 eps times
    its value; a skipped row is charged B_r >= J_r >= L_r, J_r its scaled
    integral.  So the result's estimate is at least 2 eps sum |w_r| L_r,
    and where eps sum |w_r| L_r > max(abs_tol, rel_tol value_bound) it
    exceeds max(abs_tol, rel_tol |value|): the result would be outside its
    tolerance.  The left side takes _ROUNDOFF / 2 = eps, half the factor
    the sweep charges, as a safety margin; it is sound only while it is
    derived from what the sweep charges."""
    # in log space: the weights reach 2^1023 and rel_tol may be subnormal
    lower = _log_mass_lower(a, p)
    lower += np.log(np.abs(weights))
    top = lower.max()
    log_floor = math.log(_ROUNDOFF / 2) + top + math.log(np.exp(lower - top).sum())
    log_target = max(
        math.log(tol.abs_tol) if tol.abs_tol else -math.inf,
        math.log(tol.rel_tol) + math.log(value_bound),
    )
    if log_floor > log_target:
        # 2 eps sum |w_r| L_r < 2 eps n 2^1024, as every L_r < 1: exp cannot overflow
        raise UnsupportedArgumentError(
            f"{where}: binary64 round-off puts a floor of at least "
            f"{2.0 * math.exp(log_floor):.3g} under its estimate, over twice the "
            f"target max(abs_tol, rel_tol * {value_bound:.3g}) = "
            f"{max(tol.abs_tol, tol.rel_tol * value_bound):.3g}; refused before integrating"
        )


def _drop_negligible(a, p, weights) -> tuple:
    """The plan without its rows of bound mass |w_r| B_r at most
    eps max_s |w_s| B_s / n (B from ``_log_mass_bound``, n rows), so that
    together they stay below what binary64 resolves in the largest, which
    is always kept: the rest's (a, p, weights), and the skipped rows'
    summed mass, rounded up, to charge to the estimate."""
    mass = _log_mass_bound(a, p) + np.log(np.abs(weights))
    # in log space, as the masses pass the binary64 range
    skip = mass <= mass.max() + (math.log(_EPS) - math.log(weights.size))
    tail = np.exp(mass[skip])
    # A float sum of m positive terms, in any order, is within (m-1)u S /
    # (1 - (m-1)u) of their exact sum S (u = eps/2; Higham, Accuracy and
    # Stability, sec. 4.2), so S <= sum (1 + 2(m-1)u) while (m-1)u <= 1/4.
    # Times the exact 1 + 2m eps = 1 + 4mu and rounded once, a normal product
    # is at least sum (1 + 4mu)(1 - u) > sum (1 + 2(m-1)u).
    skipped = float(tail.sum()) * (1.0 + 2 * tail.size * _EPS)
    if skipped < sys.float_info.min:  # each exp may have lost 2^-1074 to underflow
        skipped += tail.size * math.ulp(0.0)
    keep = ~skip
    return a[keep], p[keep], weights[keep], skipped


def logdet_direct(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) from the single semi-infinite integral."""
    return logdet(point, "direct", tolerance)


def logdet_sum(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) as the sum of its k per-factor determinants."""
    return logdet(point, "sum", tolerance)


def logdet_chebyshev(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) from the Chebyshev-regrouped integrand."""
    return logdet(point, "chebyshev", tolerance)


def logdet_product_rule(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) = sum_j v_j(k) log det P_2(d - 2j).  Raises
    UnsupportedArgumentError where a power passes the binary64 range, and
    where the weights' cancellation leaves a round-off floor above the
    target (see ``logdet``)."""
    return logdet(point, "product_rule", tolerance)


def logdet_factor(
    d: int, factor: FactorIndex, tolerance: Optional[Tolerance] = None
) -> float:
    """log det(B^2 - alpha_j^2) on the odd d-sphere, alpha_j = j + 1/2.

    Carries the sign s(d, j+1) = (-1)^((d-1)/2 + j + 1) of ``SpherePoint(d,
    j + 1)``; see the module docstring for why this, and not
    (-1)^((d-1)/2 + j), is the convention consistent with the direct k-th
    order integral.  Requires 2 alpha_j < d for convergence:
    the decay rate of the cosh^d integrand is (d - 1 - 2 alpha_j)/2.
    Raises AccuracyError, named by factor and d, if its panels run out, and
    ParameterError for a ``d`` that is not a real number, a ``factor`` that
    is not a FactorIndex or a ``tolerance`` that is neither a Tolerance nor
    None.
    """
    require_type("factor", factor, FactorIndex)
    if isinstance(d, np.generic):  # else 2j + 1 is compared as a numpy float
        d = d.item()
    require_real("d", d)
    if d % 2 == 0 or d < 3:
        raise ParameterError("d must be odd and >= 3")
    if 2 * factor.j + 1 >= d:  # in integers, as j may pass the binary64 range
        # 2j + 1 converts to a float, and 2.0 alpha_j is finite, exactly while j < 2^1023 - 2^969
        big = factor.j >= 2**1023 - 2**969
        shown = f"2j + 1 at {_named('j', factor.j)}" if big else 2 * factor.alpha
        raise DivergentIntegralError(
            f"factor integral diverges: 2*alpha = {shown} >= {_named('d', d)}"
        )
    require_integer("d", d)  # after them, so the rejections above keep their messages
    _check_exact_rows(d)
    # factor j is the last row of ``sum`` at k = j + 1, of weight +1: its sign is s(d, j+1)
    point = SpherePoint(d, factor.j + 1)
    rows = _integrals(np.full(1, factor.alpha), np.full(1, float(d)), _resolved(tolerance))
    return _reduce(f"factor j={factor.j} at d={d}", point.sign, np.ones(1), rows)[0]
