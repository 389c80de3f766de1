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

``direct`` is the single integral; ``chebyshev`` regroups it through
sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2)); ``sum`` integrates the factors
log det(B^2 - alpha_j^2), alpha_j = j + 1/2; ``product_rule`` takes the
integer powers v_j(k) of the k = 1 determinants at d, d-2, ..., d-2k+2.

Sign convention: the per-factor representation is implemented with sign
(-1)^((d-1)/2 + j + 1).  Summing the factors through the geometric identity
sum_{j<k} (-1)^j sinh((j+1/2)x) = (-1)^(k-1) sinh(kx) / (2 cosh(x/2)) then
reproduces s(d,k) above exactly, which is why ``sum`` has the weights
(-1)^(k-1-j); the opposite per-factor sign would flip every k and
contradict the k = 1 case.  A route's value is s(d,k) times the weighted
sum, so a result that underflows to zero still carries s(d,k).

Rows that cannot matter are not integrated.  ``_log_mass_bound`` bounds
each scaled row integral 2^-(p-2) I(a, p) by B(a, p) in closed form (Gamma
functions through Stirling's series with Binet's remainder bound); in a
plan of more than one row, ``logdet`` skips every row whose |w_r| B_r is
at most eps rel_tol max_s |w_s| B_s / n (eps binary64 epsilon, n rows)
and adds the skipped rows' |w_r| B_r to the estimate, as their binary64
sum rounded up by the factor 1 + 2 m eps (m rows skipped).  On the
diagonal ``sum`` then integrates 13 of its 510 rows at d = 1021 and 17 of
192 at d = 385, ``product_rule`` 215 and 125; at d <= 65 no row is skipped.

The numpy-free exact layer (``SpherePoint``, ``LogDetResult``, ``METHODS``,
``zeta_odd``, ``ClosedForm`` and ``closed_form_p4``) lives in ``exact`` and
is imported back here, so ``spectral.zeta_odd`` is ``exact.zeta_odd``.
Everything is pure and immutable; points of a parameter grid may be
evaluated concurrently without coordination.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .chebyshev import v_coefficients
from .errors import AccuracyError, DivergentIntegralError, ParameterError, UnsupportedArgumentError
from .exact import METHODS, ClosedForm, LogDetResult, SpherePoint, closed_form_p4, zeta_odd
from .exact import is_integer, require_integer
from .quadrature import Envelopes, Tolerance, integrate_staged

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

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
_PISQ = math.pi * math.pi
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class FactorIndex:
    """Index j of one factor B^2 - alpha_j^2, with alpha_j = j + 1/2.
    Any integer type is accepted; the field holds a plain int."""

    j: int

    def __post_init__(self) -> None:
        if not is_integer(self.j) or self.j < 0:
            raise ParameterError("factor index j must be a non-negative integer")
        object.__setattr__(self, "j", int(self.j))

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


def _check_abscissas(x):
    xs = np.asarray(x, dtype=float)
    if xs.size == 0 or np.any(~np.isfinite(xs)) or np.any(xs <= 0.0):
        raise ParameterError("x must be positive and finite")
    return xs


class _LogIntegrand:
    """log of  pi/(x^2+pi^2) sinh(x/2) sinh(a_r x) / cosh^p_r(x/2)  at x > 0
    for the rows r of ``a`` and ``p``, evaluated in the quadrature's two
    stages.

    The one integrand behind every route: the direct integral is a = k,
    p = d+1; factor j of ``sum`` is a = j+1/2, p = d; base j of
    ``product_rule`` is a = 1, p = d-2j+1.  With ``regrouped`` it is the
    Chebyshev regrouping of ``chebyshev``: sinh^2(x/2) U_{2a-1}(cosh(x/2))
    replaces sinh(x/2) sinh(a x), with U in its hyperbolic form
    sinh(a x)/sinh(x/2) so the log-space pipeline stays finite at large x.

    The shared stage computes the terms free of a and p, and the sinh(a x)
    term too when every row has the same a, else it shares x itself; the
    per-pair stage adds the rest.  Both keep the operation order of the
    single expression, so a row's values do not depend on what it shares.
    """

    __slots__ = ("a", "p", "regrouped", "common_a")

    def __init__(self, a, p, regrouped: bool = False) -> None:
        a = np.array(a, dtype=float, ndmin=1)
        p = np.array(p, dtype=float, ndmin=1)
        self.common_a = float(a[0]) if a.size == 1 or (a == a[0]).all() else None
        self.a, self.p = (a, p) if a.size == p.size else np.broadcast_arrays(a, p)
        self.regrouped = regrouped

    def _sinh_term(self, a, x, log_sinh_half):
        """log sinh(a x), or log(sinh(a x)/sinh(x/2)) when regrouped."""
        log_sinh = _log_sinh(a * x)
        if self.regrouped:
            log_sinh -= log_sinh_half
        return log_sinh

    def shared(self, x):
        """The row-free terms: the head, log pi/(x^2+pi^2) plus one or two
        log sinh(x/2) and the sinh term if every row has the same a; log
        cosh(x/2); and x if the rows' a differ."""
        half = 0.5 * x
        log_sinh_half = _log_sinh(half)
        head = x * x
        head += _PISQ
        np.log(head, out=head)
        np.subtract(_LNPI, head, out=head)
        head += 2.0 * log_sinh_half if self.regrouped else log_sinh_half
        if self.common_a is None:
            return head, _log_cosh(half), x
        head += self._sinh_term(self.common_a, x, log_sinh_half)
        return head, _log_cosh(half)

    def per_pair(self, terms, row):
        head, log_cosh_half = terms[:2]
        logmag = self.p[row] * log_cosh_half
        if self.common_a is None:
            x = terms[2]
            log_sinh_half = _log_sinh(0.5 * x) if self.regrouped else None
            head = head + self._sinh_term(self.a[row], x, log_sinh_half)
        return np.subtract(head, logmag, out=logmag), 1.0


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


def integrand_direct(point: SpherePoint, x):
    """Log-magnitude and sign of the direct integrand at x > 0.

    The integrand  pi/(x^2+pi^2) sinh(x/2) sinh(kx) / cosh^(d+1)(x/2)  is
    strictly positive, so the sign is always +1.  Accepts a scalar or an
    ndarray of abscissas.
    """
    xs = _check_abscissas(x)
    f = _LogIntegrand(point.k, point.d + 1)
    flat = xs.reshape(-1)
    logmag = f.per_pair(f.shared(flat), 0)[0].reshape(xs.shape)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(logmag), 1
    return logmag, np.ones_like(logmag)


def _integrals(
    a, p, tolerance: Optional[Tolerance], regrouped: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """2^-(p_r-2) times the integral over [0, inf) of ``_LogIntegrand`` at
    (a_r, p_r), values and estimates as arrays, for every row r of one
    batched quadrature call.

    The scale is applied with ``np.ldexp``: exact while a value and its
    estimate stay normal.  Below 2^-1022 ldexp rounds each to the subnormal
    spacing 2^-1074 (a value may round to 0), so the estimate is then
    widened to cover both roundings and is never lost to underflow.
    """
    integrand = _LogIntegrand(a, p, regrouped)
    log_const, rate = _envelope(integrand.a, integrand.p)
    rows = integrate_staged(
        integrand,
        Envelopes(log_const, rate),
        Tolerance() if tolerance is None else tolerance,
    )
    return _scaled(rows.value, rows.err_estimate, integrand.p)


def _scaled(value, err, p):
    """2^-(p-2) ``value`` and ``err`` (arrays), ``err`` widened where that underflows."""
    shift = 2 - np.asarray(p).astype(int)
    value = np.ldexp(value, shift)
    err = np.ldexp(err, shift)
    tiny = np.minimum(np.abs(value), err) < sys.float_info.min
    if np.count_nonzero(tiny):
        err[tiny] = np.nextafter(err[tiny] + math.ulp(0.0), math.inf)
    return value, err


def _plan(point: SpherePoint, method: str) -> tuple:
    """The rows (a, p), scalars or arrays, the weights as a binary64 array
    (each rounded once, as int * float rounds it) and the regrouping flag
    of the route ``method`` at ``point``: the module docstring's table."""
    d, k = point.d, point.k
    if method in ("direct", "chebyshev"):
        return k, d + 1, np.ones(1), method == "chebyshev"
    signs = np.where(np.arange(k - 1, -1, -1) % 2, -1.0, 1.0)  # (-1)^(k-1-j)
    if method == "sum":
        return np.arange(k) + 0.5, d, signs, False
    if method == "product_rule":
        rule = v_coefficients(k)
        try:
            powers = np.array(rule.v, dtype=float)
        except OverflowError:  # from k = 742 on
            raise UnsupportedArgumentError(
                f"product rule at k = {k} needs powers v_j(k) up to "
                f"2^{max(rule.v).bit_length() - 1}, past the binary64 limit "
                f"{sys.float_info.max:.4g}"
            ) from None
        return 1.0, np.arange(d + 1, d - 2 * k + 1, -2), signs * powers, False
    raise UnsupportedArgumentError(
        f"unknown method {method!r}; expected one of {METHODS}"
    )


def logdet(
    point: SpherePoint,
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> LogDetResult:
    """log det P_2k(d) by one of the four evaluation routes, named by tag:
    the route's rows integrated in one batch, then s(d,k) times their
    weighted sum, with the estimates summed at the weights' magnitudes.

    A plan of more than one row first drops the rows whose bound mass
    |w_r| B_r is at most eps rel_tol max_s |w_s| B_s / n; their summed
    bound mass is added to the estimate (see ``_drop_negligible``).  A
    quadrature AccuracyError is raised again named by route and point."""
    a, p, weights, regrouped = _plan(point, method)
    skipped = 0.0
    if weights.size > 1:
        a, p, weights, skipped = _drop_negligible(a, p, weights, tolerance)
    try:
        values, errs = _integrals(a, p, tolerance, regrouped)
    except AccuracyError as exc:
        value, err, where = exc.value, exc.err_estimate, f"{method} at d={point.d}, k={point.k}"
        if weights.size == 1:  # of weight 1, so scaled its fields are the log det's
            value, err = (v.item() for v in _scaled(np.array([value]), np.array([err]), p))
            value *= point.sign
        else:
            where += " (one row's unscaled integral)"
        raise AccuracyError(f"{where}: {exc._message}", value, err, exc.panels_used) from exc
    value = point.sign * math.fsum((weights * values).tolist())
    err = math.fsum([*(np.abs(weights) * errs).tolist(), skipped])
    return LogDetResult(value, err, method, point)


def _drop_negligible(a, p, weights, tolerance: Optional[Tolerance]) -> tuple:
    """The plan without its rows of bound mass |w_r| B_r at most
    eps rel_tol max_s |w_s| B_s / n (B from ``_log_mass_bound``, n rows),
    the row of largest mass always kept: the rest's (a, p, weights), as
    arrays, and the skipped rows' summed mass, rounded up, to charge to
    the estimate."""
    rel_tol = (Tolerance() if tolerance is None else tolerance).rel_tol
    # in log space, since eps rel_tol / n may underflow for a small rel_tol
    log_cut = math.log(_EPS) + math.log(rel_tol) - math.log(weights.size)
    a, p = np.asarray(a, dtype=float), np.asarray(p, dtype=float)
    mass = _log_mass_bound(a, p) + np.log(np.abs(weights))
    skip = mass <= mass.max() + log_cut
    skip[mass.argmax()] = False  # the cut is positive once rel_tol >= n / eps
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
    return a[keep] if a.ndim else a, p[keep] if p.ndim else p, weights[keep], skipped


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
    UnsupportedArgumentError where a power passes the binary64 range."""
    return logdet(point, "product_rule", tolerance)


def logdet_factor(
    d: int, factor: FactorIndex, tolerance: Optional[Tolerance] = None
) -> float:
    """log det(B^2 - alpha_j^2) on the odd d-sphere, alpha_j = j + 1/2.

    Carries the sign (-1)^((d-1)/2 + j + 1); see the module docstring for
    why this, and not (-1)^((d-1)/2 + j), is the convention consistent with
    the direct k-th order integral.  Requires 2 alpha_j < d for convergence:
    the decay rate of the cosh^d integrand is (d - 1 - 2 alpha_j)/2.
    """
    if d % 2 == 0 or d < 3:
        raise ParameterError("d must be odd and >= 3")
    if 2.0 * factor.alpha >= d:
        raise DivergentIntegralError(
            f"factor integral diverges: 2*alpha = {2 * factor.alpha} >= d = {d}"
        )
    require_integer("d", d)  # last, so the rejections above keep their messages
    value =_integrals(factor.alpha, d, tolerance)[0].item()
    return -value if ((d - 1) // 2 + factor.j + 1) % 2 else value
