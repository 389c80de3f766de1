"""Log-determinants of scalar GJMS operators P_2k on odd-dimensional spheres.

On the round unit d-sphere (d odd) the order-2k GJMS operator factorizes
into shifted conformal Laplacians, and its zeta-regularized log-determinant
has the convergent representation

    log det P_2k(d) = s(d,k) / 2^(d-1) * I(d,k),

    I(d,k)  = int_0^inf  pi/(x^2 + pi^2)
                        * sinh(x/2) sinh(k x) / cosh^(d+1)(x/2)  dx,
    s(d,k)  = (-1)^((d-1)/2 + k),

valid for integer 1 <= k <= (d-1)/2 (the integral diverges past d/2).  The
integrand is positive, vanishes like k x^2 / (2 pi) at 0, and decays like
2^(d-1) pi e^(-(d-2k)x/2) / x^2, so the quadrature module can truncate with
an exact envelope.

Four independent evaluation routes are exposed and must agree:

* ``logdet_direct``       the integral above;
* ``logdet_sum``          per-factor integrals log det(B^2 - alpha_j^2)
                          summed over j < k, alpha_j = j + 1/2;
* ``logdet_chebyshev``    the same integral regrouped through
                          sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2));
* ``logdet_product_rule`` integer powers of k = 1 determinants at
                          dimensions d, d-2, ..., d-2k+2.

Sign convention: the per-factor representation is implemented with sign
(-1)^((d-1)/2 + j + 1).  Summing the factors through the geometric identity
sum_{j<k} (-1)^j sinh((j+1/2)x) = (-1)^(k-1) sinh(kx) / (2 cosh(x/2)) then
reproduces s(d,k) above exactly; the opposite per-factor sign would flip
every k and contradict the k = 1 case.

The numpy-free exact layer (``SpherePoint``, ``LogDetResult``, ``zeta_odd``,
``ClosedForm`` and ``closed_form_p4``) lives in ``exact`` and is imported
back here, so ``spectral.zeta_odd`` is ``exact.zeta_odd``.  Everything is
pure and immutable; points of a parameter grid may be evaluated
concurrently without coordination.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .chebyshev import v_coefficients
from .errors import DivergentIntegralError, ParameterError, UnsupportedArgumentError
from .exact import ClosedForm, LogDetResult, SpherePoint, closed_form_p4, zeta_odd
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

METHODS = ("direct", "sum", "chebyshev", "product_rule")


@dataclass(frozen=True)
class FactorIndex:
    """Index j of one factor B^2 - alpha_j^2, with alpha_j = j + 1/2."""

    j: int

    def __post_init__(self) -> None:
        if isinstance(self.j, bool) or not isinstance(self.j, int) or self.j < 0:
            raise ParameterError("factor index j must be a non-negative integer")

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
    term too when every row has the same a; the per-pair stage adds the
    rest.  Both keep the operation order of the single expression, so a
    row's values do not depend on what it shares.
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
        log sinh(x/2) and the sinh term if every row has the same a; and
        log cosh(x/2)."""
        half = 0.5 * x
        log_sinh_half = _log_sinh(half)
        head = x * x
        head += _PISQ
        np.log(head, out=head)
        np.subtract(_LNPI, head, out=head)
        head += 2.0 * log_sinh_half if self.regrouped else log_sinh_half
        if self.common_a is not None:
            head += self._sinh_term(self.common_a, x, log_sinh_half)
        return head, _log_cosh(half)

    def per_pair(self, terms, x, row):
        head, log_cosh_half = terms
        logmag = self.p[row] * log_cosh_half
        if self.common_a is None:
            log_sinh_half = _log_sinh(0.5 * x) if self.regrouped else None
            head = head + self._sinh_term(self.a[row], x, log_sinh_half)
        return np.subtract(head, logmag, out=logmag), 1.0


def _envelope(a, p):
    """(log C, L) of the decay envelope C e^(-L x) of ``_LogIntegrand``:
    C = 2^(p-2) pi, L = (p-1-2a)/2, with C kept in log space because it
    passes the binary64 range from p = 1026 on.  The regrouping has the same
    integrand, so the same envelope."""
    return _LNPI + (p - 2) * _LN2, 0.5 * (p - 1 - 2 * a)


def integrand_direct(point: SpherePoint, x):
    """Log-magnitude and sign of the direct integrand at x > 0.

    The integrand  pi/(x^2+pi^2) sinh(x/2) sinh(kx) / cosh^(d+1)(x/2)  is
    strictly positive, so the sign is always +1.  Accepts a scalar or an
    ndarray of abscissas.
    """
    xs = _check_abscissas(x)
    f = _LogIntegrand(point.k, point.d + 1)
    flat = xs.reshape(-1)
    logmag = f.per_pair(f.shared(flat), flat, 0)[0].reshape(xs.shape)
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
    shift = 2 - integrand.p.astype(int)
    value = np.ldexp(rows.value, shift)
    err = np.ldexp(rows.err_estimate, shift)
    tiny = np.minimum(np.abs(value), err) < sys.float_info.min
    if np.count_nonzero(tiny):
        err[tiny] = np.nextafter(err[tiny] + math.ulp(0.0), math.inf)
    return value, err


def logdet_direct(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) from the single semi-infinite integral.

    The decay rate is (d-2k)/2 and the envelope constant 2^(d-1) pi, both
    exact consequences of the hyperbolic factors.
    """
    value, err = _integrals(point.k, point.d + 1, tolerance)
    return LogDetResult(point.sign * float(value[0]), float(err[0]), "direct", point)


def _factors(
    d: int, js: Sequence[int], tolerance: Optional[Tolerance]
) -> Tuple[List[float], List[float]]:
    """Signed log det(B^2 - alpha_j^2) for each j in js, and the estimates.

    cosh^d (not cosh^(d+1)) in the factor integrand, so the decay rate is
    (d - 2 - 2j)/2; for odd d it is >= 1/2 exactly when 2*alpha_j < d.
    """
    if d % 2 == 0 or d < 3:
        raise ParameterError("d must be odd and >= 3")
    alphas = [j + 0.5 for j in js]
    if 2.0 * max(alphas) >= d:
        raise DivergentIntegralError(
            f"factor integral diverges: 2*alpha = {2 * max(alphas)} >= d = {d}"
        )
    values, errs = _integrals(alphas, d, tolerance)
    signed = [
        -v if ((d - 1) // 2 + j + 1) % 2 else v for j, v in zip(js, values.tolist())
    ]
    return signed, errs.tolist()


def logdet_factor(
    d: int, factor: FactorIndex, tolerance: Optional[Tolerance] = None
) -> float:
    """log det(B^2 - alpha_j^2) on the odd d-sphere, alpha_j = j + 1/2.

    Carries the sign (-1)^((d-1)/2 + j + 1); see the module docstring for
    why this, and not (-1)^((d-1)/2 + j), is the convention consistent with
    the direct k-th order integral.  Requires 2 alpha_j < d for convergence.
    """
    return _factors(d, [factor.j], tolerance)[0][0]


def logdet_sum(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) as the sum of its k per-factor determinants, all
    integrated in one batch."""
    values, errs = _factors(point.d, range(point.k), tolerance)
    return LogDetResult(
        value=math.fsum(values),
        err_estimate=math.fsum(errs),
        method="sum",
        point=point,
    )


def logdet_chebyshev(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) from the Chebyshev-regrouped integrand."""
    value, err = _integrals(point.k, point.d + 1, tolerance, regrouped=True)
    return LogDetResult(point.sign * float(value[0]), float(err[0]), "chebyshev", point)


def logdet_product_rule(
    point: SpherePoint, tolerance: Optional[Tolerance] = None
) -> LogDetResult:
    """log det P_2k(d) = sum_j v_j(k) log det P_2(d - 2j).

    The base values are the k = 1 direct integrals at descending odd
    dimensions d_j = d - 2j, integrated in one batch; for a valid point the
    last dimension d - 2k + 2 is >= 3.  Raises UnsupportedArgumentError
    where a power passes the binary64 range.
    """
    rule = v_coefficients(point.k)
    top = max(rule.v)
    if top > sys.float_info.max:  # from k = 742 on
        raise UnsupportedArgumentError(
            f"product rule at k = {point.k} needs powers v_j(k) up to "
            f"2^{top.bit_length() - 1}, past the binary64 limit "
            f"{sys.float_info.max:.4g}"
        )
    dims = [point.d - 2 * j for j in range(point.k)]
    values, errs = _integrals(1.0, [dj + 1 for dj in dims], tolerance)
    # sign of log det P_2(dj): (-1)^((dj-1)/2 + 1) = (-1)^((dj+1)/2)
    signs = [-1 if (dj + 1) // 2 % 2 else 1 for dj in dims]
    value = math.fsum(w * (s * v) for w, s, v in zip(rule.v, signs, values.tolist()))
    err = math.fsum(w * e for w, e in zip(rule.v, errs.tolist()))
    return LogDetResult(value, err, "product_rule", point)


_METHOD_FUNCS = {
    "direct": logdet_direct,
    "sum": logdet_sum,
    "chebyshev": logdet_chebyshev,
    "product_rule": logdet_product_rule,
}


def logdet(
    point: SpherePoint,
    method: str = "direct",
    tolerance: Optional[Tolerance] = None,
) -> LogDetResult:
    """Dispatch to one of the four evaluation routes by tag."""
    try:
        func = _METHOD_FUNCS[method]
    except KeyError:
        raise UnsupportedArgumentError(
            f"unknown method {method!r}; expected one of {METHODS}"
        ) from None
    return func(point, tolerance)
