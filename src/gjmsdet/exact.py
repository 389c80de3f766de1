"""The exact layer: validated sphere points, results, the route tags and
method selectors, Riemann zeta at odd integers and the closed forms of
log det P_4 on the 5- and 7-spheres.

Nothing here integrates, so nothing here needs numpy: ``import gjmsdet``
and the ``rules`` and ``closed-form`` commands run on this module,
``chebyshev`` and ``errors`` alone.  ``spectral`` imports these names back
and adds the quadrature routes.  Everything is pure and immutable.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .errors import InternalConsistencyError, ParameterError, UnsupportedArgumentError

__all__ = ["SpherePoint", "LogDetResult", "METHODS", "METHOD_SELECTORS", "select_methods",
           "ClosedForm", "zeta_odd", "closed_form_p4"]

_LN2 = math.log(2.0)

METHODS = ("direct", "sum", "chebyshev", "product_rule")

# Every method selector with the routes it names; the CLI's --method offers
# ``product`` for ``product_rule``.
METHOD_SELECTORS = {
    **{tag: (tag,) for tag in METHODS},
    "product": ("product_rule",),
    "all": METHODS,
}


def select_methods(selector: str) -> Tuple[str, ...]:
    """The routes a method selector names: one route tag, ``product`` for
    ``product_rule``, or ``all`` for every route."""
    try:
        return METHOD_SELECTORS[selector]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown method {selector!r}; expected one of "
            f"{', '.join(METHOD_SELECTORS)}"
        ) from None


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, such as an int or a numpy integer; a
    bool is not.  Callers that accept one store ``int(value)``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integer(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is an integer (``is_integer``)."""
    if not is_integer(value):
        raise ParameterError(f"{name} must be an integer")


@dataclass(frozen=True)
class SpherePoint:
    """A validated (dimension, order) pair for one determinant evaluation.
    Any integer type is accepted; the fields hold plain ints."""

    d: int
    k: int

    def __post_init__(self) -> None:
        require_integer("d", self.d)
        object.__setattr__(self, "d", int(self.d))
        if self.d % 2 == 0 or self.d < 3:
            raise ParameterError("d must be odd and >= 3")
        require_integer("k", self.k)
        object.__setattr__(self, "k", int(self.k))
        if not 1 <= self.k <= (self.d - 1) // 2:
            raise ParameterError("k must satisfy 1 <= k <= (d - 1)/2")

    @property
    def sign(self) -> int:
        """Sign of the log-determinant, (-1)^((d-1)/2 + k)."""
        return -1 if ((self.d - 1) // 2 + self.k) % 2 else 1


@dataclass(frozen=True)
class LogDetResult:
    """A computed log-determinant with its error estimate and provenance."""

    value: float
    err_estimate: float
    method: str
    point: SpherePoint


# Terms of Borwein's series: its truncation error is below 3 (3+sqrt 8)^-24,
# about 1e-18, far under half an ulp of zeta(n) in (1, 1.21].
_ZETA_TERMS = 24


@lru_cache(maxsize=None)
def _borwein_weights(m: int) -> Tuple[Fraction, ...]:
    """d_0, ..., d_m of Borwein's algorithm 2:
    d_k = m sum_{i<=k} (m+i-1)! 4^i / ((m-i)! (2i)!)."""
    weights = []
    acc = Fraction(0)
    for i in range(m + 1):
        acc += Fraction(
            math.factorial(m + i - 1) * 4**i,
            math.factorial(m - i) * math.factorial(2 * i),
        )
        weights.append(m * acc)
    return tuple(weights)


@lru_cache(maxsize=None, typed=True)  # so no float hits a numpy integer's entry
def zeta_odd(n: int) -> float:
    """Riemann zeta at an odd integer n >= 3, correctly rounded except
    within about 1e-18 of a rounding boundary.

    P. Borwein's accelerated alternating series ("An efficient algorithm for
    the Riemann zeta function", CMS Conf. Proc. 27, 2000, algorithm 2):

        zeta(n) = -1 / (d_m (1 - 2^(1-n)))
                  * sum_{k<m} (-1)^k (d_k - d_m) / (k+1)^n,

    with m = 24 terms, evaluated in exact rational arithmetic and rounded
    once.
    """
    if not is_integer(n):
        raise UnsupportedArgumentError("n must be an integer")
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise UnsupportedArgumentError(
            "only odd n >= 3 are supported (even values have closed forms)"
        )
    d = _borwein_weights(_ZETA_TERMS)
    series = sum(
        Fraction((-1) ** k) * (d[k] - d[-1]) / (k + 1) ** n
        for k in range(_ZETA_TERMS)
    )
    return float(-series / (d[-1] * (1 - Fraction(1, 2 ** (n - 1)))))


@dataclass(frozen=True)
class ClosedForm:
    """Exact-rational closed form: overall * (log2_coeff * log 2
    + sum_m coeff_m * zeta(m) / pi^(m-1))."""

    d: int
    overall: Fraction
    log2_coeff: Fraction
    zeta_terms: Tuple[Tuple[int, Fraction], ...]
    reference: float

    def evaluate(self) -> Tuple[float, float]:
        """Value and a propagated error estimate from the zeta tolerance."""
        inner = float(self.log2_coeff) * _LN2
        inner_abs = abs(float(self.log2_coeff)) * _LN2
        for m, coeff in self.zeta_terms:
            term = float(coeff) * zeta_odd(m) / math.pi ** (m - 1)
            inner += term
            inner_abs += abs(term)
        value = float(self.overall) * inner
        err = abs(float(self.overall)) * inner_abs * 1e-13 + 8.0 * sys.float_info.epsilon * abs(value)
        if abs(value - self.reference) > 1e-6:
            raise InternalConsistencyError(
                f"closed form for d={self.d} evaluated to {value!r}, "
                f"far from its reference {self.reference}"
            )
        return value, err


_CLOSED_FORMS = {
    5: ClosedForm(
        d=5,
        overall=Fraction(1, 32),
        log2_coeff=Fraction(7),
        zeta_terms=((3, Fraction(-13)), (5, Fraction(15, 2))),
        reference=0.104642,
    ),
    7: ClosedForm(
        d=7,
        overall=Fraction(-1, 256),
        log2_coeff=Fraction(3),
        zeta_terms=(
            (3, Fraction(79, 30)),
            (5, Fraction(-55, 2)),
            (7, Fraction(63, 4)),
        ),
        reference=-0.008297,
    ),
}


def closed_form_p4(d: int) -> LogDetResult:
    """Closed form of log det P_4 on the 5- or 7-sphere, via zeta_odd.

    Only these two dimensions have a stored exact form; they serve as
    quadrature-independent anchors for the fourth-order operator.
    """
    try:
        form = _CLOSED_FORMS[d]
    except (KeyError, TypeError):
        raise UnsupportedArgumentError(
            f"no closed form stored for d = {d!r}; available: 5, 7"
        ) from None
    value, err = form.evaluate()
    return LogDetResult(
        value=value,
        err_estimate=err,
        method="closed_form",
        point=SpherePoint(d, 2),
    )
