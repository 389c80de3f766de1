"""The exact layer: validated sphere points, results, the route tags and
method selectors, Riemann zeta at odd integers and the closed forms of
log det P_4 on the 5- and 7-spheres.

Nothing here integrates, so nothing here needs numpy: ``import gjmsdet``
and the ``rules`` and ``closed-form`` commands run on this module,
``chebyshev`` and ``errors`` alone.  ``spectral`` imports these names back
and adds the quadrature routes.  Everything is pure and immutable.
``Record``, the base of every record of the package, replaces the standard
library's record decorator, which loads ``inspect`` and builds methods with
``exec``: about half of what ``import gjmsdet.cli`` cost.  A record names
its fields only in its ``__slots__``; ``Record.__init__`` is the one
constructor that sets them, and a record that checks its fields calls it
once they pass.
"""

from __future__ import annotations

import math
import numbers
import sys
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
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def require_integer(name: str, value) -> None:
    """Raise ParameterError unless ``value`` is an integer (``is_integer``)."""
    if not is_integer(value):
        raise ParameterError(f"{name} must be an integer")


def _named(name: str, value, sep: str = " = ", text=str) -> str:
    """``name = value``, with ``sep`` between and ``text`` (str) of the
    value, or ``name of b bits`` for an int of over 2000 bits: str() and
    repr() refuse an int of more digits than sys.get_int_max_str_digits(),
    which is at least 640."""
    if isinstance(value, int) and value.bit_length() > 2000:
        return f"{name} of {value.bit_length()} bits"
    return f"{name}{sep}{text(value)}"


class Record:
    """An immutable record.  Its fields are named once, in its class's
    ``__slots__`` (after those of the record classes it derives from; a
    subclass that adds none keeps its parent's), and ``__init__`` sets them
    in that order from positional or keyword arguments: a missing, extra,
    unknown or doubled field raises TypeError.  A record that checks or
    normalises its fields does so in its own ``__init__`` and then calls
    this one.  Records compare (within one class), hash and pickle by their
    fields and print as ``SpherePoint(d=5, k=2)``, an int field of over 2000
    bits by its size (``_named``).  Assigning or deleting a
    field raises AttributeError."""

    __slots__ = ()
    _names: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = cls._names + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        if kwargs or len(args) != len(names):
            given = {**dict(zip(names, args)), **kwargs}
            # with as many arguments as fields, a doubled one leaves one out
            if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
                raise TypeError(f"{type(self).__qualname__}() takes the fields "
                                f"{', '.join(names)}, each once")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(_named(name, getattr(self, name), "=", repr) for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class SpherePoint(Record):
    """A validated (dimension, order) pair for one determinant evaluation.
    Any integer type is accepted; the fields hold plain ints."""

    __slots__ = ("d", "k")

    def __init__(self, d: int, k: int) -> None:
        require_integer("d", d)
        d = int(d)
        if d % 2 == 0 or d < 3:
            raise ParameterError("d must be odd and >= 3")
        require_integer("k", k)
        k = int(k)
        if not 1 <= k <= (d - 1) // 2:
            raise ParameterError("k must satisfy 1 <= k <= (d - 1)/2")
        super().__init__(d, k)

    @property
    def sign(self) -> int:
        """Sign of the log-determinant, (-1)^((d-1)/2 + k)."""
        return -1 if ((self.d - 1) // 2 + self.k) % 2 else 1


def require_point(point) -> None:
    """Raise ParameterError unless ``point`` is a SpherePoint."""
    if not isinstance(point, SpherePoint):
        raise ParameterError(f"point must be a SpherePoint, not {type(point).__name__}")


class LogDetResult(Record):
    """A computed log-determinant with its error estimate and provenance."""

    __slots__ = ("value", "err_estimate", "method", "point")


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
    once (``_zeta_series``).  From n = 55 on it returns 1.0 without the
    series, which rounds to 1.0 there too: zeta(n) - 1 < 2^-n (1 + 2/(n-1))
    is then below 2^-53, half an ulp of 1.
    """
    if not is_integer(n):
        raise UnsupportedArgumentError("n must be an integer")
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise UnsupportedArgumentError(
            "only odd n >= 3 are supported (even values have closed forms)"
        )
    return 1.0 if n >= 55 else _zeta_series(n)


def _zeta_series(n: int) -> float:
    """Borwein's series for zeta(n) at an int n >= 2, rounded once; its work
    grows about as n^2 (the powers (k+1)^n)."""
    d = _borwein_weights(_ZETA_TERMS)
    series = sum(
        Fraction((-1) ** k) * (d[k] - d[-1]) / (k + 1) ** n
        for k in range(_ZETA_TERMS)
    )
    return float(-series / (d[-1] * (1 - Fraction(1, 2 ** (n - 1)))))


class ClosedForm(Record):
    """Exact-rational closed form: overall * (log2_coeff * log 2
    + sum_m coeff_m * zeta(m) / pi^(m-1))."""

    __slots__ = ("d", "overall", "log2_coeff", "zeta_terms", "reference")

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
