"""Exact integer machinery for Chebyshev polynomials of the second kind at
odd order, U_{2k-1}, and the determinant product-rule powers they induce.

U_{2k-1} is an odd polynomial,

    U_{2k-1}(x) = x * (u_0 + u_1 x^2 + ... + u_{k-1} x^{2k-2}),

whose integer coefficients u_j alternate in sign, end in the leading value
u_{k-1} = 2^(2k-1), and sum to U_{2k-1}(1) = 2k.  On the hyperbolic range
the polynomial carries the identity

    sinh(k x) / sinh(x/2) = U_{2k-1}(cosh(x/2)),

which is what lets a 2k-order determinant integrand be regrouped into
second-order pieces.  Dividing signs and powers of two out of the u_j,

    v_j(k) = (-1)^(k-1) * (-1)^j * u_j(k) / 2^(2j+1),

gives positive integers: the exponents of the determinant product rule

    det P_2k(d) = prod_{j<k} det P_2(d - 2j) ^ v_j(k).

The v_j have the closed form v_j(k) = C(k+j, 2j+1) = C(k+j, k-1-j)
(Abramowitz & Stegun 22.3.7).  They are built in O(k) exact integer steps
from v_0 = k and the ratio

    v_{j+1} / v_j = (k+j+1)(k-1-j) / ((2j+2)(2j+3)),

and the u_j follow by restoring sign and power of two,
u_j = (-1)^(k-1-j) 2^(2j+1) v_j.  Python integers have no order cap and no
overflow, but str() prints none of more than sys.get_int_max_str_digits()
digits, and the largest power has about 0.42 k digits; so the one pass
that builds the powers, ``product_rule_powers``, refuses the first past
that limit (at the default 4300, from k = 10294 on), and a huge k is
refused at once rather than built.  Everything here builds its powers
there.  All functions are pure and the returned values immutable, safe to
share between threads.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import InternalConsistencyError, ParameterError, UnsupportedArgumentError
from .exact import Record, _named, is_integer

__all__ = [
    "OddChebyshev",
    "ProductRule",
    "u_coefficients",
    "eval_u",
    "v_coefficients",
]


class OddChebyshev(Record):
    """Exact coefficients of U_{2k-1} in odd-polynomial form.

    ``u[j]`` is the integer coefficient of x^(2j+1); ``len(u) == k``.
    """

    __slots__ = ("k", "u")

    def __init__(self, k: int, u: tuple[int, ...]) -> None:
        if k < 1:
            raise ParameterError("k must be a positive integer")
        if len(u) != k:
            raise InternalConsistencyError(f"expected {k} odd coefficients, got {len(u)}")
        if u[-1] != 1 << (2 * k - 1):
            raise InternalConsistencyError(f"leading coefficient {u[-1]} != 2^{2 * k - 1}")
        for j, c in enumerate(u):
            if (c > 0) != ((k - 1 - j) % 2 == 0):
                raise InternalConsistencyError(
                    f"u[{j}] = {c} breaks the (-1)^(k-1-j) sign pattern"
                )
        super().__init__(k, u)


class ProductRule(Record):
    """Positive integer exponents v_j(k) of the determinant product rule."""

    __slots__ = ("k", "v")

    def __init__(self, k: int, v: tuple[int, ...]) -> None:
        if k < 1:
            raise ParameterError("k must be a positive integer")
        if len(v) != k:
            raise InternalConsistencyError(f"expected {k} powers, got {len(v)}")
        if any(p <= 0 for p in v):
            raise InternalConsistencyError(f"non-positive power in {v}")
        if v[0] != k or v[-1] != 1:
            raise InternalConsistencyError(f"powers {v} break v[0] = k, v[k-1] = 1")
        super().__init__(k, v)


def _check_order(k) -> int:
    if not is_integer(k) or k < 1:
        raise ParameterError("k must be a positive integer")
    return int(k)


def product_rule_powers(k: int) -> Iterator[int]:
    """v_0(k), ..., v_{k-1}(k), one at a time, uncached.  Each follows from
    the one before by the exact ratio (k+j+1)(k-1-j) / ((2j+2)(2j+3)); a
    division that leaves a remainder means the construction is broken and
    raises InternalConsistencyError.  Raises ParameterError unless k is a
    positive integer, and UnsupportedArgumentError at the first power with
    more digits than sys.get_int_max_str_digits() lets str() print (a
    limit of 0 is none), before any later one is built."""
    k = _check_order(k)
    limit = sys.get_int_max_str_digits()
    bound = 10**limit if limit else math.inf
    power = k
    for j in range(k):
        if j:
            power, r = divmod(power * (k + j) * (k - j), (2 * j) * (2 * j + 1))
            if r != 0:
                raise InternalConsistencyError(
                    f"v[{j}] of k = {k} is not an integer: remainder {r}"
                )
        if power >= bound:
            raise UnsupportedArgumentError(
                f"power v_{j}(k) at {_named('k', k)} has more than the interpreter's limit of "
                f"{limit} digits for integer string conversion; "
                "raise it with PYTHONINTMAXSTRDIGITS or sys.set_int_max_str_digits"
            )
        yield power


@lru_cache(maxsize=None, typed=True)  # so no float hits a numpy integer's entry
def v_coefficients(k: int) -> ProductRule:
    """Determinant product-rule powers v_j(k) = C(k+j, 2j+1), j < k, built
    by ``product_rule_powers``, which refuses a k whose powers pass the
    interpreter's digit limit."""
    k = _check_order(k)
    return ProductRule(k=k, v=tuple(product_rule_powers(k)))


@lru_cache(maxsize=None, typed=True)  # so no float hits a numpy integer's entry
def u_coefficients(k: int) -> OddChebyshev:
    """Exact odd-power coefficients of U_{2k-1},
    u_j = (-1)^(k-1-j) 2^(2j+1) v_j(k), from ``v_coefficients`` (so with
    its refusal past the digit limit)."""
    k = _check_order(k)
    coeffs = []
    for j, v in enumerate(v_coefficients(k).v):
        c = v << (2 * j + 1)
        coeffs.append(-c if (k - 1 - j) % 2 else c)
    return OddChebyshev(k=k, u=tuple(coeffs))


def eval_u(k: int, y: float) -> float:
    """Value of U_{2k-1}(y) by Horner evaluation of the odd polynomial.

    The Horner pass runs in exact rational arithmetic (the coefficients are
    integers and a binary64 ``y`` is an exact rational), with one correctly
    rounded conversion at the end.  Float-only Horner would lose up to seven
    digits near y = 1, where coefficients of size ~2^(2k-1) cancel down to
    U_{2k-1}(1) = 2k; staying exact keeps every result at the 1-ulp level.

    For |y| >= 1 the result also equals sinh(2k*arccosh|y|)/sinh(arccosh|y|)
    up to the odd symmetry in y; that hyperbolic ratio is used as an
    independent cross-check in the test suite, never as the value here.
    The coefficients come from ``u_coefficients``, so a k whose powers pass
    the interpreter's digit limit raises UnsupportedArgumentError.  A ``y``
    that is not a real number, or whose magnitude passes binary64, raises
    ParameterError.
    """
    k = _check_order(k)
    if not isinstance(y, numbers.Real):
        raise ParameterError("y must be a real number")
    y = float(y) if abs(y) <= sys.float_info.max else math.inf
    if not math.isfinite(y):
        raise ParameterError("y must be finite")
    coeffs = u_coefficients(k).u
    yy = Fraction(y) * Fraction(y)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * yy + c
    result = acc * Fraction(y)
    try:
        return float(result)
    except OverflowError:
        return math.inf if result > 0 else -math.inf
