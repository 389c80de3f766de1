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
overflow.  All functions are pure and the returned values immutable, safe
to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import InternalConsistencyError, ParameterError
from .exact import Record, is_integer

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


def _powers(k: int) -> Iterator[int]:
    """v_0(k), ..., v_{k-1}(k) for an int k >= 1, one at a time, so that a
    caller may stop early: they rise to one peak near j = k/sqrt(5), then
    fall.  Each follows from the one before by the exact ratio
    (k+j+1)(k-1-j) / ((2j+2)(2j+3)); a division that leaves a remainder
    means the construction is broken and raises InternalConsistencyError.
    """
    power = k
    yield power
    for j in range(k - 1):
        power, r = divmod(power * (k + j + 1) * (k - 1 - j), (2 * j + 2) * (2 * j + 3))
        if r != 0:
            raise InternalConsistencyError(
                f"v[{j + 1}] of k = {k} is not an integer: remainder {r}"
            )
        yield power


@lru_cache(maxsize=None, typed=True)  # so no float hits a numpy integer's entry
def v_coefficients(k: int) -> ProductRule:
    """Determinant product-rule powers v_j(k) = C(k+j, 2j+1), j < k, built
    by ``_powers``."""
    k = _check_order(k)
    return ProductRule(k=k, v=tuple(_powers(k)))


@lru_cache(maxsize=None, typed=True)  # so no float hits a numpy integer's entry
def u_coefficients(k: int) -> OddChebyshev:
    """Exact odd-power coefficients of U_{2k-1},
    u_j = (-1)^(k-1-j) 2^(2j+1) v_j(k)."""
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
    """
    k = _check_order(k)
    y = float(y)
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
