"""Adaptive composite Gauss-Kronrod integration on [0, inf), row-batched.

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

Each panel is sampled once, at the 65 nodes of the Gauss-Kronrod rule that
extends the 32-node Gauss-Legendre rule (the Gauss nodes are its odd
nodes, so both sums use the same samples).  The panel's value is the
Kronrod sum K; it is accepted when the Gauss sum G lies within the panel's
share of the error budget of it, and |G - K| is charged to the estimate.
Only rejected panels are bisected, and their halves sampled in the next
sweep.  As G and K share their samples, |G - K| does not see the rounding
of the samples themselves, so each accepted panel is also charged a
round-off floor: c eps (scale + 1) times its mass sum |w f| h, where the
integrand supplies the scale, a bound over the panel on the summed
magnitudes of the log terms each sample was built from.

Panels are also pruned, in one place: at the top of each sweep, each
row's cut is computed from its target b (its tolerance over its initial
panel count), as the point where the envelope's tail falls to eps b (eps
the binary64 epsilon), never before the envelope's start, and a panel
starting at or past its row's cut is dropped.  It is never sampled and
adds nothing to its row's value or panel count; the row's one tail bound
then runs from its first dropped panel instead of from the truncation
point.  Before the first sampling b is abs_tol over the panel count,
which no target is below, and the first layout's samples then set it
once, so a first-layout panel past the target's cut is sampled and then
judged, like any other, by its Gauss-Kronrod difference.  Panels are
counted as they are sampled; a row whose sampled panels and the children
it would sample next pass its panel budget retires its unresolved
panels, kept at their values and charged their |value|, and is flagged
as failed.

``integrate_rows`` runs R independent integrals in lock-step sweeps.  Each
row keeps the state a lone integral has: its truncation point and tail
bound, its initial breaks, its target and per-panel budgets, and its count
of panels evaluated.  The pending (row, panel) pairs of every row sit in
flat arrays beside a row index, so one sweep drops the pairs of all rows
past their cut, evaluates the rest, accepts what it can, and bisects the
others.  Acceptance is decided per panel against its own row's budget,
and a row's value is the exactly rounded (fsum) sum of its accepted
panels, so every row returns the same value and panel count as when it
is integrated alone.
``integrate_semi_infinite`` is the one-row call.

Each pending (row, panel) pair carries its own panel, its ``lo`` and
``hi`` beside its row: a row's first layout is its [0, 1], [1, 2], [2, 4],
..., and a rejected pair is replaced, in place, by its two halves, left
then right.  The integrand is one call, ``integrand(x, row) -> (log|f|,
sign, scale)``, made on _CHUNK_PANELS pairs at a time so memory stays flat:
``x`` holds each pair's abscissas, one pair a line, and ``row`` the column
of their rows; a plain ``f(x, row)`` is wrapped as one
(``_PlainIntegrand``).  Pair order, budgets, acceptance and each row's
fsum are those of a lone call, so a row's result is bit-identical to its
lone call whatever batch it is in.

Each input is checked once, where it enters: ``Tolerance`` checks its
fields when it is built, and ``integrate_rows`` and
``integrate_semi_infinite`` check their envelopes through ``Envelopes``.
``integrate_staged`` takes the envelope as the arrays it reads (log C,
rate and start) and checks nothing again, so the log-determinant routes,
whose plans meet the envelope's conditions by construction, pay for no
second check.

There are no randomized abscissas; identical inputs give bit-identical
results.  Everything here is stateless and safe to call concurrently as long
as the integrand itself is pure.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, NamedTuple, Tuple, Union

import numpy as np

from .errors import AccuracyError, DivergentIntegralError, EvaluationError, ParameterError
from .exact import Record, is_integer, require_type

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

# The 65-node Gauss-Kronrod rule on [-1, 1] that extends the 32-node
# Gauss-Legendre rule, stored as float.hex literals of its non-negative half:
# the nodes from 0 up, the Kronrod weights at them, and the Gauss weights at
# the odd ones (the Gauss nodes).  They were derived in extended precision
# from one Jacobi-matrix routine (Golub-Welsch for the Gauss rule, and
# Laurie's Jacobi-Kronrod matrix, "Calculation of Gauss-Kronrod quadrature
# rules", Math. Comp. 66 (1997), for the Kronrod rule), with a Newton step
# on the nodes and one on the weights' Legendre moment equations.  So the
# Kronrod weights meet the moments of P_0..P_64 at these very nodes to
# 1.5e-17 and those of P_65..P_97 to 4.7e-16, and |G - K| on a constant is
# exactly 0; the tests check every moment exactly in rational arithmetic.
_HALF_NODES = """
    0x0.0p+0 0x1.8bbc8488cc499p-5 0x1.8b466970fe356p-4 0x1.27e0ea717f237p-3
    0x1.896d9df035980p-3 0x1.ea0f7e19c094bp-3 0x1.24c63c4ca48a5p-2 0x1.53d55ce57bdf6p-2
    0x1.82193e5354aa4p-2 0x1.af76b57c6f8f1p-2 0x1.dbd2456d8a559p-2 0x1.038862866b29dp-1
    0x1.188c6b56e5f08p-1 0x1.2ce9146962ca4p-1 0x1.4091dffe104aap-1 0x1.537a89c487f8ap-1
    0x1.65982a70c6cd0p-1 0x1.76e0931d693bap-1 0x1.8748ecea05065p-1 0x1.96c69481c4bc5p-1
    0x1.a550e9fe8a69ep-1 0x1.b2e04fd686a13p-1 0x1.bf6bdbbd2a975p-1 0x1.caea9b4574cb9p-1
    0x1.d556b90282312p-1 0x1.deac0259f7f42p-1 0x1.e6e3884ece544p-1 0x1.edf5518053baap-1
    0x1.f3def105bf36ep-1 0x1.f8a212714bcdcp-1 0x1.fc39bde9182a8p-1 0x1.fe995e70409b6p-1
    0x1.ffc47b00f32e4p-1
"""
_HALF_KRONROD_WEIGHTS = """
    0x1.8be3c5d8332c2p-5 0x1.8b6dee9439e9dp-5 0x1.8a0b0b31d6966p-5 0x1.87bb8524fc1a1p-5
    0x1.8483a9173ea59p-5 0x1.806498c66febdp-5 0x1.7b5c8076a9e74p-5 0x1.757068482ffccp-5
    0x1.6ea9ab3499699p-5 0x1.67090588c01b3p-5 0x1.5e8b7941799a7p-5 0x1.553acfb2ba82bp-5
    0x1.4b26353711451p-5 0x1.404d6d587bd34p-5 0x1.34aadd3baafa6p-5 0x1.284d81200e468p-5
    0x1.1b4bf7c6e058bp-5 0x1.0da3ebc0d3e75p-5 0x1.fe947607e3c85p-6 0x1.e0a81d62f31f3p-6
    0x1.c1c6723b8493ep-6 0x1.a1e2a3fcf07b7p-6 0x1.80ce30cbca512p-6 0x1.5ec37d7e308bdp-6
    0x1.3c30ea095be17p-6 0x1.18fb7f209013fp-6 0x1.e96d1e4247820p-7 0x1.9f5e746b1f02ep-7
    0x1.5592be7c63acbp-7 0x1.0bcbeec934b98p-7 0x1.7ed815b4f4377p-8 0x1.c128f5247c4d6p-9
    0x1.40b25ad13682dp-10
"""
_HALF_GAUSS_WEIGHTS = """
    0x1.8b6d9eaec77adp-4 0x1.87bc776f8c6d6p-4 0x1.8062fc0f6fefap-4 0x1.7572bdb3f6e52p-4
    0x1.6705e18e13ecdp-4 0x1.553ee25ebebc8p-4 0x1.40483e126fd13p-4 0x1.2854103b35e13p-4
    0x1.0d9b9a62cac09p-4 0x1.e0bd76c924987p-5 0x1.a1c6ae961fbf3p-5 0x1.5ee963a335499p-5
    0x1.18c5800a355d1p-5 0x1.a0060a8532011p-6 0x1.0aa3c248696cdp-6 0x1.cbf8bc743cc38p-8
"""


def _unfold(half: str, sign: float, middle: int) -> np.ndarray:
    """A rule array from a literal of its half from the middle out, mirrored
    with ``sign``; its first ``middle`` entries (the node 0 and its Kronrod
    weight) are not repeated."""
    right = np.array([float.fromhex(h) for h in half.split()])
    return np.concatenate((sign * right[middle:][::-1], right))


_NODES = _unfold(_HALF_NODES, -1.0, 1)
_KRONROD_WEIGHTS = _unfold(_HALF_KRONROD_WEIGHTS, 1.0, 1)
_GAUSS_WEIGHTS = _unfold(_HALF_GAUSS_WEIGHTS, 1.0, 0)
_EPS = float(np.finfo(float).eps)
# c eps in the round-off floor c eps (scale + 1) mass, with c = 2.  A
# sample is the exp of a log built from terms t of summed magnitude
# S <= scale.  Evaluating each term costs about an ulp of its size, and
# summing them a rounding each: u S apiece (u = eps/2).  Rounding the
# abscissa moves a term by x |t'(x)| u <= 2 (|t| + 1) u for these logs,
# 2u (S + 1) in all.  That is 4u (S + 1) = 2 eps (S + 1) on the log, so on
# the sample relatively.  The exp, the weight product and the panel's sum
# add a few u that do not grow with S and go uncounted: the samples'
# errors differ in sign, so the worst case is far from met, and on the 83
# points of perfbench/oracle.json no error of direct, sum or chebyshev
# reaches a tenth of its estimate.
_ROUNDOFF = 2.0 * _EPS
_MIN_TRUNCATION = 10.0
_TAIL_TOL_FLOOR = 1e-300
# Pairs per integrand call: 16640 abscissas, so each temporary of one call
# stays at 130 KB whatever the batch size.  At the default Tolerance no
# route sweep on the diagonal d <= 1025, the 55-point grid or scan_k(35)
# holds more pairs (at most 153, product_rule at d = 63..89), so each of
# those sweeps is one integrand call.
_CHUNK_PANELS = 256


def _is_real(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy integer or float, the
    reals the numpy arithmetic here takes (a Fraction is not); a bool is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


class Tolerance(Record):
    """Accuracy target and budget of an integral, shared by every row of a
    batch.  ``rel_tol`` is the target relative error, ``abs_tol`` an
    absolute floor used both for near-zero integrals and for choosing the
    truncation point, ``max_panels`` the most 65-node panels a row may
    evaluate, though its first layout (about log2(truncation point) + 2
    panels, at least 5) is sampled whatever it is, but for the panels the
    envelope prunes.  ``rel_tol`` must be a positive and finite real number,
    ``abs_tol`` a finite and non-negative one (an int, a float or a numpy
    integer or float, not a bool or a Fraction), ``max_panels`` an integer (an int or a numpy
    integer, stored as an int) of at least 4; anything else raises
    ParameterError.

    A panel is accepted on its Gauss-Kronrod difference alone, so a
    ``rel_tol`` that puts its budget below its round-off floor (see
    ``_ROUNDOFF``) is not met by bisecting it.  At d = 21, k = 10 with
    ``rel_tol=1e-15``, the ``direct`` route spends 1858 panels and fails
    with an estimate of 1.5e-3, and ``sum`` returns an estimate of 1.7e-15,
    about 40 times its 4e-17 target."""

    __slots__ = ("rel_tol", "abs_tol", "max_panels")

    def __init__(self, rel_tol: float = 1e-11, abs_tol: float = 1e-15, max_panels: int = 4096) -> None:
        # written so that NaN, which fails every comparison, is rejected too
        if not (_is_real(rel_tol) and 0 < rel_tol < math.inf):
            raise ParameterError("rel_tol must be positive and finite")
        if not (_is_real(abs_tol) and 0 <= abs_tol < math.inf):
            raise ParameterError("abs_tol must be non-negative and finite")
        if not is_integer(max_panels):
            raise ParameterError("max_panels must be an integer")
        max_panels = int(max_panels)
        if max_panels < 4:
            raise ParameterError("max_panels must allow at least a few panels")
        super().__init__(rel_tol, abs_tol, max_panels)


_DEFAULT_TOLERANCE = Tolerance()


class Envelopes:
    """Decay envelopes of R integrands, one row each:
    |f_r(x)| <= exp(log_const[r]) * e^(-rate[r] x) for x >= start[r].

    Scalars broadcast against the arrays; the attributes are 1-D float
    arrays of the common length R.  A field that is not real (a str, a
    bool, a complex number, None, a ragged sequence) raises ParameterError.
    """

    __slots__ = ("log_const", "rate", "start")

    def __init__(self, log_const, rate, start=0.0) -> None:
        try:  # numpy raises ValueError on a ragged field, such as [1.0, [2.0, 3.0]]
            fields = [np.asarray(v) for v in (log_const, rate, start)]
            real = all(v.dtype.kind in "iuf" for v in fields)
        except ValueError:
            real = False
        if not real:
            raise ParameterError("envelope fields must be real numbers")
        fields = [np.array(v, dtype=float, ndmin=1) for v in fields]
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
            raise ParameterError("env_start must be non-negative and finite")

    def __len__(self) -> int:
        return self.rate.size


class QuadratureSpec(Record):
    """Tolerances, budget and decay envelope for one semi-infinite integral:
    the argument of ``integrate_semi_infinite`` and nothing else.  The
    log-determinant routes, the scans and the CLI take a ``Tolerance``, as
    each route knows its own integrand's envelope.

    ``decay_rate`` is the exponent L of the envelope |f(x)| <= env_const *
    e^(-L x), valid for x >= env_start.  ``rel_tol``, ``abs_tol`` and
    ``max_panels`` are as in ``Tolerance``, and so are their defaults and
    checks; ``decay_rate`` and ``env_start`` are checked by ``Envelopes``.
    """

    __slots__ = ("decay_rate", "rel_tol", "abs_tol", "max_panels", "env_const", "env_start")

    def __init__(self, decay_rate: float, rel_tol: float = _DEFAULT_TOLERANCE.rel_tol,
                 abs_tol: float = _DEFAULT_TOLERANCE.abs_tol,
                 max_panels: int = _DEFAULT_TOLERANCE.max_panels,
                 env_const: float = 1.0, env_start: float = 0.0) -> None:
        # validates the tolerance fields and gives max_panels as an int
        max_panels = Tolerance(rel_tol, abs_tol, max_panels).max_panels
        # before the math.log of it in ``envelope``; written, as in
        # Tolerance, so that NaN is rejected too
        if not (_is_real(env_const) and 0 < env_const < math.inf):
            raise ParameterError("env_const must be positive and finite")
        super().__init__(decay_rate, rel_tol, abs_tol, max_panels, env_const, env_start)
        self.envelope  # checks decay_rate and env_start

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(self.rel_tol, self.abs_tol, self.max_panels)

    @property
    def envelope(self) -> Envelopes:
        """The one-row envelope of this spec; a field given as a sequence or
        an array, which ``Envelopes`` would read as rows, is 2-D here and
        raises ParameterError."""
        return Envelopes(math.log(self.env_const), [self.decay_rate], [self.env_start])


class IntegralResult(Record):
    """``panels_used`` counts the panels sampled for the value (0 when the
    envelope bounds the whole integral); malformed fields raise ParameterError."""

    __slots__ = ("value", "err_estimate", "panels_used", "truncation_point")

    def __init__(self, value: float, err_estimate: float, panels_used: int,
                 truncation_point: float) -> None:
        used = panels_used  # the comparisons reject NaN too
        if not (-math.inf < value < math.inf and 0 <= err_estimate < math.inf
                and 0 < truncation_point < math.inf and type(used) is int and used >= 0):
            raise ParameterError("malformed integral result")
        super().__init__(value, err_estimate, panels_used, truncation_point)


def _truncation(log_c, decay_rate, log_tol, floor=_MIN_TRUNCATION):
    """Where the tail bound C e^(-L x) / L falls to e^log_tol, at least ``floor``."""
    return np.maximum((log_c - np.log(decay_rate) - log_tol) / decay_rate, floor)


@np.errstate(over="ignore")
def _finite_truncation(log_c, rate, log_tol):
    """``_truncation`` of the envelopes ``log_c`` and ``rate`` (1-D float
    arrays), or DivergentIntegralError naming the first whose truncation
    point passes the binary64 range, as a tiny rate or a huge log C puts
    it; ``integrate_staged``, which the routes call, does not check this."""
    x_max = _truncation(log_c, rate, log_tol)
    if x_max.max() == np.inf:
        r = int(x_max.argmax())  # the first infinite one
        raise DivergentIntegralError(
            f"envelope exp({log_c[r].item()!r}) e^(-{rate[r].item()!r} x) has no finite "
            "truncation point"
        )
    return x_max


def truncation_point(c_bound: float, decay_rate: float, tol: float) -> float:
    """Smallest X with c_bound * e^(-decay_rate * X) / decay_rate <= tol,
    clamped below at 10; DivergentIntegralError where X is not finite.

    The left side bounds the discarded tail of any integrand satisfying the
    envelope, so integrating on [0, X] loses at most ``tol``.
    """
    if not 0 < decay_rate < math.inf:
        raise DivergentIntegralError("decay_rate must be positive and finite")
    if not (0 < c_bound < math.inf and 0 < tol < math.inf):
        raise ParameterError("c_bound and tol must be positive and finite")
    x_max = _finite_truncation(np.array([math.log(c_bound)]), np.array([decay_rate]),
                               math.log(tol))
    return float(x_max[0])


class _PlainIntegrand:
    """A row integrand ``f(x, row)`` as the integrand ``integrate_staged``
    calls: ``f`` receives flat abscissas and rows, as ``integrate_rows``
    promises."""

    __slots__ = ("f",)

    def __init__(self, f: RowIntegrand) -> None:
        self.f = f

    def __call__(self, x: np.ndarray, row: np.ndarray):
        """``f``'s (log|f|, sign), and as each pair's scale max |log f| + 1
        over its samples, a zero sample (log -inf) left out.  ParameterError
        unless ``f`` gives one real log|f| per abscissa and a real sign that
        is one number or one per abscissa."""
        out = self.f(x.reshape(-1), row.repeat(x.shape[1]))
        try:  # a result that is not a pair of real arrays, such as None or strings
            logmag, sign = (np.asarray(v, dtype=float) for v in out)
        except (TypeError, ValueError):
            raise ParameterError(
                "integrand must return (log|f|, sign) as real numbers or arrays"
            ) from None
        if logmag.size != x.size or sign.ndim and sign.size != x.size:
            raise ParameterError(
                f"integrand returned {logmag.size} log-magnitudes and {sign.size} signs "
                f"for {x.size} abscissas; expected one each, or one sign for all"
            )
        size = np.abs(logmag).reshape(x.shape)
        return logmag, sign, size.max(axis=1, where=size < np.inf, initial=0.0) + 1.0


class RowArrays(NamedTuple):
    """What ``integrate_staged`` returns, one entry per row: the fields of
    ``IntegralResult`` as arrays, and ``failed``, true where the row ran out
    of ``max_panels``, yet has its best value and four-part estimate."""

    value: np.ndarray
    err_estimate: np.ndarray
    panels_used: np.ndarray
    truncation_point: np.ndarray
    failed: np.ndarray


def _abscissas(center: np.ndarray, half: np.ndarray) -> np.ndarray:
    return center[:, None] + half[:, None] * _NODES


def _eval_chunk(integrand, lo, hi, row):
    """Kronrod value, its distance to the embedded Gauss value and the
    round-off floor of each of a chunk of pairs: pair i integrates row
    ``row[i]`` over [lo[i], hi[i]], in one call of ``integrand``."""
    center = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = _abscissas(center, h)
    logmag, sign, scale = integrand(x, row[:, None])
    logmag = np.asarray(logmag, dtype=float).reshape(x.shape)
    fx = np.exp(logmag)
    sign = np.asarray(sign, dtype=float)
    if sign.ndim:
        fx *= sign.reshape(fx.shape)
    elif sign != 1.0:
        fx *= sign
    gauss = (fx[:, 1::2] * _GAUSS_WEIGHTS).sum(axis=1) * h
    fx *= _KRONROD_WEIGHTS
    vals = fx.sum(axis=1) * h
    # a scalar sign of 1 leaves every term positive, so the mass is the value
    mass = vals if sign.ndim == 0 and sign == 1.0 else np.abs(fx, out=fx).sum(axis=1) * h
    # A NaN or infinite sample, or a panel sum past binary64, leaves its
    # panel's mass non-finite, so one check on the masses guards them all.
    bad = ~np.isfinite(mass)
    if np.count_nonzero(bad):
        _raise_non_finite(x[bad], logmag[bad], fx[bad], float(center[bad][0]))
    # the rounding factor before the mass, so that a mass near the binary64
    # limit cannot overflow
    return vals, np.abs(gauss - vals), mass * ((scale + 1.0) * _ROUNDOFF)


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


def _eval_panels(integrand, lo, hi, row):
    """Rows of value, difference and floor (see ``_eval_chunk``) of each
    (row, panel) pair, pair i integrating row ``row[i]`` over [lo[i],
    hi[i]]: one sweep's samples, taken _CHUNK_PANELS pairs at a time."""
    out = np.empty((3, row.size))
    for s in range(0, row.size, _CHUNK_PANELS):
        e = s + _CHUNK_PANELS
        out[:, s:e] = _eval_chunk(integrand, lo[s:e], hi[s:e], row[s:e])
    return out


def _initial_panels(x_max: np.ndarray):
    """Each row's first panels, [0, 1], [1, 2], [2, 4], ..., [2^m, x_max]
    with 2^m < x_max <= 2^(m+1), as (lo, hi, row) of one pair each, row by
    row, and the panels per row.  Every x_max is at least _MIN_TRUNCATION =
    10, so no row's last panel is its first."""
    mant, exp = np.frexp(x_max)  # x_max = mant 2^exp, 1/2 <= mant < 1
    counts = exp + 1 - (mant == 0.5)
    ends = counts.cumsum()
    row = np.arange(x_max.size).repeat(counts)
    hi = np.ldexp(1.0, np.arange(ends[-1]) - (ends - counts)[row])  # 2^j at panel j of its row
    lo = 0.5 * hi
    lo[ends - counts] = 0.0
    hi[ends - 1] = x_max
    return lo, hi, row, counts


def _prune(tail, log_c, rate, start, bound, lo, row):
    """Mask of the pairs starting at or past their row's cut, where the
    envelope (log C, rate and start, as ``integrate_staged`` takes them)
    has its tail fall to ``bound`` (never before its start), which a sweep
    drops unsampled, or None.  Each such pair raises its row's ``tail`` to
    the envelope's tail from its panel's start: dropped panels run on to
    x_max, so the tail from the first covers them all."""
    past = lo >= _truncation(log_c, rate, np.log(bound), start)[row]
    if not np.count_nonzero(past):
        return None
    r = row[past]
    np.maximum.at(tail, r, np.exp(log_c[r] - rate[r] * lo[past]) / rate[r])
    return past


def integrate_rows(
    f: RowIntegrand, envelopes: Envelopes, tolerance: Tolerance
) -> List[IntegralResult]:
    """Approximate int_0^inf f_r(x) dx for every row r of ``envelopes``.

    ``f(x, row)`` evaluates, at each abscissa x[i], the integrand of row
    row[i] and returns ``(log|f|, sign)``; it receives at most
    _CHUNK_PANELS * 65 abscissas a call.  Returns one IntegralResult per
    row, each identical to what the row would give integrated alone; its
    ``err_estimate`` adds four honest contributions: the accepted panels'
    Gauss-Kronrod differences, the |value| of the panels retired when their
    row ran out of panels, the analytic tail bound from the truncation point
    or the first dropped panel, and a round-off floor, the absolute mass of
    each accepted panel times 2 eps (max |log f| + 2) over its samples.

    Raises AccuracyError when a row runs out of ``tolerance.max_panels``
    first, for the lowest such row, carrying that row's value, estimate and
    panel count; EvaluationError on a non-finite integrand sample or a
    panel sum or integral that overflows binary64.  Overflow is reported by
    that error alone: numpy's overflow warnings are silenced for the call.
    Raises DivergentIntegralError, before any sample, where a row's
    truncation point passes the binary64 range (``_finite_truncation``).
    ``envelopes`` that are not an Envelopes, a ``tolerance`` that is not a
    Tolerance, or an ``f`` that does not return real arrays of the
    abscissas' size raise ParameterError.
    """
    require_type("envelopes", envelopes, Envelopes)
    require_type("tolerance", tolerance, Tolerance)
    tail_tol = max(tolerance.abs_tol, _TAIL_TOL_FLOOR)  # as integrate_staged takes it
    _finite_truncation(envelopes.log_const, envelopes.rate, math.log(tail_tol))
    rows = integrate_staged(
        _PlainIntegrand(f), envelopes.log_const, envelopes.rate, envelopes.start, tolerance
    )
    if np.count_nonzero(rows.failed):
        r = int(rows.failed.argmax())
        fields = (a[r].item() for a in rows[:3])  # value, err_estimate, panels_used
        raise AccuracyError("panel budget exhausted before tolerance was met", *fields)
    return [IntegralResult(*fields) for fields in zip(*(a.tolist() for a in rows[:4]))]


@np.errstate(over="ignore", divide="ignore")
def integrate_staged(integrand, log_c, rate, start, tolerance: Tolerance) -> RowArrays:
    """``integrate_rows`` for an integrand that also bounds its rounding,
    returning the rows' results as arrays rather than IntegralResult
    objects, a row that runs out of ``max_panels`` flagged in ``failed``
    rather than raised.

    The envelope comes as the arrays this loop reads: ``log_c`` and
    ``rate``, float arrays of one length R (the rows), and ``start``, a
    scalar or such an array.  They are not checked here: ``integrate_rows``
    checks them through ``Envelopes``, and every route plan has a finite
    log C and a rate of at least 1/2 by construction.  ``tolerance`` is a
    ``Tolerance``.

    ``integrand(x, row)`` takes a 2-D array of abscissas, one (row, panel)
    pair a line and at most _CHUNK_PANELS lines, and the column of those
    pairs' rows, and returns ``(log|f|, sign)``, each an array of the shape
    of ``x`` or a sign that is one number, and ``scale``, one number a pair
    that bounds the summed magnitudes of the log terms behind each of its
    samples (see ``_ROUNDOFF``).

    A row's target is abs_tol over its initial panel count until its first
    layout is sampled, which sets it once; every sweep's cut follows it
    (``_prune``).  Panels are counted as they are sampled, and
    ``max_panels`` caps a row's sampled panels plus the children it would
    sample next.
    """
    n_rows = rate.size
    tail_tol = max(tolerance.abs_tol, _TAIL_TOL_FLOOR)
    x_max = np.maximum(_truncation(log_c, rate, math.log(tail_tol)), start)
    # the tail bound charged, from x_max or from a row's first dropped panel
    tail = np.exp(log_c - rate * x_max) / rate

    lo, hi, row, counts = _initial_panels(x_max)
    # before the first sampling abs_tol, which no target is below, stands in
    # for the target
    target = tolerance.abs_tol / counts
    budgets = target[row]
    panels = np.zeros(n_rows, dtype=int)

    min_width = 1e-12 * x_max
    accepted_vals: List[np.ndarray] = []
    accepted_rows: List[np.ndarray] = []
    charged = np.zeros(n_rows)
    failed = np.zeros(n_rows, dtype=bool)

    for sweep in itertools.count():
        # the one pruning step: a pair past its row's cut is dropped
        # unsampled, and adds only to its row's tail bound
        dropped = _prune(tail, log_c, rate, start, _EPS * target, lo, row)
        if dropped is not None:
            kept = ~dropped
            lo, hi, row, budgets = lo[kept], hi[kept], row[kept], budgets[kept]
        vals, diff, floor = _eval_panels(integrand, lo, hi, row)
        panels += np.bincount(row, minlength=n_rows)
        if not sweep:
            # the first layout, row by row, sets the targets
            rough = np.bincount(row, vals, n_rows)
            peak = np.zeros(n_rows)
            np.maximum.at(peak, row, np.abs(vals))
            target = np.maximum(
                tolerance.abs_tol, tolerance.rel_tol * np.maximum(np.abs(rough), peak)
            ) / counts
            budgets = target[row]

        # an accepted pair is charged its difference and floor, one retired
        # as its row ran out of panels its |value|
        charge = diff + floor
        pending = diff > budgets
        if np.count_nonzero(pending):
            # a panel this narrow is accepted as it is
            pending &= hi - lo > min_width[row]
            needed = 2 * np.bincount(row[pending], minlength=n_rows)
            over = (needed > 0) & (panels + needed > tolerance.max_panels)
            if np.count_nonzero(over):
                failed |= over
                out = pending & over[row]
                np.copyto(charge, np.abs(vals), where=out)
                pending &= ~out
        done = ~pending
        accepted_vals.append(vals[done])
        accepted_rows.append(row[done])
        charged += np.bincount(row[done], charge[done], n_rows)
        if not np.count_nonzero(pending):
            break

        # each rejected pair becomes its two halves, left then right
        lo, hi = lo[pending].repeat(2), hi[pending].repeat(2)
        lo[1::2] = hi[0::2] = 0.5 * (lo[0::2] + hi[1::2])
        row = row[pending].repeat(2)
        budgets = (budgets[pending] * 0.5).repeat(2)

    if sweep:  # later sweeps' pairs follow the first's: put them row by row
        all_rows = np.concatenate(accepted_rows)
        flat = np.concatenate(accepted_vals)[np.argsort(all_rows, kind="stable")].tolist()
    else:  # the first layout is row by row already
        all_rows, flat = accepted_rows[0], accepted_vals[0].tolist()
    leaves = np.bincount(all_rows, minlength=n_rows)
    ends = leaves.cumsum().tolist()
    value = np.empty(n_rows)
    for r, (s, e) in enumerate(zip([0, *ends[:-1]], ends)):
        try:
            value[r] = math.fsum(flat[s:e])
        except OverflowError:
            raise EvaluationError(
                "integral overflowed up to the truncation point", float(x_max[r])
            ) from None
    return RowArrays(value, charged + tail, leaves, x_max, failed)


def integrate_semi_infinite(f: LogIntegrand, spec: QuadratureSpec) -> IntegralResult:
    """Approximate int_0^inf f(x) dx for a log-magnitude-plus-sign integrand.

    The one-row case of ``integrate_rows``: ``f`` takes only the abscissas,
    and ``spec`` gives the envelope and the tolerance.  Returns an
    IntegralResult; raises AccuracyError (carrying the best value and
    estimate) when ``spec.max_panels`` runs out first, EvaluationError on
    a non-finite integrand sample or an overflowing panel sum,
    DivergentIntegralError where the truncation point is not finite, and
    ParameterError for a ``spec`` that is not a QuadratureSpec.
    """
    require_type("spec", spec, QuadratureSpec)
    return integrate_rows(lambda x, row: f(x), spec.envelope, spec.tolerance)[0]
