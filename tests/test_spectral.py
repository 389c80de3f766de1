"""Tests for the spectral core: integrands, the four log-det routes, odd
zeta values and the closed forms.

Frozen reference numbers come from tests/_oracles.py (tanh-sinh quadrature
at 40 digits, independent of this package's Gauss-Kronrod pipeline).
"""

import json
import math
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gjmsdet import errors, exact, quadrature, spectral
from gjmsdet import (
    DivergentIntegralError,
    EvaluationError,
    METHODS,
    FactorIndex,
    ParameterError,
    QuadratureSpec,
    SpherePoint,
    Tolerance,
    UnsupportedArgumentError,
    closed_form_p4,
    integrand_direct,
    logdet,
    logdet_chebyshev,
    logdet_direct,
    logdet_factor,
    logdet_product_rule,
    logdet_sum,
    scan_k,
    zeta_odd,
)
from gjmsdet.quadrature import integrate_staged

# frozen 40-digit oracle values
REF_D5K2 = 0.1046421441058079165
REF_D7K2 = -0.008296659616355104616
REF_D3K1 = 0.12761410955239642118
REF_D35K17 = 0.027271788068007605
REF_D1025K512 = 0.002184270753602174
REF_INTEGRAND_D5K2_X1 = 0.26570133120189691

# decimals quoted for the closed forms
PRINTED_D5 = 0.104642
PRINTED_D7 = -0.008297

TIGHT = Tolerance(rel_tol=1e-13)

PACKAGE_ERRORS = tuple(
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and cls.__module__ == errors.__name__
)


class TestSpherePoint:
    def test_valid(self):
        p = SpherePoint(5, 2)
        assert p.sign == 1
        assert SpherePoint(7, 2).sign == -1

    @pytest.mark.parametrize("d", [4, 2, 1, -3, 0])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ParameterError, match="d must be"):
            SpherePoint(d, 1)

    @pytest.mark.parametrize("d,k", [(5, 3), (7, 4), (3, 2), (5, 0), (9, -1)])
    def test_rejects_bad_order(self, d, k):
        with pytest.raises(ParameterError, match="k must satisfy"):
            SpherePoint(d, k)

    def test_rejects_non_integers(self):
        with pytest.raises(ParameterError):
            SpherePoint(5.0, 2)
        with pytest.raises(ParameterError):
            SpherePoint(5, 2.0)

    def test_numpy_integers_become_plain_ints(self):
        point = SpherePoint(np.int64(5), np.int32(2))
        assert point == SpherePoint(5, 2) and hash(point) == hash(SpherePoint(5, 2))
        assert type(point.d) is int and type(point.k) is int

    def test_points_from_arange(self):
        for d in np.arange(3, 22, 2):
            for k in np.arange(1, (d - 1) // 2 + 1):
                point = SpherePoint(d, k)
                assert (type(point.d), type(point.k)) == (int, int)
                assert point == SpherePoint(int(d), int(k))
        for method in METHODS:
            got = logdet(SpherePoint(*np.array([21, 10])), method)
            want = logdet(SpherePoint(21, 10), method)
            assert (got.value.hex(), got.err_estimate.hex()) == (
                want.value.hex(), want.err_estimate.hex()
            )
            assert got.point == want.point

    @pytest.mark.parametrize("bad", [np.float64(5.0), np.bool_(True), True, "5"])
    def test_rejects_other_types_with_the_same_message(self, bad):
        with pytest.raises(ParameterError, match="^d must be an integer$"):
            SpherePoint(bad, 1)
        with pytest.raises(ParameterError, match="^k must be an integer$"):
            SpherePoint(5, bad)


class TestIntegrand:
    def test_reference_value(self):
        logmag, sign = integrand_direct(SpherePoint(5, 2), 1.0)
        assert sign == 1
        assert abs(math.exp(logmag) - REF_INTEGRAND_D5K2_X1) < 1e-14

    def test_no_overflow_at_large_arguments(self):
        # at x = 100 the integrand is ~e^(-34.5); the naive cosh^36(50)
        # would overflow long before that
        logmag, _ = integrand_direct(SpherePoint(35, 17), 100.0)
        asymptote = (
            -0.5 * (35 - 2 * 17) * 100.0
            + 34 * math.log(2.0)
            - 2.0 * math.log(100.0)
            + math.log(math.pi)
        )
        assert math.isfinite(logmag)
        assert abs(logmag - asymptote) < 0.01

    @pytest.mark.parametrize("x", [1e155, 1e300])
    def test_huge_arguments_give_minus_infinity_quietly(self, x):
        # x^2 overflows binary64 here; -inf is the limit, and no numpy
        # warning escapes (the suite turns warnings into errors)
        assert integrand_direct(SpherePoint(5, 2), x) == (-math.inf, 1)
        logmag, _ = integrand_direct(SpherePoint(5, 2), np.array([1.0, x]))
        assert math.isfinite(logmag[0]) and logmag[1] == -math.inf

    @pytest.mark.parametrize("d,k", [(3, 1), (9, 4), (21, 10)])
    def test_small_x_limit(self, d, k):
        # magnitude -> k x^2 / (2 pi) as x -> 0
        p = SpherePoint(d, k)
        for x in (1e-4, 1e-6):
            logmag, _ = integrand_direct(p, x)
            assert math.exp(logmag) / (k * x * x / (2.0 * math.pi)) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_positivity_over_samples(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(1e-6, 60.0, size=500)
        logmag, sign = integrand_direct(SpherePoint(11, 3), xs)
        assert np.all(sign == 1.0)
        assert np.all(np.isfinite(logmag))

    @pytest.mark.parametrize("d,k", [(5, 2), (21, 10), (35, 17), (35, 1)])
    def test_decay_envelope(self, d, k):
        # beyond x = 20 the log-magnitude tracks
        # log(2^(d-1) pi) - 2 log x - (d-2k) x/2 within 0.5
        p = SpherePoint(d, k)
        for x in (20.0, 30.0, 50.0):
            logmag, _ = integrand_direct(p, x)
            envelope = (
                (d - 1) * math.log(2.0)
                + math.log(math.pi)
                - 2.0 * math.log(x)
                - 0.5 * (d - 2 * k) * x
            )
            assert abs(logmag - envelope) < 0.5

    def test_rejects_nonpositive_x(self):
        p = SpherePoint(5, 2)
        with pytest.raises(ParameterError):
            integrand_direct(p, 0.0)
        with pytest.raises(ParameterError):
            integrand_direct(p, -1.0)
        with pytest.raises(ParameterError):
            integrand_direct(p, np.array([1.0, -2.0]))


class TestLogdetDirect:
    def test_printed_reference_d5(self):
        res = logdet_direct(SpherePoint(5, 2))
        assert res.method == "direct"
        assert abs(res.value - PRINTED_D5) < 5e-6
        assert abs(res.value - REF_D5K2) < 1e-13

    def test_printed_reference_d7(self):
        res = logdet_direct(SpherePoint(7, 2))
        assert abs(res.value - PRINTED_D7) < 5e-6
        assert abs(res.value - REF_D7K2) < 1e-13

    def test_frozen_d3k1(self):
        assert abs(logdet_direct(SpherePoint(3, 1)).value - REF_D3K1) < 1e-13

    def test_frozen_d35k17(self):
        assert abs(logdet_direct(SpherePoint(35, 17)).value - REF_D35K17) < 1e-11

    def test_matches_sum_at_k1(self):
        p = SpherePoint(3, 1)
        assert abs(logdet_direct(p).value - logdet_sum(p).value) < 1e-10

    def test_error_estimate_honest(self):
        res = logdet_direct(SpherePoint(5, 2))
        assert abs(res.value - REF_D5K2) <= 10.0 * res.err_estimate + 1e-15


class TestLogdetFactor:
    def test_single_factor_is_k1_determinant(self):
        got = logdet_factor(5, FactorIndex(0))
        want = logdet_direct(SpherePoint(5, 1)).value
        assert abs(got - want) < 1e-10

    def test_two_factors_reproduce_d5k2(self):
        total = logdet_factor(5, FactorIndex(0)) + logdet_factor(5, FactorIndex(1))
        assert abs(total - PRINTED_D5) < 5e-6
        assert abs(total - REF_D5K2) < 1e-8

    def test_sign_convention(self):
        # (d=7, j=2): sign (-1)^(3 + 2 + 1) = +1 on a positive integral
        assert logdet_factor(7, FactorIndex(2)) > 0

    def test_divergent_factor_rejected(self):
        with pytest.raises(DivergentIntegralError):
            logdet_factor(5, FactorIndex(2))  # 2 alpha = 5 >= d

    def test_rejects_even_dimension(self):
        with pytest.raises(ParameterError):
            logdet_factor(6, FactorIndex(0))

    def test_factor_index_validation(self):
        for bad in (-1, np.int64(-1), True, np.bool_(True), 1.0, np.float64(1.0)):
            with pytest.raises(ParameterError):
                FactorIndex(bad)
        assert FactorIndex(3).alpha == 3.5
        assert FactorIndex(np.int64(3)).alpha == 3.5
        assert type(FactorIndex(np.int64(3)).j) is int

    @pytest.mark.parametrize("d", [5.5, 5.0, 35.0])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ParameterError, match="^d must be an integer$"):
            logdet_factor(d, FactorIndex(0))

    @pytest.mark.parametrize("j", [0, 1])
    def test_accepts_numpy_integer_dimension(self, j):
        got = logdet_factor(np.int64(5), FactorIndex(np.int64(j)))
        assert got.hex() == logdet_factor(5, FactorIndex(j)).hex()

    def test_earlier_rejections_keep_their_message(self):
        with pytest.raises(ParameterError, match="^d must be odd and >= 3$"):
            logdet_factor(6.0, FactorIndex(0))

    @pytest.mark.parametrize("d", [np.float64(5.0), np.float32(5.0), np.int64(5), 5.0, 5])
    def test_numpy_dimension_with_huge_index_diverges(self, d):
        # numpy once compared 2j + 1 with d as a float, and raised OverflowError
        with pytest.raises(DivergentIntegralError, match="2j \\+ 1 at j = 1000.* >= d = 5"):
            logdet_factor(d, FactorIndex(10**400))
        with pytest.raises(DivergentIntegralError, match="2\\*alpha = 7.0 >= d = 5.5"):
            logdet_factor(5.5, FactorIndex(3))

    @pytest.mark.parametrize(
        "j", [10**400, 2**1100, 10**5000], ids=["10^400", "2^1100", "10^5000"]
    )
    def test_factor_index_past_binary64_diverges(self, j):
        # 2j + 1 passes the binary64 range, so it is compared as an integer;
        # str() refuses an int of over 4300 digits, so such a j is named by its size
        name = f"j of {j.bit_length()} bits" if j > 10**4300 else f"j = {j}"
        with pytest.raises(DivergentIntegralError, match=f"= 2j \\+ 1 at {name} >= d = 3$"):
            logdet_factor(3, FactorIndex(j))

    def test_divergence_message_keeps_2_alpha_while_it_is_finite(self):
        # 2j + 1 converts to a float up to j = 2^1023 - 2^969 - 1
        last = 2**1023 - 2**969 - 1
        twice = re.escape(repr(float(2 * last + 1)))
        with pytest.raises(DivergentIntegralError, match=f"2\\*alpha = {twice} >= d = 3$"):
            logdet_factor(3, FactorIndex(last))
        with pytest.raises(DivergentIntegralError, match=f"2j \\+ 1 at j = {last + 1} >= d = 3$"):
            logdet_factor(3, FactorIndex(last + 1))

    @pytest.mark.parametrize("d", [3, 5, 7, 21, 35, 101, 1025])
    def test_sign_is_that_of_the_sum_row(self, d):
        # factor j is the last row of ``sum`` at k = j + 1, of weight +1, so
        # it carries s(d, j+1)
        for j in range((d - 1) // 2):
            value = logdet_factor(d, FactorIndex(j))
            assert math.copysign(1.0, value) == SpherePoint(d, j + 1).sign, (d, j)

    def test_zero_carries_the_sign(self):
        # at d = 1101 the first factors underflow to a signed 0
        for j in range(4):
            value = logdet_factor(1101, FactorIndex(j))
            assert value == 0.0 and math.copysign(1.0, value) == SpherePoint(1101, j + 1).sign


class TestLogdetSum:
    def test_single_term_equals_direct(self):
        p = SpherePoint(9, 1)
        assert abs(logdet_sum(p).value - logdet_direct(p).value) < 1e-10

    def test_cross_method_d11k5(self):
        p = SpherePoint(11, 5)
        assert abs(logdet_sum(p).value - logdet_direct(p).value) < 1e-9

    def test_telescopes_exactly_over_factors(self):
        p = SpherePoint(9, 4)
        resummed = math.fsum(logdet_factor(9, FactorIndex(j)) for j in range(4))
        assert logdet_sum(p).value == resummed


class TestLogdetChebyshev:
    def test_identical_integrand_at_k1(self):
        p = SpherePoint(3, 1)
        assert abs(logdet_chebyshev(p).value - logdet_direct(p).value) < 1e-10

    def test_printed_reference_d5(self):
        assert abs(logdet_chebyshev(SpherePoint(5, 2)).value - PRINTED_D5) < 5e-6

    def test_cross_method_d21k10(self):
        p = SpherePoint(21, 10)
        assert abs(logdet_chebyshev(p).value - logdet_direct(p).value) < 1e-9


class TestLogdetProductRule:
    def test_k1_is_identical_to_direct(self):
        p = SpherePoint(3, 1)
        assert logdet_product_rule(p).value == logdet_direct(p).value

    def test_d5k2_decomposition(self):
        got = logdet_product_rule(SpherePoint(5, 2))
        base5 = logdet_direct(SpherePoint(5, 1)).value
        base3 = logdet_direct(SpherePoint(3, 1)).value
        assert got.value == pytest.approx(2.0 * base5 + base3, abs=1e-15)
        assert abs(got.value - PRINTED_D5) < 5e-6

    def test_cross_method_d9k3(self):
        p = SpherePoint(9, 3)
        assert abs(logdet_product_rule(p).value - logdet_direct(p).value) < 1e-9

    def test_powers_past_binary64_raise_typed_error(self):
        # from k = 742 the largest power C(k+j, 2j+1) reaches 2^1024
        with pytest.raises(UnsupportedArgumentError, match="k = 742.*binary64"):
            logdet_product_rule(SpherePoint(1485, 742))

    def test_last_order_with_binary64_powers(self):
        # every power of k = 741 is a binary64 number, so the point is
        # refused for its round-off floor, not for the range of its powers
        weights = spectral._product_weights(741)
        assert np.isfinite(weights).all() and np.abs(weights).max() > 2.0**1000
        with pytest.raises(UnsupportedArgumentError, match="d=1483, k=741: binary64 round-off"):
            logdet_product_rule(SpherePoint(1483, 741))

    def test_last_product_order_is_that_of_binary64(self):
        # the constant of the refusal: every power of k = 741 converts to a
        # binary64 number and the largest of k = 742 does not; as each power
        # v_j(k) = C(k+j, 2j+1) grows with k, neither does one of a larger k
        assert spectral._LAST_PRODUCT_ORDER == 741
        assert float(max(spectral.v_coefficients(741).v)) < math.inf
        with pytest.raises(OverflowError):
            float(max(spectral.v_coefficients(742).v))
        for k in [*range(1, 40), 740, 741, 742]:
            smaller, larger = spectral.v_coefficients(k).v, spectral.v_coefficients(k + 1).v
            assert all(v < w for v, w in zip(smaller, larger))

    @pytest.mark.parametrize("k", [742, 10**6])
    def test_refused_before_any_power_is_built(self, k, monkeypatch):
        def unbuilt(k):
            raise AssertionError(f"v_coefficients({k}) was called")

        monkeypatch.setattr(spectral, "v_coefficients", unbuilt)
        with pytest.raises(UnsupportedArgumentError, match=f"k = {k}.*binary64"):
            logdet_product_rule(SpherePoint(2 * k + 1, k))

    def test_weights_are_built_once_per_k(self):
        weights = spectral._product_weights(9)
        assert spectral._plan(SpherePoint(19, 9), "product_rule")[2] is weights
        assert spectral._plan(SpherePoint(21, 9), "product_rule")[2] is weights
        assert not weights.flags.writeable
        powers = spectral.v_coefficients(9).v
        assert weights.tolist() == [(-1) ** (9 - 1 + j) * v for j, v in enumerate(powers)]


class TestPastBinary64Envelope:
    """At d >= 1025 the envelope constant 2^(d-1) pi is not a binary64
    number; it is carried as a logarithm."""

    @pytest.mark.parametrize("method", ["direct", "sum", "chebyshev"])
    def test_d1025k512(self, method):
        res = logdet(SpherePoint(1025, 512), method)
        assert abs(res.value - REF_D1025K512) < 1e-12
        assert abs(res.value - REF_D1025K512) <= 10.0 * res.err_estimate

    def test_product_rule_runs_at_d1025(self):
        # its base integrals past the binary64 envelope do not fail: at k = 42
        # its value lies within the estimates of direct's; on the diagonal its
        # cancellation leaves a round-off floor far above the target, and the
        # point is refused before integrating
        point = SpherePoint(1025, 42)
        res, ref = logdet_product_rule(point), logdet_direct(point)
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
        with pytest.raises(UnsupportedArgumentError, match="d=1025, k=512: binary64 round-off"):
            logdet_product_rule(SpherePoint(1025, 512))

    @pytest.mark.parametrize("method", ["direct", "sum", "chebyshev"])
    def test_overflowing_integral_raises_evaluation_error(self, method):
        with pytest.raises(EvaluationError, match="overflowed"):
            logdet(SpherePoint(1035, 517), method)


class TestExactRows:
    """A plan's rows at d are integers p <= d + 1 and multiples a of 1/2
    below d/2, all exact in binary64 while d + 1 <= 2^53.  Past that every
    route, the integrand and a factor raise UnsupportedArgumentError naming
    d, with no warning (these run with warnings as errors)."""

    @pytest.mark.parametrize(
        "d", [2**53 + 1, 2**63 + 1, 10**20 + 1, 10**400 + 1, 10**5000 + 1],
        ids=["2^53+1", "2^63+1", "10^20+1", "10^400+1", "10^5000+1"],
    )
    @pytest.mark.parametrize("k", [1, 3])
    def test_past_exact_rows_raise_typed_error(self, d, k):
        point = SpherePoint(d, k)
        # str() refuses an int of over 4300 digits, so such a d is named by its size
        name = f"d of {d.bit_length()} bits" if d > 10**4300 else f"d = {d}"
        message = f"{name} is past 2\\^53 - 1"
        for method in METHODS:
            with pytest.raises(UnsupportedArgumentError, match=message):
                logdet(point, method)
        with pytest.raises(UnsupportedArgumentError, match=message):
            integrand_direct(point, 1.0)
        with pytest.raises(UnsupportedArgumentError, match=message):
            logdet_factor(d, FactorIndex(k - 1))

    @pytest.mark.parametrize("k", [1, 3])
    def test_last_exact_dimension_underflows_to_signed_zero(self, k):
        # log det P_2k(d) falls like 2^-d, so at d = 2^53 - 1 every route
        # returns a zero of sign s(d, k) within a subnormal estimate
        point = SpherePoint(2**53 - 1, k)
        for method in METHODS:
            res = logdet(point, method)
            assert res.value == 0.0 and math.copysign(1.0, res.value) == point.sign
            assert 0.0 < res.err_estimate < sys.float_info.min
        assert logdet_factor(point.d, FactorIndex(k - 1)) == 0.0
        logmag, sign = integrand_direct(point, 1.0)
        assert -math.inf < logmag < 0.0 and sign == 1


class TestSubnormalScale:
    """At k = 1 past d = 1024 the factor 2^-(d-1) takes the value below the
    normal binary64 range; the rounding it then suffers stays inside the
    reported estimate.  Frozen references from tests/_oracles.py."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("d,ref", [
        # exact rationals, since binary64 cannot hold these references
        (1025, "-2.7077417173330749e-313"), (1075, "2.2390311786057083e-328"),
    ])
    def test_estimate_covers_underflow(self, method, d, ref):
        res = logdet(SpherePoint(d, 1), method)
        assert res.err_estimate > 0.0
        assert abs(Fraction(res.value) - Fraction(ref)) <= Fraction(res.err_estimate)


@st.composite
def sphere_points(draw, max_d=4001):
    d = 2 * draw(st.integers(1, (max_d - 1) // 2)) + 1
    return SpherePoint(d, draw(st.integers(1, (d - 1) // 2)))


def _ends_cleanly(point, tolerance=None):
    for method in METHODS:
        try:
            res = logdet(point, method, tolerance)
        except PACKAGE_ERRORS:
            continue
        assert math.isfinite(res.value)
        assert math.isfinite(res.err_estimate) and res.err_estimate >= 0.0


class TestEveryPointEndsCleanly:
    """Every valid point gives a finite value with a finite estimate, or a
    package error; never a raw exception such as OverflowError."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(sphere_points())
    def test_finite_result_or_package_error(self, point):
        _ends_cleanly(point)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        sphere_points(max_d=301),
        st.floats(-300, 300).map(lambda e: 10.0 ** e),
        st.sampled_from([0.0, 1e-300, 1e-15, 1e-5, 1.0, 1e10]),
        st.integers(4, 4096),
    )
    def test_any_valid_tolerance(self, point, rel_tol, abs_tol, max_panels):
        # a rel_tol past n / eps once made the row-skipping cut positive and
        # emptied the plan, which raised a raw IndexError
        _ends_cleanly(point, Tolerance(rel_tol, abs_tol, max_panels))


def _run_anyway(point, method, tolerance=Tolerance()):
    """(value, estimate) that ``logdet`` would return at ``point`` without
    its round-off refusal: the plan's rows left by the skipping, integrated
    and reduced."""
    a, p, weights, regrouped = spectral._plan(point, method)
    a, p, weights, skipped = spectral._drop_negligible(a, p, weights, tolerance)
    rows = spectral._integrals(a, p, tolerance, regrouped)
    return spectral._reduce(method, point.sign, weights, rows, skipped)


def _staged_rows(a, p, regrouped, tolerance):
    integrand = spectral._LogIntegrand(a, p, regrouped)
    rows = integrate_staged(integrand, *spectral._envelope(a, p), 0.0, tolerance)
    return list(zip(*(field.tolist() for field in rows)))


class TestBatchedIntegrandRows:
    """A batch of the route integrand gives each row exactly what its lone
    call gives (value, estimate, panels, truncation point), whether the rows
    share a or not, plain or regrouped."""

    CASES = {
        "same a": ([1.0] * 17, [36 - 2 * j for j in range(17)], False),
        "different a": ([j + 0.5 for j in range(17)], [35] * 17, False),
        "regrouped, same a": ([3] * 8, [9, 13, 21, 35, 65, 129, 257, 1025], True),
        "regrouped, different a": ([1, 2, 3, 4, 5, 6, 7, 8, 9], [41] * 9, True),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("tolerance", [Tolerance(), TIGHT])
    def test_rows_match_lone_calls_bit_for_bit(self, case, tolerance):
        a, p, regrouped = self.CASES[case]
        a, p = np.array(a, float), np.array(p, float)
        batch = _staged_rows(a, p, regrouped, tolerance)
        rows = range(a.size)
        lone = [_staged_rows(a[r:r + 1], p[r:r + 1], regrouped, tolerance)[0] for r in rows]
        assert batch == lone
        # every field of the scaled rows too: value, estimate, failure flag, panels
        fields = spectral._integrals(a, p, tolerance, regrouped)
        for r in rows:
            lone = spectral._integrals(a[r:r + 1], p[r:r + 1], tolerance, regrouped)
            assert [f[r] for f in fields] == [f[0] for f in lone]


class TestSharedWork:
    """The envelope pruning keeps the diagonal's large batches small, and
    every route call samples each panel it uses once and bisects none
    (deterministic work counts, so that losing the pruning or the first
    layout fails here rather than only in a timing).  The batches are every
    row of the route's plan, integrated through ``_integrals``, since
    ``logdet`` skips the rows its mass bound proves negligible; the sweep
    count is that of ``logdet``."""

    @staticmethod
    def _counting(monkeypatch):
        """Counts, from here on, of the abscissas ``_LogIntegrand`` sees, of
        the sweeps (one ``quadrature._eval_panels`` call each) and of the
        panels ``integrate_staged`` reports as used."""
        seen = {"abscissas": 0, "sweeps": 0, "panels_used": 0}
        sweep, integrate = quadrature._eval_panels, spectral.integrate_staged

        class Counting(spectral._LogIntegrand):
            __slots__ = ()

            def __call__(self, x, row):
                seen["abscissas"] += x.size
                return super().__call__(x, row)

        def counted_sweep(*args):
            seen["sweeps"] += 1
            return sweep(*args)

        def counted_integrate(*args):
            rows = integrate(*args)
            seen["panels_used"] += int(rows.panels_used.sum())
            return rows

        monkeypatch.setattr(spectral, "_LogIntegrand", Counting)
        monkeypatch.setattr(quadrature, "_eval_panels", counted_sweep)
        monkeypatch.setattr(spectral, "integrate_staged", counted_integrate)
        return seen

    def _abscissas(self, method, monkeypatch):
        """The counts for all 510 rows of ``method`` at (1021, 510)."""
        seen = self._counting(monkeypatch)
        a, p, _, regrouped = spectral._plan(SpherePoint(1021, 510), method)
        spectral._integrals(a, p, Tolerance(), regrouped)
        return seen

    # abscissas without pruning: 2554 and 2642 (row, panel) pairs; with it
    # 1175 and 1790, all accepted in the first sweep
    @pytest.mark.parametrize(
        "method, unpruned, share", [("product_rule", 166_010, 0.6), ("sum", 171_730, 0.7)]
    )
    def test_pruning_halves_per_pair_abscissas(self, method, unpruned, share, monkeypatch):
        seen = self._abscissas(method, monkeypatch)
        assert 510 * 65 < seen["abscissas"] <= share * unpruned
        # a pruned pair is neither sampled nor counted as used, and no
        # sampled panel is bisected and so left uncounted
        assert seen["abscissas"] == 65 * seen["panels_used"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("d", [3, 65, 385, 1021, 1025])
    def test_diagonal_routes_accept_their_first_layout(self, method, d, monkeypatch):
        # the README's claim: on the diagonal every route accepts its first
        # layout whole, so its one quadrature call runs one sweep; from
        # d = 91 product_rule is refused before any sweep, and accepts its
        # first layout at k = 42 instead
        seen = self._counting(monkeypatch)
        point = SpherePoint(d, (d - 1) // 2)
        if method == "product_rule" and d >= 91:
            with pytest.raises(UnsupportedArgumentError, match="round-off"):
                logdet(point, method)
            assert seen == {"abscissas": 0, "sweeps": 0, "panels_used": 0}
            point = SpherePoint(d, 42)
        logdet(point, method)
        assert seen["sweeps"] == 1
        # each panel used was sampled once, and no sampled panel went unused
        assert seen["abscissas"] == 65 * seen["panels_used"] > 0

    def test_end_magnitude_is_the_end_nodes_max(self):
        # bit for bit the max over the fancy-indexed end columns, inf and NaN too
        rng = np.random.default_rng(7)
        t = rng.standard_normal((64, 65)) * 1e3
        t[3, 0], t[4, -1], t[5, 0], t[6, -1] = -np.inf, np.inf, np.nan, np.nan
        got = spectral._end_magnitude(t)
        want = np.abs(t[:, [0, -1]]).max(axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_grid_and_scan_routes_accept_their_first_layout(self, method, monkeypatch):
        # the same for every call of the 55-point grid (d = 3..21) and of
        # scan_k(35) at the default tolerance
        seen = self._counting(monkeypatch)
        grid = [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
        for d, k in grid + [(35, k) for k in range(1, 18)]:
            seen.update(abscissas=0, sweeps=0, panels_used=0)
            logdet(SpherePoint(d, k), method)
            assert seen["sweeps"] == 1, (d, k)
            assert seen["abscissas"] == 65 * seen["panels_used"] > 0, (d, k)


# log 2^-(p-2) I(a, p) of the rows tests/_oracles.py BOUND_ROWS, from
# mpmath quadrature at 30 digits
LOG_ROW_REFS = {
    (0.5, 3): -2.0587443377551312,
    (1, 4): -2.0587443377551312,
    (0.5, 1021): -716.93456134260159,
    (509.5, 1021): -6.122970354788767,
    (510, 1022): -6.1236723448168056,
    (1.5, 5): -2.1530611558028747,
    (31.5, 65): -4.064082795515669,
    (32, 66): -4.0759549265411861,
    (10.5, 23): -3.2498246147177398,
    (0.5, 65): -50.139520999424813,
    (1, 1022): -716.93456134260159,
    (100, 1000): -676.88961460095392,
    (255.5, 513): -5.6244298354348872,
    (3, 9): -3.9022730524177304,
    (1, 10): -8.2462498783550085,
    (95.5, 385): -219.66500727582637,
    (1, 194): -140.50555588776456,
}


class TestMassBound:
    """B(a, p) of ``_log_mass_bound`` bounds the scaled row integral
    2^-(p-2) I(a, p) from above, and not loosely: I <= B <= e^3.5 I.  Its
    slack is about e^0.7 where the integrand sits near x = 0 and grows
    towards e^2.8 at p - 2a - 1 = 1, where it spreads out to x ~ 1/L and
    pi/(x^2+pi^2) falls below 1/pi.  Of the e^0.7, the factor 2 is the
    rounding margin, so B/2 must bound I too (up to that rounding)."""

    @pytest.mark.parametrize("row", LOG_ROW_REFS)
    def test_brackets_the_row_integral(self, row):
        log_bound = spectral._log_mass_bound(*np.array(row, dtype=float))
        assert LOG_ROW_REFS[row] <= log_bound <= LOG_ROW_REFS[row] + 3.5
        assert LOG_ROW_REFS[row] <= log_bound - math.log(2.0) + 1e-9

    @pytest.mark.parametrize("row", LOG_ROW_REFS)
    def test_lower_bound_lies_below_the_row_integral(self, row):
        # L(a, p) of ``_log_mass_lower``: within e^0.1 where the integrand
        # sits near x = 0 (a = 1, p large), and below B(a, p) everywhere
        a, p = np.array(row, dtype=float)
        lower = spectral._log_mass_lower(a, p)
        assert lower <= LOG_ROW_REFS[row] <= spectral._log_mass_bound(a, p)
        if a == 1 and p >= 194:
            assert LOG_ROW_REFS[row] - lower < 0.1

    def test_lower_bound_lies_below_the_upper_bound(self):
        p = np.arange(3.0, 4002.0)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            a = 0.5 + frac * 0.5 * (p - 3.0)  # 1/2 <= a <= (p-2)/2
            assert np.all(spectral._log_mass_lower(a, p) < spectral._log_mass_bound(a, p))

    @pytest.mark.parametrize("p", [3, 4, 9, 64, 65, 385, 1022, 4001])
    def test_stirling_forms_bound_the_gamma_ratio(self, p):
        # without its log 2 margin the bound exceeds the exact Gamma form by
        # 1/(12u) - mu(u) + 1/(12w) - mu(w) + mu(p), in (0, 1/(12u) + 1/(12w) + 1/(12p))
        for a in np.arange(0.5, (p - 1) / 2, 0.5)[:: max(1, p // 40)]:
            u, w = (p + 2 * a - 1) / 2, (p - 2 * a + 1) / 2
            exact = (math.lgamma(u) + math.lgamma(w) - math.lgamma(p)
                     + math.log(4 * a / (math.pi * (p - 2 * a - 1))))
            excess = spectral._log_mass_bound(a, float(p)) - math.log(2.0) - exact
            assert -1e-9 < excess < 1 / (12 * u) + 1 / (12 * w) + 1 / (12 * p) + 1e-9

    @pytest.mark.parametrize("d,k", [(1021, 510), (385, 192)])
    @pytest.mark.parametrize("method", ["sum", "product_rule"])
    def test_bounds_every_row_of_the_plan(self, d, k, method):
        a, p, _, regrouped = spectral._plan(SpherePoint(d, k), method)
        values, _, failed, _ = spectral._integrals(a, p, Tolerance(), regrouped)
        assert not failed.any()
        assert np.all(np.log(values) <= spectral._log_mass_bound(a, p))


class TestRowSkipping:
    """``logdet`` integrates only the rows whose bound mass |w_r| B_r is not
    negligible against the largest, and charges the skipped mass to the
    estimate (deterministic work counts)."""

    @staticmethod
    def _recording(monkeypatch):
        """The list of the (a, p) rows ``_integrals`` integrates from here on."""
        seen = []
        integrals = spectral._integrals

        def recording(a, p, *args):
            seen.extend(zip(a.tolist(), p.tolist()))
            return integrals(a, p, *args)

        monkeypatch.setattr(spectral, "_integrals", recording)
        return seen

    def _integrated(self, point, method, monkeypatch):
        """The result of ``logdet`` and the (a, p) rows it integrated."""
        seen = self._recording(monkeypatch)
        return logdet(point, method), seen

    @pytest.mark.parametrize("method, most", [("sum", 20), ("product_rule", 0.6 * 510)])
    def test_diagonal_integrates_few_rows(self, method, most, monkeypatch):
        point = SpherePoint(1021, 510)
        if method == "sum":
            _, seen = self._integrated(point, method, monkeypatch)
            assert 0 < len(seen) <= most
            return
        # product_rule is refused with no row integrated, and its plan's
        # skipping, run anyway, keeps few rows
        seen = self._recording(monkeypatch)
        with pytest.raises(UnsupportedArgumentError, match="round-off"):
            logdet(point, method)
        assert seen == []
        kept = spectral._drop_negligible(*spectral._plan(point, method)[:3], Tolerance())[2]
        assert 0 < kept.size <= most

    @pytest.mark.parametrize("d,k,method", [
        (1021, 510, "direct"), (1021, 510, "chebyshev"),
        (5, 1, "sum"), (5, 1, "product_rule"), (1025, 1, "sum"), (1025, 1, "product_rule"),
    ])
    def test_one_row_plan_computes_no_bound(self, d, k, method, monkeypatch):
        def unused(a, p):
            raise AssertionError("a one-row plan needs no bound")

        monkeypatch.setattr(spectral, "_log_mass_bound", unused)
        _, seen = self._integrated(SpherePoint(d, k), method, monkeypatch)
        assert len(seen) == 1

    def test_nothing_skipped_on_the_grid_or_scan_k_35(self, monkeypatch):
        points = [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
        points += [(35, k) for k in range(1, 18)]
        for d, k in points:
            for method in ("sum", "product_rule"):
                _, seen = self._integrated(SpherePoint(d, k), method, monkeypatch)
                assert len(seen) == k, (d, k, method)

    @pytest.mark.parametrize("d,k,method", [
        (1021, 510, "sum"), (1021, 510, "product_rule"), (385, 192, "sum"),
        (385, 192, "product_rule"), (131, 65, "sum"), (131, 65, "product_rule"),
        # skipped masses past the normal range: 3e-313 and 2e-311
        (1029, 178, "sum"), (1025, 42, "product_rule"),
    ])
    def test_skipped_mass_is_charged_to_the_estimate(self, d, k, method, monkeypatch):
        # the threshold eps rel_tol max_s |w_s| B_s / n, recomputed here; a
        # product_rule plan refused on the diagonal is checked as run anyway,
        # and its estimate must then miss the target that refused it
        point = SpherePoint(d, k)
        refused = method == "product_rule" and k == (d - 1) // 2
        seen = self._recording(monkeypatch)
        if refused:
            with pytest.raises(UnsupportedArgumentError, match="round-off"):
                logdet(point, method)
            assert seen == []
        else:
            res = logdet(point, method)
        a, p, weights, regrouped = spectral._plan(point, method)
        mass = spectral._log_mass_bound(a, p) + np.log(np.abs(weights))
        cut = mass.max() + math.log(sys.float_info.epsilon * Tolerance().rel_tol / k)
        skipped = mass <= cut
        kept_a, kept_p, kept_w, charge = spectral._drop_negligible(a, p, weights, Tolerance())
        kept = list(zip(kept_a.tolist(), kept_p.tolist()))
        rows = zip(a.tolist(), p.tolist())
        assert kept == [row for row, s in zip(rows, skipped.tolist()) if not s]
        if not refused:
            assert seen == kept
        # the charge bounds the skipped masses' exact sum from above, and
        # tightly: within 4 n eps, plus the n 2^-1074 that the underflow
        # widening adds below the normal range
        n, exact = np.count_nonzero(skipped), math.fsum(np.exp(mass[skipped]).tolist())
        eps = sys.float_info.epsilon
        assert 0.0 < exact <= charge <= exact * (1 + 4 * n * eps) + n * math.ulp(0.0)
        values, errs, failed, _ = spectral._integrals(kept_a, kept_p, Tolerance(), regrouped)
        assert not failed.any()
        terms = [abs(w) * e for w, e in zip(kept_w.tolist(), errs.tolist())]
        err = math.fsum([*terms, charge])
        assert err >= charge
        if refused:
            value = math.fsum((kept_w * values).tolist())
            assert err > max(Tolerance().abs_tol, Tolerance().rel_tol * abs(value))
        else:
            assert res.err_estimate == err

    @pytest.mark.parametrize("d,k,method", [
        (5, 2, "sum"), (21, 10, "product_rule"), (385, 192, "product_rule"),
        (1021, 510, "product_rule"),
    ])
    def test_tiny_rel_tol_still_integrates(self, d, k, method):
        # eps rel_tol / n underflows to zero here, so the cut is taken in log
        # space; product_rule from d = 91 is refused at both tolerances and
        # checked as run anyway
        point, tiny = SpherePoint(d, k), Tolerance(rel_tol=1e-310)
        if d < 91:
            res, ref = logdet(point, method, tiny), logdet(point, method)
            res, ref = (res.value, res.err_estimate), (ref.value, ref.err_estimate)
        else:
            for tol in (tiny, None):
                with pytest.raises(UnsupportedArgumentError, match="round-off"):
                    logdet(point, method, tol)
            res, ref = _run_anyway(point, method, tiny), _run_anyway(point, method)
        assert abs(res[0] - ref[0]) <= res[1] + ref[1]

    def test_tiny_rel_tol_fails_only_as_the_quadrature_does(self):
        # a target past what binary64 can meet exhausts the panel budget
        with pytest.raises(errors.AccuracyError):
            logdet(SpherePoint(21, 10), "sum", Tolerance(rel_tol=1e-310))

    def test_underflowing_charge_stays_positive(self):
        # the second row's mass, about 2^-2998, is far below binary64's range
        a, p, weights, charge = spectral._drop_negligible(
            np.ones(2), np.array([1022.0, 3000.0]), np.ones(2), Tolerance()
        )
        assert (a.tolist(), p.tolist(), weights.tolist()) == ([1.0], [1022.0], [1.0])
        assert charge >= math.ulp(0.0)


class TestRoundOffRefusal:
    """A plan whose round-off floor, eps sum_r |w_r| L_r, exceeds its
    target max(abs_tol, rel_tol 2/(pi (d-2k))) is refused before any row is
    integrated; at the default tolerance that is product_rule on the
    diagonal from d = 91, and no point of the grid or of scan_k(35)."""

    @staticmethod
    def _no_quadrature(monkeypatch):
        def unused(*args):
            raise AssertionError("a refused plan integrates nothing")

        monkeypatch.setattr(spectral, "_integrals", unused)

    def test_returns_where_binary64_resolves_the_weights(self):
        points = [(d, (d - 1) // 2) for d in range(3, 90, 2)]
        points += [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
        points += [(35, k) for k in range(1, 18)]
        for d, k in points:
            res = logdet(SpherePoint(d, k), "product_rule")
            assert math.isfinite(res.value) and math.isfinite(res.err_estimate), (d, k)

    def test_refuses_where_the_floor_exceeds_the_target(self, monkeypatch):
        self._no_quadrature(monkeypatch)
        points = [(d, (d - 1) // 2) for d in range(91, 1026, 2)] + [(1483, 741)]
        for d, k in points:
            with pytest.raises(UnsupportedArgumentError) as info:
                logdet(SpherePoint(d, k), "product_rule")
            message = str(info.value)
            assert message.startswith(f"product_rule at d={d}, k={k}: binary64 round-off")
            assert "floor" in message and "target" in message
        # the other routes of these points are not refused
        for method in ("direct", "sum", "chebyshev"):
            with pytest.raises(AssertionError, match="integrates nothing"):
                logdet(SpherePoint(301, 150), method)

    @pytest.mark.parametrize("rel_tol, first", [(1e-8, 129), (1e-11, 91), (1e-12, 77)])
    def test_the_first_refusal_moves_with_the_tolerance(self, rel_tol, first):
        tol = Tolerance(rel_tol=rel_tol)
        for d in range(3, first + 1, 2):
            point = SpherePoint(d, (d - 1) // 2)
            if d < first:
                logdet(point, "product_rule", tol)
            else:
                with pytest.raises(UnsupportedArgumentError, match="round-off"):
                    logdet(point, "product_rule", tol)

    def test_refused_results_would_miss_their_tolerance(self):
        # run anyway, each refused diagonal plan up to d = 301 returns an
        # estimate above the floor the refusal names (2 eps sum |w_r| L_r)
        # and above max(abs_tol, rel_tol |value|)
        tol = Tolerance()
        for d in range(91, 302, 2):
            point = SpherePoint(d, (d - 1) // 2)
            value, err = _run_anyway(point, "product_rule")
            a, p, weights, _ = spectral._plan(point, "product_rule")
            lower = np.exp(spectral._log_mass_lower(a, p)) * np.abs(weights)
            assert err >= 2.0 * sys.float_info.epsilon * math.fsum(lower.tolist()), d
            assert err > max(tol.abs_tol, tol.rel_tol * abs(value)), d

    def test_sum_is_not_refused_at_an_attainable_tolerance(self):
        # rows of ``sum`` have weights +-1: their floor stays below 1e-17
        for d in range(5, 1026, 2):
            a, p, weights, _ = spectral._plan(SpherePoint(d, (d - 1) // 2), "sum")
            lower = spectral._log_mass_lower(a, p) + np.log(np.abs(weights))
            assert math.log(sys.float_info.epsilon) + np.logaddexp.reduce(lower) < math.log(1e-17)


# 30-digit references at the 83 points of the benchmark: the diagonal from
# d = 65 to 1023, scan_k(35), (5, 2), (7, 2) and (1025, 512)
ORACLE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "oracle.json").read_text()
)["logdet"]


class TestEstimatesCoverTheOracle:
    """Every estimate of the three routes that share the one integrand
    covers the reference, round-off included: the estimate charges each
    sample the rounding of the log terms it was built from.  With only the
    panel differences and a fixed 8 eps floor, 113 of these 249 fell short,
    by up to 14.5 times, from d = 65 on."""

    @pytest.mark.parametrize("method", ["direct", "sum", "chebyshev"])
    def test_value_within_its_estimate(self, method):
        short = []
        for key, ref in ORACLE.items():
            d, k = map(int, key.split(","))
            res = logdet(SpherePoint(d, k), method)
            if abs(Fraction(res.value) - Fraction(ref)) > Fraction(res.err_estimate):
                short.append((d, k, res.value, res.err_estimate))
        assert short == []

    def test_diagonal_estimates_stay_small(self):
        # the floor grows with the logs' size, about 7000 at d = 1023
        for key in ORACLE:
            d, k = map(int, key.split(","))
            if k == (d - 1) // 2:
                for method in ("direct", "sum", "chebyshev"):
                    res = logdet(SpherePoint(d, k), method)
                    assert res.err_estimate < 1e-11 * abs(res.value)


class TestAPrioriValueBound:
    """|log det P_2k(d)| = 2^-(d-1) I(k, d+1) <= B(k, d+1), the mass bound of
    the direct row, so every route's value lies within its estimate of
    that bound: a check in Gamma-function arithmetic that shares nothing
    with the quadrature.  product_rule is refused on the diagonal from
    d = 91 and checked at (1025, 42) and (1023, 100) too."""

    POINTS = sorted(
        {(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)}
        | {(35, k) for k in range(1, 18)}
        | {(d, (d - 1) // 2) for d in (65, 127, 131, 255, 301, 511, 1023, 1025)}
        | {(1025, 42), (1023, 100)}
    )

    @pytest.mark.parametrize("method", METHODS)
    def test_value_within_the_direct_row_bound(self, method):
        assert len(self.POINTS) == 82
        for d, k in self.POINTS:
            if method == "product_rule" and d >= 91 and k == (d - 1) // 2:
                with pytest.raises(UnsupportedArgumentError, match="round-off"):
                    logdet(SpherePoint(d, k), method)
                continue
            res = logdet(SpherePoint(d, k), method)
            bound = math.exp(spectral._log_mass_bound(float(k), float(d + 1)))
            assert abs(res.value) <= bound + res.err_estimate, (d, k)


class TestSignLaw:
    @pytest.mark.parametrize("d", [3, 7, 13, 21])
    def test_sign_matches_parity(self, d):
        for k in range(1, (d - 1) // 2 + 1):
            res = logdet_direct(SpherePoint(d, k))
            if abs(res.value) > 1e-12:
                expected = -1.0 if ((d - 1) // 2 + k) % 2 else 1.0
                assert math.copysign(1.0, res.value) == expected


class TestSignedZero:
    """Past d = 1075 a k = 1 value underflows to zero; the zero carries
    s(d, k) on every route."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("d", [1101, 2001])
    def test_zero_carries_the_point_sign(self, d, method):
        point = SpherePoint(d, 1)
        res = logdet(point, method)
        assert res.value == 0.0 and res.err_estimate > 0.0
        assert math.copysign(1.0, res.value) == point.sign == -1


class TestPlanContract:
    """``_plan`` is the one statement of a route's rows: a, p and the
    weights as float64 arrays of one length, 1 for ``direct`` and
    ``chebyshev`` and k for ``sum`` and ``product_rule``, holding the module
    docstring's table."""

    POINTS = [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
    POINTS += [(1021, 510), (1025, 1)]

    @staticmethod
    def _table(d, k, method):
        """The table's rows (a_r, p_r, w_r), in integers and halves."""
        if method in ("direct", "chebyshev"):
            return [(k, d + 1, 1)]
        if method == "sum":
            return [(j + 0.5, d, (-1) ** (k - 1 - j)) for j in range(k)]
        powers = spectral.v_coefficients(k).v
        return [(1, d - 2 * j + 1, (-1) ** (k - 1 + j) * powers[j]) for j in range(k)]

    @pytest.mark.parametrize("method", METHODS)
    def test_plan_is_the_route_table(self, method):
        for d, k in self.POINTS:
            *fields, regrouped = spectral._plan(SpherePoint(d, k), method)
            rows = self._table(d, k, method)
            assert len(rows) == (k if method in ("sum", "product_rule") else 1)
            for v in fields:
                assert type(v) is np.ndarray and v.dtype == np.float64
                assert v.shape == (len(rows),)
            # each weight rounded once, as int * float rounds it
            want = [(float(a), float(p), w * 1.0) for a, p, w in rows]
            assert list(zip(*(v.tolist() for v in fields))) == want, (d, k)
            assert regrouped is (method == "chebyshev")

    def test_every_row_has_the_envelope_integrate_staged_assumes(self):
        # _integrals passes each plan's envelope unchecked: every row must
        # have a rate of at least 1/2 and a finite log C
        grid = [(d, k) for d in range(3, 22, 2) for k in range(1, (d - 1) // 2 + 1)]
        scan = [(35, k) for k in range(1, 18)]
        diagonal = [(d, (d - 1) // 2) for d in range(3, 1026, 2)]
        plans = [spectral._plan(SpherePoint(d, k), method)[:2]
                 for d, k in grid + scan + diagonal for method in METHODS]
        # logdet_factor's rows, every valid j: a = j + 1/2 and p = d
        plans += [(np.arange((d - 1) // 2) + 0.5, np.full((d - 1) // 2, float(d)))
                  for d in (3, 5, 21, 35, 101, 1101)]
        assert len(plans) == 4 * (55 + 17 + 512) + 6
        for a, p in plans:
            log_c, rate = spectral._envelope(a, p)
            assert rate.min() >= 0.5 and np.isfinite(log_c).all(), (a, p)


class TestToleranceArgument:
    """A ``tolerance`` that is neither a Tolerance nor None raises
    ParameterError, before any field of it is read (it once raised
    AttributeError from deep in the pipeline); None is the default."""

    MESSAGE = "^tolerance must be a Tolerance, not "

    @pytest.mark.parametrize("tolerance", [1e-8, "1e-8", {"rel_tol": 1e-8}, QuadratureSpec(1.0)])
    def test_rejects_what_is_not_a_tolerance(self, tolerance):
        point = SpherePoint(5, 2)
        for method in METHODS:
            with pytest.raises(ParameterError, match=self.MESSAGE):
                logdet(point, method, tolerance)
        for call in (
            lambda: logdet_sum(point, tolerance),
            lambda: logdet_factor(5, FactorIndex(0), tolerance),
            lambda: scan_k(35, "direct", tolerance),
            lambda: scan_k(35, "all", tolerance),
        ):
            with pytest.raises(ParameterError, match=self.MESSAGE):
                call()

    def test_none_is_the_default_tolerance(self):
        point = SpherePoint(9, 4)
        for method in METHODS:
            assert logdet(point, method, None) == logdet(point, method, Tolerance())
        factor = FactorIndex(2)
        assert logdet_factor(9, factor, None) == logdet_factor(9, factor, Tolerance())
        assert scan_k(9, "all", None) == scan_k(9, "all", Tolerance())


class TestReducer:
    """Every route is one weighted sum of batched rows."""

    def test_plans_follow_the_route_table(self):
        # (a_r, p_r, w_r, regrouped) at d = 9, k = 4; v(4) = (4, 10, 6, 1);
        # a, p and the weights are binary64 arrays of one length
        point = SpherePoint(9, 4)

        def plan(method):
            *rows, regrouped = spectral._plan(point, method)
            assert all(v.dtype == np.float64 and v.shape == rows[2].shape for v in rows)
            return (*(v.tolist() for v in rows), regrouped)

        assert plan("direct") == ([4], [10], [1], False)
        assert plan("chebyshev") == ([4], [10], [1], True)
        assert plan("sum") == ([0.5, 1.5, 2.5, 3.5], [9] * 4, [-1, 1, -1, 1], False)
        assert plan("product_rule") == ([1] * 4, [10, 8, 6, 4], [-4, 10, -6, 1], False)

    @pytest.mark.parametrize("method,d,k", [
        ("sum", 529, 264), ("sum", 1015, 507), ("product_rule", 529, 264),
        ("product_rule", 1015, 507), ("product_rule", 1025, 42),
    ])
    def test_float_weights_reduce_as_integer_weights(self, method, d, k):
        # the reducer of integer weights w_r (each rounded to binary64 by
        # int * float), on the rows that survive the skipping, gives the
        # route's value and estimate bit for bit; product_rule on the
        # diagonal is refused and checked as run anyway
        point = SpherePoint(d, k)
        if method == "sum":
            ints = [(-1) ** (k - 1 - j) for j in range(k)]
        else:
            ints = [(-1) ** (k - 1 + j) * v for j, v in enumerate(spectral.v_coefficients(k).v)]
            assert max(ints) > 2**53  # weights that binary64 rounds
        a, p, weights, regrouped = spectral._plan(point, method)
        kept_a, kept_p, _, skipped = spectral._drop_negligible(a, p, weights, Tolerance())
        rows = list(zip(a.tolist(), p.tolist()))
        kept = list(zip(kept_a.tolist(), kept_p.tolist()))
        assert 0 < len(kept) < k and skipped > 0.0
        kept_ints = [ints[rows.index(row)] for row in kept]
        values, errs, failed, _ = spectral._integrals(kept_a, kept_p, Tolerance(), regrouped)
        assert not failed.any()
        value = point.sign * math.fsum(w * v for w, v in zip(kept_ints, values.tolist()))
        err = math.fsum([*(abs(w) * e for w, e in zip(kept_ints, errs.tolist())), skipped])
        if method == "product_rule" and k == (d - 1) // 2:
            with pytest.raises(UnsupportedArgumentError, match="round-off"):
                logdet(point, method)
            assert _run_anyway(point, method) == (value, err)
        else:
            res = logdet(point, method)
            assert (res.value, res.err_estimate) == (value, err)

    @pytest.mark.parametrize("d,k", [(9, 4), (21, 10), (65, 32)])
    def test_product_rule_weights_bit_for_bit(self, d, k):
        # batched rows equal lone calls, so the weighted sum over the k = 1
        # direct results reproduces the route exactly
        res = logdet_product_rule(SpherePoint(d, k))
        bases = [logdet_direct(SpherePoint(d - 2 * j, 1)) for j in range(k)]
        powers = spectral.v_coefficients(k).v
        assert res.value == math.fsum(v * b.value for v, b in zip(powers, bases))
        assert res.err_estimate == math.fsum(
            v * b.err_estimate for v, b in zip(powers, bases)
        )

    @pytest.mark.parametrize("d,k", [(5, 2), (9, 4), (21, 10), (1101, 1)])
    def test_route_functions_are_logdet(self, d, k):
        point = SpherePoint(d, k)
        routes = {
            "direct": logdet_direct,
            "sum": logdet_sum,
            "chebyshev": logdet_chebyshev,
            "product_rule": logdet_product_rule,
        }
        for method, route in routes.items():
            got, want = route(point), logdet(point, method)
            assert got.method == want.method == method
            assert (got.value.hex(), got.err_estimate.hex()) == (
                want.value.hex(), want.err_estimate.hex()
            )


class TestRouteErrors:
    """A route or factor that runs out of panels raises one AccuracyError,
    named by route (or factor) and point, whose value and estimate are in
    log-det units: the value lies within its estimate of the value the
    default tolerance returns."""

    @staticmethod
    def _raised(call, prefix, want):
        with pytest.raises(errors.AccuracyError) as info:
            call()
        exc = info.value
        assert str(exc).startswith(f"{prefix}: panel budget exhausted before tolerance was met")
        assert abs(exc.value - want) <= exc.err_estimate
        copy = pickle.loads(pickle.dumps(exc))
        assert (str(copy), copy.value, copy.err_estimate, copy.panels_used) == (
            str(exc), exc.value, exc.err_estimate, exc.panels_used
        )
        return exc

    def _route(self, d, k, rel_tol, method):
        point, tol = SpherePoint(d, k), Tolerance(rel_tol=rel_tol)
        exc = self._raised(
            lambda: logdet(point, method, tol), f"{method} at d={d}, k={k}", logdet(point).value
        )
        # the fields are the reducer's sums over the integrated rows, bit for
        # bit, and the panels those rows sampled
        a, p, weights, regrouped = spectral._plan(point, method)
        skipped = 0.0
        if weights.size > 1:
            a, p, weights, skipped = spectral._drop_negligible(a, p, weights, tol)
        values, errs, failed, panels = spectral._integrals(a, p, tol, regrouped)
        assert failed.any()
        assert exc.value == point.sign * math.fsum((weights * values).tolist())
        assert exc.err_estimate == math.fsum([*(np.abs(weights) * errs).tolist(), skipped])
        assert exc.panels_used == panels.sum()

    @pytest.mark.parametrize("method", ["direct", "chebyshev"])
    def test_one_row_plan_reports_log_det_units(self, method):
        self._route(21, 10, 1e-15, method)

    @pytest.mark.parametrize("d,k,rel_tol", [(21, 10, 5e-16), (1023, 511, 1e-13)])
    def test_multi_row_plan_reports_log_det_units(self, d, k, rel_tol):
        # the failing row's unscaled integral was reported: 850.1 and 8.39e276
        self._route(d, k, rel_tol, "sum")

    def test_product_rule_meets_the_tight_tolerance(self):
        # one of the two routes of the four that (21, 10) at rel_tol 1e-15
        # does not fail
        res = logdet(SpherePoint(21, 10), "product_rule", Tolerance(rel_tol=1e-15))
        assert abs(res.value - logdet(SpherePoint(21, 10)).value) <= res.err_estimate

    def test_sum_meets_the_tight_tolerance(self):
        # the other; it failed while each panel was accepted by comparing
        # it with its halves, and the failure is now asked for at 5e-16
        ref = Fraction("0.04015710729280084965395780776211")  # tests/_oracles.py
        res = logdet(SpherePoint(21, 10), "sum", Tolerance(rel_tol=1e-15))
        assert abs(Fraction(res.value) - ref) <= Fraction(res.err_estimate)

    def test_factor_reports_log_det_units(self):
        # once reported unscaled and unnamed: 21835.6 against 0.0416482
        want = logdet_factor(21, FactorIndex(9))
        assert want == pytest.approx(0.0416482, rel=1e-6)
        self._raised(
            lambda: logdet_factor(21, FactorIndex(9), Tolerance(rel_tol=5e-16)),
            "factor j=9 at d=21", want,
        )

    def test_first_layout_is_sampled_whatever_the_budget(self):
        # max_panels 4 is below the 12 panels of the first layout, which are
        # sampled all the same; each is accepted at that sampling, so no
        # bisection is asked for and the value stands (it once raised, as
        # a two-level check needed the panels' halves)
        tol = Tolerance(max_panels=4)
        res = logdet(SpherePoint(1023, 511), "direct", tol)
        ref = Fraction("0.00218732879529453388428623819942")  # perfbench/oracle.json
        assert abs(Fraction(res.value) - ref) <= Fraction(res.err_estimate)
        _, _, failed, panels = spectral._integrals(np.full(1, 511.0), np.full(1, 1024.0), tol)
        assert (failed.tolist(), panels.tolist()) == ([False], [12])


class TestDispatch:
    def test_logdet_dispatches_all_methods(self):
        p = SpherePoint(5, 2)
        for method in ("direct", "sum", "chebyshev", "product_rule"):
            assert logdet(p, method).method == method

    def test_unknown_method(self):
        with pytest.raises(UnsupportedArgumentError):
            logdet(SpherePoint(5, 2), "bogus")

    @pytest.mark.parametrize("point", [(5, 2), None, "5,2", exact.LogDetResult(0.0, 0.0, "", None)])
    def test_refuses_what_is_not_a_sphere_point(self, point):
        # (5, 2) once raised AttributeError
        with pytest.raises(ParameterError, match="^point must be a SpherePoint, not "):
            logdet(point)

    def test_methods_is_the_exact_layer_tuple(self):
        assert spectral.METHODS is exact.METHODS is METHODS


class TestZetaOdd:
    def test_zeta3(self):
        assert abs(zeta_odd(3) - 1.2020569031595942854) < 1e-13

    def test_zeta5(self):
        assert abs(zeta_odd(5) - 1.0369277551433699263) < 1e-13

    def test_zeta7(self):
        assert abs(zeta_odd(7) - 1.0083492773819228268) < 1e-13

    @pytest.mark.parametrize("n,ref", [
        # correctly rounded mpmath values, from tests/_oracles.py
        (3, 1.2020569031595942), (5, 1.03692775514337), (7, 1.008349277381923),
        (9, 1.0020083928260821), (11, 1.0004941886041194),
        (13, 1.0001227133475785), (15, 1.000030588236307),
        (17, 1.0000076371976379), (19, 1.0000019082127165),
        (21, 1.0000004769329869), (23, 1.000000119219926),
        (25, 1.0000000298035034), (27, 1.0000000074507118),
        (29, 1.0000000018626598), (31, 1.0000000004656628),
        (np.int64(3), 1.2020569031595942),
    ])
    def test_within_one_ulp_of_mpmath(self, n, ref):
        assert abs(zeta_odd(n) - ref) <= math.ulp(ref)

    @pytest.mark.parametrize("n, ref", [(51, 1.0000000000000004), (53, 1.0), (55, 1.0),
                                        (57, 1.0), (101, 1.0)])
    def test_shortcut_returns_the_series_value(self, n, ref):
        # zeta_odd returns 1.0 from n = 55 without the series: bit for bit its value
        assert exact._zeta_series(n) == ref
        assert zeta_odd(n) == ref

    @pytest.mark.parametrize("n", [10001, 10**6 + 1, 10**400 + 1])
    def test_huge_n_is_one(self, n):
        assert zeta_odd(n) == 1.0

    def test_zeta31_bracket(self):
        # 0 < zeta(n) - 1 < 2^(1-n) for n >= 3
        z = zeta_odd(31)
        assert 1.0 < z < 1.0 + 2.0 ** (1 - 31)

    @pytest.mark.parametrize("bad", [2, 4, 1, 0, -3, np.int64(4)])
    def test_rejects_unsupported(self, bad):
        with pytest.raises(UnsupportedArgumentError):
            zeta_odd(bad)

    def test_rejects_non_integer(self):
        # cache an equal numpy integer first: its entry must serve no bad input
        zeta_odd(np.int64(3))
        for bad in (3.0, np.float64(3.0), True, np.bool_(True)):
            with pytest.raises(UnsupportedArgumentError):
                zeta_odd(bad)


class TestClosedForms:
    def test_d5_printed_decimal(self):
        res = closed_form_p4(5)
        assert res.method == "closed_form"
        assert abs(res.value - PRINTED_D5) < 1e-6

    def test_d7_printed_decimal(self):
        assert abs(closed_form_p4(7).value - PRINTED_D7) < 1e-6

    @pytest.mark.parametrize("d,ref", [(5, REF_D5K2), (7, REF_D7K2)])
    def test_agrees_with_tight_quadrature(self, d, ref):
        closed = closed_form_p4(d)
        direct = logdet_direct(SpherePoint(d, 2), TIGHT)
        assert abs(closed.value - direct.value) < 1e-9
        assert abs(closed.value - ref) < 1e-13

    @pytest.mark.parametrize("bad", [3, 9, 4, 0])
    def test_unsupported_dimension(self, bad):
        with pytest.raises(UnsupportedArgumentError):
            closed_form_p4(bad)

    def test_form_far_from_its_reference_is_detected(self):
        form = exact._CLOSED_FORMS[5]
        broken = exact.ClosedForm(
            d=form.d, overall=form.overall, log2_coeff=form.log2_coeff,
            zeta_terms=form.zeta_terms, reference=1.0,
        )
        with pytest.raises(errors.InternalConsistencyError, match="far from its reference"):
            broken.evaluate()
