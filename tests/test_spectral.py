"""Tests for the spectral core: integrands, the four log-det routes, odd
zeta values and the closed forms.

Frozen reference numbers come from tests/_oracles.py (tanh-sinh quadrature
at 40 digits, independent of this package's Gauss-Legendre pipeline).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gjmsdet import errors, exact, spectral
from gjmsdet import (
    DivergentIntegralError,
    EvaluationError,
    METHODS,
    FactorIndex,
    ParameterError,
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
    zeta_odd,
)
from gjmsdet.quadrature import Envelopes, integrate_staged

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
        with pytest.raises(ParameterError):
            FactorIndex(-1)
        assert FactorIndex(3).alpha == 3.5

    @pytest.mark.parametrize("d", [5.5, 5.0, 35.0])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ParameterError, match="^d must be an integer$"):
            logdet_factor(d, FactorIndex(0))

    def test_earlier_rejections_keep_their_message(self):
        with pytest.raises(ParameterError, match="^d must be odd and >= 3$"):
            logdet_factor(6.0, FactorIndex(0))
        with pytest.raises(DivergentIntegralError, match="2\\*alpha = 7.0 >= d = 5.5"):
            logdet_factor(5.5, FactorIndex(3))


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
        res = logdet_product_rule(SpherePoint(1483, 741))
        assert math.isfinite(res.value) and math.isfinite(res.err_estimate)


class TestPastBinary64Envelope:
    """At d >= 1025 the envelope constant 2^(d-1) pi is not a binary64
    number; it is carried as a logarithm."""

    @pytest.mark.parametrize("method", ["direct", "sum", "chebyshev"])
    def test_d1025k512(self, method):
        res = logdet(SpherePoint(1025, 512), method)
        assert abs(res.value - REF_D1025K512) < 1e-12
        assert abs(res.value - REF_D1025K512) <= 10.0 * res.err_estimate

    def test_product_rule_runs_at_d1025(self):
        # its value is lost to cancellation along the diagonal, but the base
        # integrals no longer fail
        assert math.isfinite(logdet_product_rule(SpherePoint(1025, 512)).value)

    @pytest.mark.parametrize("method", ["direct", "sum", "chebyshev"])
    def test_overflowing_integral_raises_evaluation_error(self, method):
        with pytest.raises(EvaluationError, match="overflowed"):
            logdet(SpherePoint(1035, 517), method)


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


class TestEveryPointEndsCleanly:
    """Every valid point gives a finite value with a finite estimate, or a
    package error; never a raw exception such as OverflowError."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(sphere_points())
    def test_finite_result_or_package_error(self, point):
        for method in METHODS:
            try:
                res = logdet(point, method)
            except PACKAGE_ERRORS:
                continue
            assert math.isfinite(res.value)
            assert math.isfinite(res.err_estimate) and res.err_estimate >= 0.0


def _staged_rows(a, p, regrouped, tolerance):
    integrand = spectral._LogIntegrand(a, p, regrouped)
    envelopes = Envelopes(*spectral._envelope(integrand.a, integrand.p))
    rows = integrate_staged(integrand, envelopes, tolerance)
    return list(zip(*(field.tolist() for field in rows)))


class TestBatchedIntegrandRows:
    """A batch of the route integrand gives each row exactly what its lone
    call gives (value, estimate, panels, truncation point), whether the rows
    share a (its sinh term is then computed once per distinct panel) or not,
    plain or regrouped."""

    CASES = {
        "same a": (1.0, [36 - 2 * j for j in range(17)], False),
        "different a": ([j + 0.5 for j in range(17)], 35, False),
        "regrouped, same a": (3, [9, 13, 21, 35, 65, 129, 257, 1025], True),
        "regrouped, different a": ([1, 2, 3, 4, 5, 6, 7, 8, 9], 41, True),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("tolerance", [Tolerance(), TIGHT])
    def test_rows_match_lone_calls_bit_for_bit(self, case, tolerance):
        a, p, regrouped = self.CASES[case]
        a, p = (v.tolist() for v in np.broadcast_arrays(np.array(a, float), np.array(p, float)))
        batch = _staged_rows(a, p, regrouped, tolerance)
        lone = [_staged_rows(ar, pr, regrouped, tolerance)[0] for ar, pr in zip(a, p)]
        assert batch == lone
        values, errs = spectral._integrals(a, p, tolerance, regrouped)
        for r, (ar, pr) in enumerate(zip(a, p)):
            value, err = spectral._integrals(ar, pr, tolerance, regrouped)
            assert (values[r], errs[r]) == (value[0], err[0])


class TestSharedWork:
    """The shared stage of the diagonal's large batches runs on a small
    fraction of the abscissas the per-pair stage sees, and the envelope
    pruning keeps the per-pair stage itself small (deterministic work
    counts, so that losing the sharing or the pruning fails here rather
    than only in a timing)."""

    @staticmethod
    def _abscissas(method, monkeypatch):
        """Abscissas each stage sees for ``method`` at (1021, 510)."""
        seen = {"shared": 0, "per_pair": 0}

        class Counting(spectral._LogIntegrand):
            __slots__ = ()

            def shared(self, x):
                seen["shared"] += x.size
                return super().shared(x)

            def per_pair(self, terms, x, row):
                seen["per_pair"] += x.size
                return super().per_pair(terms, x, row)

        monkeypatch.setattr(spectral, "_LogIntegrand", Counting)
        logdet(SpherePoint(1021, 510), method)
        return seen

    @pytest.mark.parametrize("method, bound", [("product_rule", 0.05), ("sum", 0.25)])
    def test_shared_stage_abscissas(self, method, bound, monkeypatch):
        seen = self._abscissas(method, monkeypatch)
        assert seen["per_pair"] > 510 * 32
        assert seen["shared"] <= bound * seen["per_pair"]

    # per-pair abscissas without pruning: 7662 and 7926 (row, panel) pairs
    @pytest.mark.parametrize(
        "method, unpruned, share", [("product_rule", 245_184, 0.6), ("sum", 253_632, 0.7)]
    )
    def test_pruning_halves_per_pair_abscissas(self, method, unpruned, share, monkeypatch):
        seen = self._abscissas(method, monkeypatch)
        assert 510 * 32 < seen["per_pair"] <= share * unpruned


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


class TestReducer:
    """Every route is one weighted sum of batched rows."""

    def test_plans_follow_the_route_table(self):
        # (a_r, p_r, w_r, regrouped) at d = 9, k = 4; v(4) = (4, 10, 6, 1)
        point = SpherePoint(9, 4)
        assert spectral._plan(point, "direct") == (4, 10, [1], False)
        assert spectral._plan(point, "chebyshev") == (4, 10, [1], True)
        assert spectral._plan(point, "sum") == (
            [0.5, 1.5, 2.5, 3.5], 9, [-1, 1, -1, 1], False
        )
        assert spectral._plan(point, "product_rule") == (
            1.0, [10, 8, 6, 4], [-4, 10, -6, 1], False
        )

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


class TestDispatch:
    def test_logdet_dispatches_all_methods(self):
        p = SpherePoint(5, 2)
        for method in ("direct", "sum", "chebyshev", "product_rule"):
            assert logdet(p, method).method == method

    def test_unknown_method(self):
        with pytest.raises(UnsupportedArgumentError):
            logdet(SpherePoint(5, 2), "bogus")

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
    ])
    def test_within_one_ulp_of_mpmath(self, n, ref):
        assert abs(zeta_odd(n) - ref) <= math.ulp(ref)

    def test_zeta31_bracket(self):
        # 0 < zeta(n) - 1 < 2^(1-n) for n >= 3
        z = zeta_odd(31)
        assert 1.0 < z < 1.0 + 2.0 ** (1 - 31)

    @pytest.mark.parametrize("bad", [2, 4, 1, 0, -3])
    def test_rejects_unsupported(self, bad):
        with pytest.raises(UnsupportedArgumentError):
            zeta_odd(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(UnsupportedArgumentError):
            zeta_odd(3.0)


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
