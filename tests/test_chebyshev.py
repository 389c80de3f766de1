"""Tests for the exact Chebyshev coefficient machinery."""

import math

import numpy as np
import pytest

from gjmsdet import (
    InternalConsistencyError,
    ParameterError,
    eval_u,
    u_coefficients,
    v_coefficients,
)


def u_recurrence_oracle(k: int) -> list[int]:
    """Odd-power coefficients of U_{2k-1} from the dense three-term
    recurrence U_{n+1} = 2x U_n - U_{n-1}, U_0 = 1, U_1 = 2x, in exact
    integers: O(k^2) steps, and no use of the binomial closed form."""
    prev, cur = [1], [0, 2]
    for _ in range(2 * k - 2):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    assert all(c == 0 for c in cur[0::2])
    return cur[1::2]


def v_recurrence_oracle(k: int) -> list[int]:
    """Product-rule powers (-1)^(k-1-j) u_j / 2^(2j+1) from the recurrence."""
    powers = []
    for j, c in enumerate(u_recurrence_oracle(k)):
        q, r = divmod((-1) ** (k - 1 - j) * c, 2 ** (2 * j + 1))
        assert r == 0 and q > 0
        powers.append(q)
    return powers


RECURRENCE_ORDERS = list(range(1, 41)) + [64, 255, 511]


def u_binomial_oracle(k: int) -> list[int]:
    """Closed-form coefficients u_j = (-1)^(k-1-j) 2^(2j+1) C(k+j, k-1-j)
    with math.comb, not the package's ratio construction."""
    return [
        (-1) ** (k - 1 - j) * 2 ** (2 * j + 1) * math.comb(k + j, k - 1 - j)
        for j in range(k)
    ]


class TestUCoefficients:
    def test_k1(self):
        assert u_coefficients(1).u == (2,)

    def test_k2(self):
        # U_3 = 2x*U_2 - U_1 with U_2 = 4x^2 - 1  ->  8x^3 - 4x
        assert u_coefficients(2).u == (-4, 8)

    def test_k4(self):
        assert u_coefficients(4).u == (-8, 80, -192, 128)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_binomial_oracle(self, k):
        assert list(u_coefficients(k).u) == u_binomial_oracle(k)

    @pytest.mark.parametrize("k", [*range(1, 13), np.int64(12)])
    def test_invariants(self, k):
        oc = u_coefficients(k)
        assert type(oc.k) is int
        assert len(oc.u) == k
        assert oc.u[-1] == 2 ** (2 * k - 1)
        for j, c in enumerate(oc.u):
            assert (c > 0) == ((k - 1 - j) % 2 == 0)
        # evaluation at x = 1: U_{2k-1}(1) = 2k
        assert sum(oc.u) == 2 * k

    @pytest.mark.parametrize("k", RECURRENCE_ORDERS)
    def test_matches_recurrence_oracle(self, k):
        assert u_coefficients(k).u == tuple(u_recurrence_oracle(k))

    @pytest.mark.parametrize("bad", [0, -1, -7, np.int64(0)])
    def test_rejects_nonpositive_order(self, bad):
        with pytest.raises(ParameterError):
            u_coefficients(bad)

    def test_rejects_non_integer_order(self):
        # cache equal numpy integers first: their entries must serve no bad input
        u_coefficients(np.int64(1))
        u_coefficients(np.int64(2))
        for bad in (2.5, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ParameterError):
                u_coefficients(bad)


class TestEvalU:
    def test_trivial_at_one(self):
        assert eval_u(1, 1.0) == 2.0
        assert eval_u(2, 1.0) == 4.0  # U_3(1) = 8 - 4 = 4, i.e. n + 1

    @pytest.mark.parametrize("k", [*range(1, 9), np.int64(8)])
    def test_value_at_one_is_2k(self, k):
        assert eval_u(k, 1.0) == 2.0 * k

    def test_hyperbolic_example(self):
        got = eval_u(3, math.cosh(0.7))
        want = math.sinh(4.2) / math.sinh(0.7)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_hyperbolic_identity_property(self, k):
        # sinh(kx)/sinh(x/2) = U_{2k-1}(cosh(x/2)) on 200 random abscissas
        rng = np.random.default_rng(20_000 + k)
        xs = rng.uniform(1e-3, 10.0, size=200)
        for x in xs:
            lhs = math.sinh(k * x) / math.sinh(0.5 * x)
            rhs = eval_u(k, math.cosh(0.5 * x))
            assert abs(rhs - lhs) <= 1e-11 * abs(lhs)

    def test_odd_symmetry(self):
        assert eval_u(3, -1.25) == -eval_u(3, 1.25)
        assert eval_u(4, 0.0) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            eval_u(2, math.inf)
        with pytest.raises(ParameterError):
            eval_u(2, math.nan)

    # None and 1j once raised a raw TypeError, "abc" a ValueError and
    # 10**400 an OverflowError, and "2" was read as 2.0
    @pytest.mark.parametrize("y, message", [
        (None, "a real number"), (1j, "a real number"), ("abc", "a real number"),
        ("2", "a real number"), (10**400, "finite"),
    ], ids=["None", "complex", "abc", "str-2", "10^400"])
    def test_rejects_what_is_not_a_finite_real(self, y, message):
        with pytest.raises(ParameterError, match=f"^y must be {message}$"):
            eval_u(5, y)

    def test_huge_argument_overflows_to_inf(self):
        assert eval_u(4, 1e300) == math.inf
        assert eval_u(4, -1e300) == -math.inf


class TestVCoefficients:
    def test_k1(self):
        assert v_coefficients(1).v == (1,)

    def test_reference_table(self):
        # P_4 ~ P_2^2 P_2; P_6 ~ P_2^3 P_2^4 P_2; P_8 ~ P_2^4 P_2^10 P_2^6 P_2;
        # P_10 ~ P_2^5 P_2^20 P_2^21 P_2^8 P_2
        expected = {
            1: (1,),
            2: (2, 1),
            3: (3, 4, 1),
            4: (4, 10, 6, 1),
            5: (5, 20, 21, 8, 1),
        }
        for k, powers in expected.items():
            assert v_coefficients(k).v == powers

    @pytest.mark.parametrize("k", range(1, 13))
    def test_invariants(self, k):
        rule = v_coefficients(k)
        assert len(rule.v) == k
        assert all(isinstance(p, int) and p > 0 for p in rule.v)
        assert rule.v[0] == k
        assert rule.v[-1] == 1

    # k = 511 is the table `gjmsdet rules --k 511` prints
    @pytest.mark.parametrize("k", [*range(1, 13), 511, np.int64(511)])
    def test_binomial_oracle(self, k):
        # v_j(k) = C(k+j, k-1-j), with math.comb, not the ratio construction
        assert list(v_coefficients(k).v) == [
            math.comb(k + j, k - 1 - j) for j in range(k)
        ]

    @pytest.mark.parametrize("k", RECURRENCE_ORDERS)
    def test_matches_recurrence_oracle(self, k):
        assert v_coefficients(k).v == tuple(v_recurrence_oracle(k))

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            v_coefficients(0)

    @pytest.mark.parametrize("bad", [True, 2.5, np.bool_(True), np.float64(2.0)])
    def test_rejects_non_integer_order(self, bad):
        # cache an equal numpy integer first: its entry must not serve ``bad``
        v_coefficients(np.int64(int(bad)))
        with pytest.raises(ParameterError):
            v_coefficients(bad)


def test_broken_u_table_is_detected():
    from gjmsdet.chebyshev import OddChebyshev

    with pytest.raises(InternalConsistencyError):
        OddChebyshev(k=2, u=(4, 8))  # sign pattern broken
    with pytest.raises(InternalConsistencyError):
        OddChebyshev(k=2, u=(-4, 9))  # leading coefficient broken
    with pytest.raises(InternalConsistencyError, match="expected 2 odd coefficients"):
        OddChebyshev(k=2, u=(1,))  # too few coefficients
    with pytest.raises(ParameterError):
        OddChebyshev(k=0, u=())


def test_broken_power_table_is_detected():
    from gjmsdet.chebyshev import ProductRule

    with pytest.raises(InternalConsistencyError):
        ProductRule(k=3, v=(3, 0, 1))  # non-positive power
    with pytest.raises(InternalConsistencyError):
        ProductRule(k=3, v=(2, 4, 1))  # v[0] != k
    with pytest.raises(ParameterError):
        ProductRule(k=0, v=())
    with pytest.raises(InternalConsistencyError):
        ProductRule(k=3, v=(3, 4))  # wrong length
