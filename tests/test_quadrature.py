"""Tests for the semi-infinite Gauss-Kronrod integrator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gjmsdet import (
    AccuracyError,
    DivergentIntegralError,
    Envelopes,
    EvaluationError,
    IntegralResult,
    ParameterError,
    QuadratureSpec,
    Tolerance,
    integrate_rows,
    integrate_semi_infinite,
    truncation_point,
)
from gjmsdet.quadrature import RowArrays, _PlainIntegrand, _initial_panels, integrate_staged
from gjmsdet.quadrature import _GAUSS_WEIGHTS, _KRONROD_WEIGHTS, _NODES

# np.trapz on numpy 1.x, renamed on 2.x
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


EPS = float(np.finfo(float).eps)


def _legendre_moment_errors(nodes, weights, degree):
    """|sum_i w_i P_j(x_i) - int_-1^1 P_j| for j = 0..degree, exactly: with
    x = X / 2^60 (X an integer for every node) the numbers
    R_j = j! 2^(60 j) P_j(x) are integers, R_(j+1) = (2j+1) X R_j -
    j^2 2^120 R_(j-1)."""
    xs = [int(x * 2.0**60) for x in nodes.tolist()]
    assert [x * 2.0**-60 for x in xs] == nodes.tolist()
    ws = [Fraction(w) for w in weights.tolist()]
    prev, cur, scale, errors = [0] * len(xs), [1] * len(xs), 1, []
    for j in range(degree + 1):
        moment = sum(w * r for w, r in zip(ws, cur)) / scale
        errors.append(float(abs(moment - (2 if j == 0 else 0))))
        prev, cur = cur, [
            (2 * j + 1) * x * r - j * j * 2**120 * p for x, r, p in zip(xs, cur, prev)
        ]
        scale *= (j + 1) * 2**60
    return errors


class TestGaussKronrodRule:
    """The panel rule: 65 Kronrod nodes on [-1, 1], exact to degree 97,
    whose odd nodes are the 32 Gauss-Legendre nodes, so that one sampling
    gives both sums."""

    def test_kronrod_rule_is_exact_to_degree_97(self):
        errors = _legendre_moment_errors(_NODES, _KRONROD_WEIGHTS, 97)
        assert max(errors) <= 4 * EPS
        # the weights meet the 65 moment equations they were refined on
        assert max(errors[:65]) <= EPS / 8

    def test_gauss_rule_is_embedded_and_exact_to_degree_63(self):
        assert max(_legendre_moment_errors(_NODES[1::2], _GAUSS_WEIGHTS, 63)) <= 4 * EPS
        nodes, _ = np.polynomial.legendre.leggauss(32)
        assert np.abs(_NODES[1::2] - nodes).max() <= EPS / 2

    def test_rules_are_symmetric_with_positive_weights(self):
        assert np.all(np.diff(_NODES) > 0) and np.all(_NODES == -_NODES[::-1])
        for weights in (_KRONROD_WEIGHTS, _GAUSS_WEIGHTS):
            assert np.all(weights > 0) and np.all(weights == weights[::-1])

    def test_difference_vanishes_on_a_constant(self):
        # summed as a panel is, so a constant row is accepted at one sampling
        ones = np.ones((1, _NODES.size))
        assert (ones * _KRONROD_WEIGHTS).sum(axis=1) == (ones[:, 1::2] * _GAUSS_WEIGHTS).sum(axis=1)

    # a pole at distance t from [-1, 1]: on the imaginary axis, and on the axis
    CASES = {
        "lorentzian": (lambda x, t: 1.0 / (x * x + t * t), lambda t: 2.0 * math.atan(1.0 / t) / t),
        "pole": (lambda x, t: 1.0 / (x - 1.0 - t), lambda t: math.log(t / (2.0 + t))),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("t", np.geomspace(0.02, 3.0, 25).tolist(), ids="t={:.3g}".format)
    def test_difference_bounds_the_kronrod_error(self, case, t):
        # up to the rounding of the sums, which the round-off floor charges
        f, exact = self.CASES[case]
        fx = f(_NODES, t)
        kronrod = float((fx * _KRONROD_WEIGHTS).sum())
        gauss = float((fx[1::2] * _GAUSS_WEIGHTS).sum())
        assert abs(kronrod - exact(t)) <= abs(gauss - kronrod) + EPS * abs(exact(t))


class TestTruncationPoint:
    def test_unit_envelope(self):
        assert abs(truncation_point(1.0, 1.0, math.exp(-20)) - 20.0) < 1e-12

    def test_shift_by_log_c(self):
        assert abs(truncation_point(math.exp(5), 1.0, math.exp(-20)) - 25.0) < 1e-12

    def test_slow_decay(self):
        # solves e^(-x/2)/(1/2) = 1e-16: X = 2 (log 2 + 16 log 10)
        want = 2.0 * (math.log(2.0) + 16.0 * math.log(10.0))
        got = truncation_point(1.0, 0.5, 1e-16)
        assert abs(got - want) < 1e-9
        # check the envelope bound numerically: int_X^inf e^(-x/2) dx <= tol
        xs = np.linspace(got, got + 200.0, 400_001)
        tail = _trapezoid(np.exp(-0.5 * xs), xs)
        assert tail <= 1e-16 * (1 + 1e-6)

    def test_clamped_to_minimum(self):
        assert truncation_point(1.0, 5.0, 1e-2) == 10.0

    def test_divergent_rate(self):
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DivergentIntegralError):
                truncation_point(1.0, rate, 1e-10)

    def test_bad_arguments(self):
        for c_bound, tol in [
            (0.0, 1e-10), (math.nan, 1e-10), (math.inf, 1e-10),
            (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
        ]:
            with pytest.raises(ParameterError):
                truncation_point(c_bound, 1.0, tol)


def _exp_decay(x):
    return -x, 1.0


def _x_exp_sq(x):
    # x e^(-x^2); envelope e^(-x) holds beyond x0 = 1
    return np.log(x) - x * x, 1.0


class TestIntegrate:
    def test_exponential(self):
        res = integrate_semi_infinite(_exp_decay, QuadratureSpec(decay_rate=1.0))
        assert isinstance(res, IntegralResult)
        assert abs(res.value - 1.0) < 1e-12
        assert res.err_estimate >= 0
        assert res.truncation_point >= 10.0
        assert res.panels_used > 0

    def test_gaussian_times_x(self):
        spec = QuadratureSpec(decay_rate=1.0, env_const=1.0, env_start=1.0)
        res = integrate_semi_infinite(_x_exp_sq, spec)
        assert abs(res.value - 0.5) < 1e-12

    def test_lorentzian_damped_vs_trapezoid_oracle(self):
        # brute-force oracle: 10^6-point trapezoid of e^(-x)/(x^2+pi^2) on [0, 60]
        xs = np.linspace(0.0, 60.0, 1_000_001)
        oracle = float(_trapezoid(np.exp(-xs) / (xs * xs + np.pi ** 2), xs))
        f = lambda x: (-x - np.log(x * x + np.pi ** 2), 1.0)
        res = integrate_semi_infinite(f, QuadratureSpec(decay_rate=1.0))
        assert abs(res.value - oracle) < 1e-10
        # frozen 40-digit reference for the same integral (tests/_oracles.py)
        assert abs(res.value - 0.089489872236083635) < 1e-13

    def test_linearity(self):
        spec = QuadratureSpec(decay_rate=1.0, env_const=4.0)
        f = lambda x: (-x, 1.0)                                   # integral 1
        g = lambda x: (-np.log(np.cosh(x)), 1.0)                  # sech, integral pi/2
        i_f = integrate_semi_infinite(f, spec)
        i_g = integrate_semi_infinite(g, spec)
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(0.1, 3.0, size=(5, 2)):
            h = lambda x: (
                np.logaddexp(np.log(a) - x, np.log(b) - np.log(np.cosh(x))),
                1.0,
            )
            i_h = integrate_semi_infinite(h, spec)
            combined = a * i_f.value + b * i_g.value
            budget = a * i_f.err_estimate + b * i_g.err_estimate + i_h.err_estimate
            assert abs(i_h.value - combined) <= budget + 1e-13

    def test_error_honesty_suite(self):
        # ten analytically integrable decaying integrands; the true error must
        # stay below ten times the reported estimate for every one of them
        cases = [
            (lambda x: (-x, 1.0), 1.0, 1.0, 1.0),
            (lambda x: (-2.0 * x, 1.0), 0.5, 2.0, 1.0),
            (lambda x: (np.log(x) - x, 1.0), 1.0, 0.9, 4.0),
            (lambda x: (2.0 * np.log(x) - x, 1.0), 2.0, 0.9, 55.0),
            (lambda x: (np.log(x) - x * x, 1.0), 0.5, 1.0, 1.0),
            (lambda x: (np.log(np.abs(np.cos(x))) - x, np.sign(np.cos(x))), 0.5, 1.0, 1.0),
            (lambda x: (np.log(np.abs(np.sin(x))) - x, np.sign(np.sin(x))), 0.5, 1.0, 1.0),
            (lambda x: (-0.5 * x, 1.0), 2.0, 0.5, 1.0),
            (lambda x: (-np.log(np.cosh(x)), 1.0), math.pi / 2.0, 1.0, 2.0),
            (lambda x: (3.0 * np.log(x) - 2.0 * x, 1.0), 6.0 / 16.0, 1.8, 170.0),
        ]
        for f, exact, rate, env in cases:
            spec = QuadratureSpec(decay_rate=rate, env_const=env)
            res = integrate_semi_infinite(f, spec)
            assert abs(res.value - exact) <= 10.0 * res.err_estimate
            assert abs(res.value - exact) < 1e-11 * max(1.0, abs(exact))

    def test_deterministic(self):
        spec = QuadratureSpec(decay_rate=1.0)
        f = lambda x: (np.log(x) - x, 1.0)
        r1 = integrate_semi_infinite(f, spec)
        r2 = integrate_semi_infinite(f, spec)
        assert r1.value == r2.value
        assert r1.err_estimate == r2.err_estimate
        assert r1.panels_used == r2.panels_used

    def test_panel_budget_exhaustion(self):
        # a width-0.0005 spike at x = 2 demands refinement the budget cannot pay
        f = lambda x: (-4e6 * (x - 2.0) ** 2, 1.0)
        spec = QuadratureSpec(
            decay_rate=1.0, env_const=math.exp(2.001), max_panels=16
        )
        with pytest.raises(AccuracyError) as exc_info:
            integrate_semi_infinite(f, spec)
        err = exc_info.value
        assert math.isfinite(err.value)
        assert err.err_estimate > 0
        assert err.panels_used <= 16

    @pytest.mark.parametrize("max_panels", [8, 16, 24, 32])
    def test_budget_failure_estimate_is_honest(self, max_panels):
        f = lambda x: (-4e6 * (x - 2.0) ** 2, 1.0)
        spec = QuadratureSpec(
            decay_rate=1.0, env_const=math.exp(2.001), max_panels=max_panels
        )
        with pytest.raises(AccuracyError) as exc_info:
            integrate_semi_infinite(f, spec)
        err = exc_info.value
        exact = math.sqrt(math.pi / 4e6)  # the x < 0 tail is ~e^(-1.6e7)
        assert abs(err.value - exact) <= err.err_estimate

    def test_narrow_spike_converges_with_budget(self):
        f = lambda x: (-400.0 * (x - 2.0) ** 2, 1.0)
        spec = QuadratureSpec(decay_rate=1.0, env_const=math.exp(2.001))
        res = integrate_semi_infinite(f, spec)
        exact = math.sqrt(math.pi / 400.0)  # the x < 0 tail is ~e^(-1600)
        assert abs(res.value - exact) <= 1e-12

    def test_non_finite_sample_reports_abscissa(self):
        def f(x):
            out = np.where(x > 5.0, np.nan, -x)
            return out, 1.0

        with pytest.raises(EvaluationError) as exc_info:
            integrate_semi_infinite(f, QuadratureSpec(decay_rate=1.0))
        assert exc_info.value.abscissa > 5.0

    def test_zero_integrand(self):
        f = lambda x: (np.full_like(x, -np.inf), 1.0)
        res = integrate_semi_infinite(f, QuadratureSpec(decay_rate=1.0))
        assert res.value == 0.0

    def test_integral_overflow_names_the_row_truncation_point(self):
        # row 1 is about e^708 = 3e307 on [0, 12], so each panel's value is
        # finite but their sum passes binary64; (x/12)^8 >= x - 11.2, so
        # e^719.2 e^-x is its envelope.  The error names row 1's truncation
        # point, 719.2 - log(abs_tol), as row 0 sums cleanly.
        f = lambda x, row: (np.where(row == 0, -x, 708.0 - (x / 12.0) ** 8), 1.0)
        with pytest.raises(EvaluationError, match="integral overflowed") as info:
            integrate_rows(f, Envelopes([0.0, 719.2], 1.0), Tolerance())
        assert info.value.abscissa == pytest.approx(719.2 - math.log(1e-15), rel=1e-15)

    def test_panel_sum_overflow_is_evaluation_error(self):
        # every sample is finite (below e^709.78), but the Gauss sums of the
        # panels near 0 pass the binary64 range
        f = lambda x: (709.7 - x, 1.0)
        spec = QuadratureSpec(decay_rate=1.0, env_const=math.exp(709.7))
        with pytest.raises(EvaluationError, match="overflowed"):
            integrate_semi_infinite(f, spec)


def _row_integrand(shift, rate):
    # e^(shift_r - rate_r x) / (1 + x^2) <= e^(shift_r) e^(-rate_r x)
    shift, rate = np.asarray(shift, dtype=float), np.asarray(rate, dtype=float)
    return lambda x, row: (shift[row] - rate[row] * x - np.log1p(x * x), 1.0)


class TestIntegrateRows:
    SHIFT = (0.0, 3.0, -2.0, 700.0, 1.5)
    RATE = (1.0, 0.5, 3.0, 2.0, 7.5)
    # envelope constants differ from the integrands' own where they are
    # looser bounds, which is allowed and moves the truncation point
    LOG_CONST = (0.0, 3.0, 1.0, 705.0, 1.5)

    def test_rows_match_lone_calls_bit_for_bit(self):
        tol = Tolerance()
        f = _row_integrand(self.SHIFT, self.RATE)
        batch = integrate_rows(f, Envelopes(self.LOG_CONST, self.RATE), tol)
        assert len(batch) == len(self.RATE)
        for shift, rate, log_c, res in zip(self.SHIFT, self.RATE, self.LOG_CONST, batch):
            g = _row_integrand([shift], [rate])
            alone = integrate_rows(g, Envelopes(log_c, rate), tol)[0]
            assert res.value == alone.value
            assert res.panels_used == alone.panels_used
            assert res.truncation_point == alone.truncation_point
            assert res.err_estimate == alone.err_estimate
            # every LOG_CONST survives log(exp(c)) exactly
            spec = QuadratureSpec(decay_rate=rate, env_const=math.exp(log_c))
            lone = integrate_semi_infinite(lambda x: g(x, 0), spec)
            assert lone.value == res.value
            assert lone.panels_used == res.panels_used

    def test_rows_are_accurate(self):
        # row r integrates to e^(shift_r) * int_0^inf e^(-L x)/(1+x^2) dx;
        # compare the rows against the unshifted lone integrals
        f = _row_integrand(self.SHIFT, self.RATE)
        batch = integrate_rows(f, Envelopes(self.LOG_CONST, self.RATE), Tolerance())
        for shift, rate, res in zip(self.SHIFT, self.RATE, batch):
            base = integrate_semi_infinite(
                lambda x: (-rate * x - np.log1p(x * x), 1.0), QuadratureSpec(decay_rate=rate)
            )
            assert res.value / math.exp(shift) == pytest.approx(base.value, rel=1e-12)

    def test_log_envelope_beyond_binary64(self):
        # e^800 is past the binary64 range, so only a log constant can state
        # the (valid, loose) envelope e^800 e^(-x); the truncation point then
        # moves out by 800 and the value stays put
        f = lambda x, row: (-x - np.log1p(x * x), 1.0)
        near = integrate_rows(f, Envelopes(0.0, 1.0), Tolerance())[0]
        far = integrate_rows(f, Envelopes(800.0, 1.0), Tolerance())[0]
        assert far.truncation_point == pytest.approx(near.truncation_point + 800.0)
        assert abs(far.value - near.value) <= near.err_estimate + far.err_estimate

    def test_budget_exhaustion_reports_lowest_failing_row(self):
        # row 0 is e^(-10 x), done in 15 panels; rows 1 and 2 hold
        # width-0.0005 spikes that 16 panels cannot resolve
        centers = np.array([0.0, 2.0, 3.0])
        f = lambda x, row: (
            np.where(row == 0, -10.0 * x, -4e6 * (x - centers[row]) ** 2), 1.0
        )
        env = Envelopes([0.0, 3.001, 4.001], [10.0, 1.0, 1.0])
        tol = Tolerance(max_panels=16)
        with pytest.raises(AccuracyError) as batch_info:
            integrate_rows(f, env, tol)
        g = lambda x, row: (-4e6 * (x - 2.0) ** 2, 1.0)
        with pytest.raises(AccuracyError) as lone_info:
            integrate_rows(g, Envelopes(3.001, 1.0), tol)
        got, want = batch_info.value, lone_info.value
        assert (got.value, got.err_estimate, got.panels_used) == (
            want.value, want.err_estimate, want.panels_used
        )
        assert math.isfinite(got.value) and got.panels_used <= 16

    def test_later_failure_of_a_lower_row_is_the_one_reported(self):
        # row 1 holds two width-0.005 spikes, so it runs out of 24 panels a
        # sweep before row 0, which holds one; row 2 converges.  Row 1's
        # pairs retire first, yet row 0's error is raised, as it is alone.
        def f(x, row, first=0):
            one = -4e4 * (x - 2.0) ** 2
            two = np.logaddexp(one, -4e4 * (x - 5.0) ** 2)
            row = row + first
            return np.select([row == 0, row == 1], [one, two], -x), 1.0

        env, tol = Envelopes(5.001, 1.0), Tolerance(max_panels=24)
        with pytest.raises(AccuracyError) as batch_info:
            integrate_rows(f, Envelopes([5.001] * 3, 1.0), tol)
        lone = []
        for r in range(2):
            with pytest.raises(AccuracyError) as info:
                integrate_rows(lambda x, row: f(x, row, r), env, tol)
            lone.append(info.value)
        assert lone[1].panels_used < lone[0].panels_used
        got, want = batch_info.value, lone[0]
        assert (got.value, got.err_estimate, got.panels_used) == (
            want.value, want.err_estimate, want.panels_used
        )

    def test_many_rows_chunked_evaluation(self):
        # enough rows that a sweep spans several integrand calls
        rates = np.linspace(0.5, 40.0, 300)
        calls = []

        def f(x, row):
            calls.append(x.size)
            return -rates[row] * x, 1.0

        batch = integrate_rows(f, Envelopes(0.0, rates), Tolerance())
        assert max(calls) <= 128 * 65 and len(calls) > 3
        for rate, res in zip(rates, batch):
            assert abs(res.value - 1.0 / rate) <= 10.0 * res.err_estimate + 1e-15

    @pytest.mark.parametrize(
        "f",
        [lambda x, row: (np.zeros(3), 1.0),  # once numpy's "cannot reshape array"
         lambda x, row: (-x, np.ones(3)),
         lambda x, row: (-x[:-1], 1.0),
         lambda x, row: (-x, np.ones(x.size + 1))],
        ids=["short_log", "short_sign", "one_log_short", "one_sign_over"],
    )
    def test_integrand_of_the_wrong_shape_is_refused(self, f):
        with pytest.raises(ParameterError, match="^integrand returned .* abscissas; expected"):
            integrate_rows(f, Envelopes(0.0, 1.0), Tolerance())
        with pytest.raises(ParameterError, match="^integrand returned"):
            integrate_semi_infinite(lambda x: f(x, None), QuadratureSpec(decay_rate=1.0))

    def test_one_sign_for_all_or_one_per_abscissa(self):
        one = integrate_rows(lambda x, row: (-x, 1.0), Envelopes(0.0, 1.0), Tolerance())
        each = integrate_rows(
            lambda x, row: (-x, np.ones(x.size)), Envelopes(0.0, 1.0), Tolerance()
        )
        assert one == each


def _same_rows(got, want):
    assert [
        (r.value, r.err_estimate, r.panels_used, r.truncation_point) for r in got
    ] == [(r.value, r.err_estimate, r.panels_used, r.truncation_point) for r in want]


class _Staged:
    """e^(shift_r - rate_r x) / (1 + x^2) as the integrand
    ``integrate_staged`` calls, log1p(x^2) turned NaN beyond ``nan_beyond``.
    Records the most pairs one call gets."""

    def __init__(self, shift, rate, nan_beyond=math.inf):
        self.shift, self.rate = np.asarray(shift, float), np.asarray(rate, float)
        self.nan_beyond = nan_beyond
        self.widest = 0

    def __call__(self, x, row):
        """(log|f|, sign) and, as ``integrate_rows`` scales a plain
        integrand's rounding, max |log f| + 1 over each panel."""
        self.widest = max(self.widest, x.shape[0])
        t = np.log1p(x * x)
        t[x > self.nan_beyond] = np.nan
        logmag = self.shift[row] - self.rate[row] * x - t
        return logmag, 1.0, np.abs(logmag).max(axis=1) + 1.0

    def plain(self, x, row):
        """The same integrand as ``integrate_rows`` calls it, one abscissa a
        panel."""
        return self(x.reshape(-1, 1), row[:, None])[0].reshape(-1), 1.0

    def envelopes(self):
        return Envelopes(self.shift, self.rate)


def _as_results(rows):
    """The rows of ``integrate_staged`` as IntegralResults, none failed."""
    assert not rows.failed.any()
    return [IntegralResult(*fields) for fields in zip(*(a.tolist() for a in rows[:4]))]


class TestSharedPanels:
    """Rows of one batch that integrate over the same panels give what
    each gives alone.  Rows 2 to 9 here truncate at the clamp x = 10 and
    share every panel but the last, [8, 10]; rows 8 and 9 repeat rows 2 and
    3 exactly."""

    SHIFT = (0.0, 1.5, 0.0, -1.0, 2.0, 0.5, 0.0, 3.0, 0.0, -1.0)
    RATE = (0.6, 1.3, 4.0, 5.0, 6.5, 8.0, 9.0, 11.0, 4.0, 5.0)

    def test_rows_sharing_panels_match_lone_calls_bit_for_bit(self):
        tol = Tolerance()
        f = _row_integrand(self.SHIFT, self.RATE)
        batch = integrate_rows(f, Envelopes(self.SHIFT, self.RATE), tol)
        assert [r.truncation_point for r in batch][2:] == [10.0] * 8
        lone = [
            integrate_rows(_row_integrand([s], [r]), Envelopes(s, r), tol)[0]
            for s, r in zip(self.SHIFT, self.RATE)
        ]
        _same_rows(batch, lone)

    @pytest.mark.parametrize(
        "rows", [range(10), [2, 3, 8, 9], [2]], ids=["ten_rows", "four_rows", "one_row"]
    )
    def test_two_stage_rows_match_one_stage_and_lone_calls(self, rows):
        shift, rate = [self.SHIFT[r] for r in rows], [self.RATE[r] for r in rows]
        staged = _Staged(shift, rate)
        env = staged.envelopes()
        batch = _as_results(
            integrate_staged(staged, env.log_const, env.rate, env.start, Tolerance())
        )
        assert staged.widest <= 128  # each call saw a bounded chunk
        _same_rows(batch, integrate_rows(staged.plain, staged.envelopes(), Tolerance()))
        for s, r, row in zip(shift, rate, batch):
            one = _Staged([s], [r])
            env = one.envelopes()
            staged_one = integrate_staged(one, env.log_const, env.rate, env.start, Tolerance())
            _same_rows([row], _as_results(staged_one))

    # rows 0-6 are e^(-10 x), done within budget and sharing every panel;
    # rows 7 and 8 hold width-0.0005 spikes that 16 panels cannot resolve
    CENTERS = np.array([0.0] * 7 + [2.0, 3.0])
    SPIKES = Envelopes([0.0] * 7 + [3.001, 4.001], [10.0] * 7 + [1.0, 1.0])

    def _spikes(self, x, row):
        return np.where(row < 7, -10.0 * x, -4e6 * (x - self.CENTERS[row]) ** 2), 1.0

    def test_budget_exhaustion_reports_lowest_failing_row(self):
        f, env, tol = self._spikes, self.SPIKES, Tolerance(max_panels=16)
        with pytest.raises(AccuracyError) as batch_info:
            integrate_rows(f, env, tol)
        g = lambda x, row: (-4e6 * (x - 2.0) ** 2, 1.0)
        with pytest.raises(AccuracyError) as lone_info:
            integrate_rows(g, Envelopes(3.001, 1.0), tol)
        got, want = batch_info.value, lone_info.value
        assert (str(got), got.value, got.err_estimate, got.panels_used) == (
            str(want), want.value, want.err_estimate, want.panels_used
        )

    def test_staged_call_flags_the_rows_out_of_budget(self):
        # the rows above: integrate_staged returns every row, flags 7 and 8,
        # and the error integrate_rows raises carries row 7's fields
        tol = Tolerance(max_panels=16)
        env = self.SPIKES
        f = _PlainIntegrand(self._spikes)
        rows = integrate_staged(f, env.log_const, env.rate, env.start, tol)
        assert rows.failed.tolist() == [False] * 7 + [True] * 2
        with pytest.raises(AccuracyError) as info:
            integrate_rows(self._spikes, self.SPIKES, tol)
        exc = info.value
        assert (exc.value, exc.err_estimate, exc.panels_used) == tuple(
            a[7].item() for a in rows[:3]
        )
        # the flagged rows keep honest values; the others are plain results
        exact = math.sqrt(math.pi / 4e6)
        assert np.all(np.abs(rows.value[7:] - exact) <= rows.err_estimate[7:])
        first = Envelopes(0.0, 10.0)
        lone = integrate_rows(lambda x, row: (-10.0 * x, 1.0), first, tol)
        _same_rows(_as_results(RowArrays(*(a[:1] for a in rows))), lone)

    def test_nan_on_shared_panel_names_the_lone_abscissa(self):
        # every row truncates at 10; rows 4 and up turn NaN beyond x = 5
        rate = np.full(9, 5.0)
        f = lambda x, row: (np.where((row >= 4) & (x > 5.0), np.nan, -rate[row] * x), 1.0)
        with pytest.raises(EvaluationError) as batch_info:
            integrate_rows(f, Envelopes(0.0, rate), Tolerance())
        g = lambda x, row: (np.where(x > 5.0, np.nan, -5.0 * x), 1.0)
        with pytest.raises(EvaluationError) as lone_info:
            integrate_rows(g, Envelopes(0.0, 5.0), Tolerance())
        got, want = batch_info.value, lone_info.value
        assert (str(got), got.abscissa) == (str(want), want.abscissa)
        assert got.abscissa > 5.0

    def test_nan_in_shared_stage_names_the_one_stage_abscissa(self):
        staged = _Staged(self.SHIFT, self.RATE, nan_beyond=7.0)
        env = staged.envelopes()
        with pytest.raises(EvaluationError) as staged_info:
            integrate_staged(staged, env.log_const, env.rate, env.start, Tolerance())
        with pytest.raises(EvaluationError) as plain_info:
            integrate_rows(staged.plain, staged.envelopes(), Tolerance())
        got, want = staged_info.value, plain_info.value
        assert (str(got), got.abscissa) == (str(want), want.abscissa)
        assert got.abscissa > 7.0


class TestToleranceValidation:
    BAD = [
        dict(rel_tol=math.nan),
        dict(rel_tol=math.inf),
        dict(rel_tol=0.0),
        dict(rel_tol=-1e-8),
        dict(abs_tol=math.nan),
        dict(abs_tol=math.inf),
        dict(abs_tol=-1.0),
        dict(max_panels=math.nan),
        dict(max_panels=math.inf),
        dict(max_panels=4.5),
        dict(max_panels=4096.0),
        dict(max_panels=True),
        dict(max_panels=3),
        dict(max_panels=np.int64(3)),
        dict(max_panels=np.float64(4096.0)),
        dict(max_panels=np.bool_(True)),
        # not real numbers, or bools: each once raised TypeError or passed
        dict(rel_tol="1e-8"),
        dict(rel_tol=None),
        dict(rel_tol=True),
        dict(rel_tol=np.bool_(True)),
        dict(abs_tol=1j),
        dict(abs_tol=False),
        # a Fraction passed, then raised TypeError in the first numpy log
        dict(rel_tol=Fraction(1, 10**8)),
        dict(abs_tol=Fraction(0)),
    ]

    @pytest.mark.parametrize("fields", BAD)
    def test_rejects(self, fields):
        with pytest.raises(ParameterError):
            Tolerance(**fields)
        with pytest.raises(ParameterError):
            QuadratureSpec(decay_rate=1.0, **fields)

    def test_accepts_edges(self):
        tol = Tolerance(rel_tol=1e-300, abs_tol=0.0, max_panels=4)
        assert (tol.rel_tol, tol.abs_tol, tol.max_panels) == (1e-300, 0.0, 4)
        # any int, float or numpy integer or float, stored as given
        tol = Tolerance(rel_tol=np.float32(1e-6), abs_tol=np.int64(0), max_panels=4)
        assert (tol.rel_tol, tol.abs_tol) == (np.float32(1e-6), 0)
        for n in (np.int64(4), np.int32(4096)):
            for fields in (Tolerance(max_panels=n), QuadratureSpec(1.0, max_panels=n)):
                assert fields.max_panels == n and type(fields.max_panels) is int


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(DivergentIntegralError):
                QuadratureSpec(decay_rate=rate)
        with pytest.raises(ParameterError):
            QuadratureSpec(decay_rate=1.0, rel_tol=0.0)
        with pytest.raises(ParameterError):
            QuadratureSpec(decay_rate=1.0, abs_tol=-1.0)
        for const in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                QuadratureSpec(decay_rate=1.0, env_const=const)
        for start in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="env_start"):
                QuadratureSpec(decay_rate=1.0, env_start=start)
        with pytest.raises(ParameterError):
            QuadratureSpec(decay_rate=1.0, max_panels=2)

    def test_one_bad_field_keeps_its_error(self):
        # the checks of decay_rate and env_start are those of Envelopes
        for spec, error, message in [
            (dict(decay_rate=-1.0), DivergentIntegralError,
             "decay_rate must be positive and finite"),
            (dict(rel_tol=math.nan), ParameterError, "rel_tol must be positive and finite"),
            (dict(abs_tol=-1.0), ParameterError, "abs_tol must be non-negative and finite"),
            (dict(max_panels=4.0), ParameterError, "max_panels must be an integer"),
            (dict(env_const=0.0), ParameterError, "env_const must be positive and finite"),
            (dict(env_start=-1.0), ParameterError, "env_start must be non-negative and finite"),
        ]:
            with pytest.raises(error, match=f"^{message}$"):
                QuadratureSpec(**{"decay_rate": 1.0, **spec})

    @pytest.mark.parametrize("fields", [
        dict(decay_rate="1"),
        dict(decay_rate=1.0, env_const="2"),
        dict(decay_rate=1.0, env_const=True),
        dict(decay_rate=1.0, env_start="0"),
        dict(decay_rate=1j),
        dict(decay_rate=[1.0, 2.0]),
        dict(decay_rate=1.0, env_start=np.array([0.0, 1.0])),
        dict(decay_rate=[1.0, [2.0, 3.0]]),
    ])
    def test_rejects_malformed_fields(self, fields):
        # each once raised TypeError or ValueError, or passed; a spec is one row
        with pytest.raises(ParameterError):
            QuadratureSpec(**fields)

    @pytest.mark.parametrize("fields", [
        ("a", 1), (0.0, "1"), (0.0, 1j), (0.0, True), (None, 1.0), (0.0, 1.0, [0.0, "x"]),
        (0.0, [1.0, [2.0, 3.0]]),
    ])
    def test_envelopes_reject_fields_that_are_not_real(self, fields):
        # ("a", 1) and the ragged field once raised a bare ValueError
        with pytest.raises(ParameterError, match="^envelope fields must be real numbers$"):
            Envelopes(*fields)

    def test_envelopes_validation(self):
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(DivergentIntegralError):
                Envelopes(0.0, [1.0, rate])
        with pytest.raises(ParameterError):
            Envelopes([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ParameterError):
            Envelopes(math.inf, 1.0)
        with pytest.raises(ParameterError):
            Envelopes(0.0, 1.0, -1.0)
        for start in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                Envelopes(0.0, 1.0, start)
        with pytest.raises(ParameterError):
            Envelopes([], [])
        assert len(Envelopes([0.0, 1.0, 2.0], 1.0)) == 3

    def test_defaults(self):
        spec = QuadratureSpec(decay_rate=2.0)
        assert spec.rel_tol == 1e-11
        assert spec.abs_tol == 1e-15
        assert spec.max_panels == 4096
        assert spec.tolerance == Tolerance()


class TestIntegralResultValidation:
    @pytest.mark.parametrize("fields", [
        (math.nan, 0.1, 3, 10.0),
        (math.inf, 0.1, 3, 10.0),
        (1.0, math.nan, 3, 10.0),
        (1.0, math.inf, 3, 10.0),
        (1.0, -0.1, 3, 10.0),
        (1.0, 0.1, 3, math.nan),
        (1.0, 0.1, 3, math.inf),
        (1.0, 0.1, 3, 0.0),
        (1.0, 0.1, -2, 10.0),
        (1.0, 0.1, 3.0, 10.0),
        (1.0, 0.1, True, 10.0),
    ])
    def test_rejects(self, fields):
        with pytest.raises(ParameterError):
            IntegralResult(*fields)

    def test_accepts_a_row_bounded_unsampled(self):
        res = IntegralResult(0.0, 1e-90, 0, 10.0)
        assert res.panels_used == 0


class _Recording:
    """e^(-rate_r x) (integral 1/rate_r, its own envelope) as a row
    integrand that records every abscissa it is asked for, by row."""

    def __init__(self, rate, sign=lambda x: 1.0):
        self.rate = np.asarray(rate, dtype=float)
        self.sign = sign
        self.seen = [[] for _ in self.rate]

    def __call__(self, x, row):
        for r in np.unique(row).tolist():
            self.seen[r].extend(x[row == r].tolist())
        return -self.rate[row] * x, self.sign(x)


def _initial_panels_of(x_max):
    """The initial panels [0, 1], [1, 2], [2, 4], ... up to x_max."""
    edges = [0.0, 1.0]
    while edges[-1] < x_max:
        edges.append(min(2.0 * edges[-1], x_max))
    return list(zip(edges[:-1], edges[1:]))


class TestInitialPanels:
    """The first layout: each row's own panels [0, 1], [1, 2], ..., [2^m,
    x_max], one pair each, row by row."""

    X_MAX = (10.0, 16.0, 37.5, 1e6)

    @pytest.mark.parametrize(
        "x_max",
        [[x] for x in X_MAX] + [list(X_MAX), [1e6, 10.0, 10.0, 37.5, 16.0]],
        ids=["10", "16", "37.5", "1e6", "together", "shuffled_with_repeat"],
    )
    def test_layout(self, x_max):
        lo, hi, row, counts = _initial_panels(np.array(x_max))
        want = [_initial_panels_of(x) for x in x_max]
        assert counts.tolist() == [len(w) for w in want]
        assert row.tolist() == [r for r, w in enumerate(want) for _ in w]
        # every pair's panel is its row's own [0, 1], [1, 2], ..., [2^m, x_max]
        assert list(zip(lo.tolist(), hi.tolist())) == [p for w in want for p in w]


class TestEnvelopePruning:
    """Rows e^(-L x) steep enough that the envelope bounds their far panels
    under the x = 10 truncation clamp.  Each result must cover the exact
    1/L within ten times its estimate, the bound of the honesty suite; the
    estimate alone now covers these cases too, which
    ``test_estimate_alone_covers_the_exact_value`` checks."""

    RATES = (4.0, 6.0, 12.0, 25.0, 50.0, 100.0, 200.0, 400.0)
    EPS = float(np.finfo(float).eps)

    def _skipped(self, rate, tol):
        """The initial panels a row must never sample: those whose envelope
        tail int_lo^inf is at most eps abs_tol / n."""
        panels = _initial_panels_of(10.0)
        bound = self.EPS * tol.abs_tol / len(panels)
        return [(lo, hi) for lo, hi in panels if math.exp(-rate * lo) / rate <= bound]

    def test_negligible_panels_are_never_sampled(self):
        tol = Tolerance()
        f = _Recording(self.RATES)
        batch = integrate_rows(f, Envelopes(0.0, self.RATES), tol)
        n_skipped = 0
        for rate, seen, res in zip(self.RATES, f.seen, batch):
            assert res.truncation_point == 10.0
            xs = np.array(seen)
            for lo, hi in self._skipped(rate, tol):
                assert not np.any((xs > lo) & (xs < hi))
                n_skipped += 1
            assert abs(res.value - 1.0 / rate) <= 10.0 * res.err_estimate
            # unpruned, a row samples its 5 initial panels at least; children
            # of a bisection that lie past the cut are not sampled either
            if rate >= 25.0:
                assert len(seen) < 5 * 65
        assert n_skipped >= 10

    def test_pruned_batch_matches_lone_calls_bit_for_bit(self):
        tol = Tolerance()
        batch = integrate_rows(_Recording(self.RATES), Envelopes(0.0, self.RATES), tol)
        lone = [
            integrate_rows(_Recording([rate]), Envelopes(0.0, rate), tol)[0]
            for rate in self.RATES
        ]
        _same_rows(batch, lone)

    def test_panels_before_the_envelope_start_are_sampled(self):
        # the envelope holds only from x = 9.5, so no initial panel may be
        # pruned however steep the row; only the halves past 9.5 may be
        f = _Recording([400.0])
        res = integrate_rows(f, Envelopes(0.0, 400.0, 9.5), Tolerance())[0]
        xs = np.array(f.seen[0])
        for lo, hi in _initial_panels_of(10.0):
            assert np.count_nonzero((xs > lo) & (xs < hi)) >= 65
        assert abs(res.value - 1.0 / 400.0) <= 10.0 * res.err_estimate

    def test_estimate_alone_covers_the_exact_value(self):
        # the round-off floor scales with max |log f| over each panel, which
        # is L x at the panel's end; the two-level Gauss estimate once fell
        # 1.15 times short at rate 50 and 1.29 times at rate 400 from 9.5
        batch = integrate_rows(_Recording(self.RATES), Envelopes(0.0, self.RATES), Tolerance())
        late = integrate_rows(_Recording([400.0]), Envelopes(0.0, 400.0, 9.5), Tolerance())
        for rate, res in zip(self.RATES + (400.0,), batch + late):
            assert abs(res.value - 1.0 / rate) <= res.err_estimate

    def test_zero_abs_tol_skips_only_underflowing_panels(self):
        # eps * abs_tol / n is 0, so before the first sampling only a panel
        # whose envelope mass is exactly 0.0 may go unsampled
        tol = Tolerance(abs_tol=0.0)
        f = _Recording(self.RATES)
        batch = integrate_rows(f, Envelopes(0.0, self.RATES), tol)
        for rate, seen, res in zip(self.RATES, f.seen, batch):
            xs = np.array(seen)
            for lo, hi in _initial_panels_of(res.truncation_point):
                if not np.any((xs > lo) & (xs < hi)):
                    assert math.exp(-rate * lo) * -math.expm1(-rate * (hi - lo)) == 0.0
            assert abs(res.value - 1.0 / rate) <= 10.0 * res.err_estimate

    def test_row_bounded_whole_is_not_sampled(self):
        # the whole envelope e^-200 e^(-x) is far below eps abs_tol
        f = lambda x, row: (np.where(row == 0, -200.0, 0.0) - x, 1.0)
        calls = []
        g = lambda x, row: (calls.append(row.copy()), f(x, row))[1]
        bounded, plain = integrate_rows(g, Envelopes([-200.0, 0.0], 1.0), Tolerance())
        assert not np.any(np.concatenate(calls) == 0)
        assert (bounded.value, bounded.panels_used) == (0.0, 0)
        # the estimate charges the whole envelope, which is the integral
        assert bounded.err_estimate == pytest.approx(math.exp(-200.0), rel=1e-13, abs=0.0)
        assert plain.panels_used > 0
        assert abs(plain.value - 1.0) <= plain.err_estimate

    def test_budget_counts_only_sampled_panels(self):
        # e^(-25 x) plus a width-0.005 bump at x = 0.5: the first layout
        # [0, 1], [1, 2], [2, 4], [4, 8], [8, 10] loses its last two panels
        # to pruning unsampled, and the bump then needs three sweeps of
        # bisection, so 3 + 2 + 4 + 4 = 13 panels are sampled in all
        width = 0.005
        sweeps = []

        def f(x, row):
            sweeps.append(x.size // 65)
            return -25.0 * x + np.log1p(np.exp(-(((x - 0.5) / width) ** 2))), 1.0

        env = Envelopes(math.log(2.0), 25.0)
        res = integrate_rows(f, env, Tolerance(max_panels=13))[0]
        assert sweeps == [3, 2, 4, 4]
        # int_0^inf e^(-25 x) (1 + e^(-((x - 1/2)/w)^2)) dx, up to e^-10000
        exact = 1.0 / 25.0 + math.exp(-12.5) * width * math.sqrt(math.pi) * math.exp(
            (25.0 * width) ** 2 / 4.0
        )
        assert abs(res.value - exact) <= res.err_estimate <= 1e-11 * res.value
        with pytest.raises(AccuracyError, match="panel budget exhausted"):
            integrate_rows(f, env, Tolerance(max_panels=12))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_sign_matches_sign_array(self, sign):
        # a scalar +1 takes the positive-mass shortcut, a scalar -1 does not
        env = Envelopes(0.0, self.RATES)
        scalar = integrate_rows(_Recording(self.RATES, sign=lambda x: sign), env, Tolerance())
        array = _Recording(self.RATES, sign=lambda x: np.full_like(x, sign))
        _same_rows(scalar, integrate_rows(array, env, Tolerance()))
        assert all(math.copysign(1.0, r.value) == sign for r in scalar)
