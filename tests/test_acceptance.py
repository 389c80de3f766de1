"""Acceptance gate: the project's end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``);
the test outcome itself carries the same information for plain runs.

Criterion 5 ships in two parts.  The qualitative and ratio checks pass.
The additive-spread window is kept exactly as written in the criteria and
fails by construction: the d = 35 amplitudes span ~4.6e-13 (k = 1) up to
~2.7e-2 (k = 17), a max/min RATIO of ~5.9e10, while every log-determinant
obeys |value| <= 2/(pi (d - 2k)) <= 2/pi, so max(value) - min(value) can
never reach 1e9.  See that test's docstring for the bound's derivation.
"""

import math
import time

import numpy as np

from gjmsdet import (
    QuadratureSpec,
    SpherePoint,
    Tolerance,
    closed_form_p4,
    eval_u,
    integrand_direct,
    integrate_semi_infinite,
    logdet_chebyshev,
    logdet_direct,
    logdet_product_rule,
    logdet_sum,
    scan_k,
    scan_limiting,
    scan_paneitz,
    v_coefficients,
)
from gjmsdet.scans import format_csv, parse_csv

REF_D5K2 = 0.104642
REF_D7K2 = -0.008297

ALL_METHODS = (logdet_direct, logdet_sum, logdet_chebyshev, logdet_product_rule)


def _report(name: str, detail: str = "") -> None:
    print(f"[PASS] {name}" + (f"  ({detail})" if detail else ""))


def test_criterion_1_reference_values():
    """(d=5,k=2) -> 0.104642 and (d=7,k=2) -> -0.008297 within 5e-6 by each
    of the four methods, each evaluation under a second."""
    for point, ref in ((SpherePoint(5, 2), REF_D5K2), (SpherePoint(7, 2), REF_D7K2)):
        for fn in ALL_METHODS:
            t0 = time.perf_counter()
            res = fn(point)
            elapsed = time.perf_counter() - t0
            assert abs(res.value - ref) < 5e-6, (point, res.method, res.value)
            assert elapsed < 1.0, (point, res.method, elapsed)
    _report("criterion 1: reference values by all four methods")


def test_criterion_2_closed_form_consistency():
    """Closed forms (zeta at 1e-13) agree with tightened direct quadrature
    to 1e-9."""
    t0 = time.perf_counter()
    tight = Tolerance(rel_tol=1e-13)
    for d in (5, 7):
        closed = closed_form_p4(d)
        direct = logdet_direct(SpherePoint(d, 2), tight)
        assert abs(closed.value - direct.value) < 1e-9, (d, closed.value, direct.value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 2: closed forms vs tight quadrature", f"{elapsed:.2f}s")


def test_criterion_3_cross_method_grid():
    """All odd d in [3, 21], all 1 <= k <= (d-1)/2: the four methods agree
    pairwise within max(1e-9 absolute, 1e-8 relative)."""
    t0 = time.perf_counter()
    n_points = 0
    worst = 0.0
    for d in range(3, 22, 2):
        for k in range(1, (d - 1) // 2 + 1):
            point = SpherePoint(d, k)
            values = [fn(point).value for fn in ALL_METHODS]
            n_points += 1
            disc = max(values) - min(values)
            allowed = max(1e-9, 1e-8 * max(abs(v) for v in values))
            worst = max(worst, disc / allowed)
            assert disc <= allowed, (d, k, values)
    elapsed = time.perf_counter() - t0
    assert n_points == 55  # the full (d, k) grid on d = 3 .. 21
    assert elapsed < 30.0
    _report(
        "criterion 3: cross-method grid",
        f"{n_points} points, worst disc at {worst:.1e} of allowance, {elapsed:.2f}s",
    )


def test_criterion_4_product_rule_tables():
    """v-coefficients for k = 1..5 match the reference product rules."""
    expected = {
        1: (1,),
        2: (2, 1),
        3: (3, 4, 1),
        4: (4, 10, 6, 1),
        5: (5, 20, 21, 8, 1),
    }
    for k, powers in expected.items():
        assert v_coefficients(k).v == powers
    _report("criterion 4: product-rule power tables k = 1..5")


def test_criterion_5_scan_shape_and_amplitude_ratio():
    """scan-k at d = 35: 17 rows, signs (-1)^(17+k), and amplitudes growing
    about ten orders of magnitude from k = 1 to k = 17 (max/min amplitude
    ratio inside [1e9, 1e11])."""
    t0 = time.perf_counter()
    rows = scan_k(35)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 17
    for row in rows:
        expected = -1.0 if (17 + row.k) % 2 else 1.0
        assert math.copysign(1.0, row.value) == expected, row
    amplitudes = [abs(r.value) for r in rows]
    assert sorted(amplitudes) == amplitudes  # oscillation with growing amplitude
    ratio = max(amplitudes) / min(amplitudes)
    assert 1e9 <= ratio <= 1e11, ratio
    assert elapsed < 10.0
    _report(
        "criterion 5: d = 35 scan shape",
        f"17 rows, amplitude ratio {ratio:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_additive_spread_window():
    """Literal form of the spread check: max(value) - min(value) within
    [1e9, 1e11] for the d = 35 scan.

    Kept as written, and expected to fail: the integrand obeys
    0 < g(x) <= pi/(x^2+pi^2) * 2^(d-1) e^(-(d-2k)x/2), so

        |log det P_2k(d)| <= 2^-(d-1) * int_0^inf pi/pi^2 * 2^(d-1)
                             e^(-(d-2k)x/2) dx = 2 / (pi (d - 2k)) <= 2/pi,

    for every valid (d, k).  An additive spread of 1e9 is therefore
    impossible; the ~1e10 magnitude window is satisfied by the max/min
    amplitude RATIO (previous test), the computed spread being ~2.8e-2.
    """
    rows = scan_k(35)
    spread = max(r.value for r in rows) - min(r.value for r in rows)
    if not 1e9 <= spread <= 1e11:
        print(
            f"[FAIL] criterion 5 (literal): additive spread {spread:.3e} "
            "outside [1e9, 1e11]; the window holds for the max/min amplitude "
            "ratio (see docstring)"
        )
    assert 1e9 <= spread <= 1e11, (
        f"additive spread is {spread:.3e}; the window [1e9, 1e11] holds for "
        "the max/min amplitude ratio, not the additive spread (see docstring)"
    )
    _report("criterion 5 (literal): additive spread window")


def test_criterion_6_limiting_scan():
    """Limiting order k = (d-1)/2 for d = 3..21: ten rows, all positive."""
    t0 = time.perf_counter()
    rows = scan_limiting(3, 21)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 10
    assert all(r.value > 0 for r in rows)
    d5 = next(r for r in rows if r.d == 5)
    assert abs(d5.value - REF_D5K2) < 5e-6
    assert elapsed < 5.0
    _report("criterion 6: limiting scan all positive", f"{elapsed:.2f}s")


def test_criterion_7_paneitz_scan():
    """Fourth-order operator for d = 5..21: alternating signs, strictly
    shrinking magnitudes."""
    t0 = time.perf_counter()
    rows = scan_paneitz(5, 21)
    elapsed = time.perf_counter() - t0
    assert abs(rows[0].value - REF_D5K2) < 5e-6
    assert abs(rows[1].value - REF_D7K2) < 5e-6
    for prev, cur in zip(rows, rows[1:]):
        assert math.copysign(1.0, prev.value) == -math.copysign(1.0, cur.value)
        assert abs(cur.value) < abs(prev.value)
    assert elapsed < 5.0
    _report("criterion 7: k = 2 scan alternates and decays", f"{elapsed:.2f}s")


def test_criterion_8_property_suites():
    """Bundled property checks: the hyperbolic identity for the Chebyshev
    values, quadrature error honesty, integrand positivity plus decay
    envelope, and a CSV round trip."""
    t0 = time.perf_counter()

    # hyperbolic identity, 200 random abscissas for every k <= 12
    rng = np.random.default_rng(4242)
    for k in range(1, 13):
        xs = rng.uniform(1e-3, 10.0, size=200)
        for x in xs:
            lhs = math.sinh(k * x) / math.sinh(0.5 * x)
            rhs = eval_u(k, math.cosh(0.5 * x))
            assert abs(rhs - lhs) <= 1e-11 * abs(lhs)

    # error honesty on analytically integrable decaying integrands
    honesty_cases = [
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
    for f, exact, rate, env in honesty_cases:
        res = integrate_semi_infinite(f, QuadratureSpec(decay_rate=rate, env_const=env))
        assert abs(res.value - exact) <= 10.0 * res.err_estimate

    # integrand positivity and decay envelope
    sample = np.linspace(0.05, 60.0, 300)
    for d, k in ((5, 2), (21, 10), (35, 17)):
        point = SpherePoint(d, k)
        logmag, sign = integrand_direct(point, sample)
        assert np.all(sign == 1.0)
        for x in (20.0, 30.0, 50.0):
            lm, _ = integrand_direct(point, x)
            envelope = (
                (d - 1) * math.log(2.0) + math.log(math.pi)
                - 2.0 * math.log(x) - 0.5 * (d - 2 * k) * x
            )
            assert abs(lm - envelope) < 0.5

    # CSV round trip
    rows = scan_k(9, method="all")
    assert parse_csv(format_csv(rows)) == rows

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 8: property suites", f"{elapsed:.2f}s")
