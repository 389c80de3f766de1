"""Generators for the frozen reference constants used by the test suite.

Run ``python tests/_oracles.py`` to recompute everything with mpmath at 40
significant digits.  The values printed here were copied verbatim into the
test modules; the tests themselves do not import mpmath, so the suite runs
against frozen numbers produced by an implementation-independent route
(tanh-sinh quadrature in arbitrary precision, nothing shared with the
package's Gauss-Legendre pipeline).
"""

import mpmath as mp

mp.mp.dps = 40


def logdet_reference(d: int, k: int) -> mp.mpf:
    sign = (-1) ** ((d - 1) // 2 + k)
    f = lambda x: (
        mp.pi / (x * x + mp.pi ** 2)
        * mp.sinh(x / 2) * mp.sinh(k * x) / mp.cosh(x / 2) ** (d + 1)
    )
    return sign * mp.quad(f, [0, 5, 20, 80, 300]) / mp.mpf(2) ** (d - 1)


def integrand_reference(d: int, k: int, x) -> mp.mpf:
    x = mp.mpf(x)
    return (
        mp.pi / (x * x + mp.pi ** 2)
        * mp.sinh(x / 2) * mp.sinh(k * x) / mp.cosh(x / 2) ** (d + 1)
    )


def row_log_integral_reference(a, p) -> mp.mpf:
    """log of the scaled route row 2^-(p-2) I(a, p) at 30 digits; the
    integrand decays like e^(-(p-1-2a)x/2), as slowly as e^(-x/2)."""
    with mp.workdps(30):
        a, p = mp.mpf(a), mp.mpf(p)
        f = lambda x: (
            mp.pi / (x * x + mp.pi ** 2)
            * mp.sinh(x / 2) * mp.sinh(a * x) / mp.cosh(x / 2) ** p
        )
        nodes = [0] + [mp.mpf(2) ** n for n in range(11)] + [mp.inf]
        return mp.log(mp.quad(f, nodes)) - (p - 2) * mp.log(2)


# rows (a, p) of the Beta-bound test in tests/test_spectral.py
BOUND_ROWS = [
    (0.5, 3), (1, 4), (0.5, 1021), (509.5, 1021), (510, 1022), (1.5, 5),
    (31.5, 65), (32, 66), (10.5, 23), (0.5, 65), (1, 1022), (100, 1000),
    (255.5, 513), (3, 9), (1, 10), (95.5, 385), (1, 194),
]


def main() -> None:
    for a, p in BOUND_ROWS:
        print(f"log row({a}, {p}) = {mp.nstr(row_log_integral_reference(a, p), 17)}")
    for d, k in [(3, 1), (5, 2), (7, 2), (35, 17), (1025, 512), (1025, 1), (1075, 1)]:
        print(f"logdet({d},{k}) = {mp.nstr(logdet_reference(d, k), 17)}")
    print(f"integrand(5,2,x=1) = {mp.nstr(integrand_reference(5, 2, 1), 17)}")
    for n in range(3, 32, 2):
        # the correctly rounded binary64 value
        print(f"zeta({n}) = {float(mp.zeta(n))!r}")
    f = lambda x: mp.exp(-x) / (x * x + mp.pi ** 2)
    print(f"int_0^inf exp(-x)/(x^2+pi^2) = {mp.nstr(mp.quad(f, [0, 10, 60, 200]), 17)}")


if __name__ == "__main__":
    main()
