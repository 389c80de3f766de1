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


def main() -> None:
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
