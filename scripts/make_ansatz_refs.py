#!/usr/bin/env python3
"""Regenerate tests/data/ansatz_surface_refs.csv, the mpmath referee of the
ansatz's surface energy: the sech^2 mean of the m2-channel kernel at fixed
scales s,

    E_s (pi^2 a)/8 = int_0^inf I(d, l, 2 a x/pi) sech^2 x dx,   a = 1/(s sqrt(pi)),

taken by two routes, each checked against the other where both converge.

The k-space route (K_SPACE_CASES, beta = a hypot(2d, 2l)/pi < 1) swaps the
order of integration: (pi/2) int_0^{2d} (2d - u) [G(g u) - G(g r)] du,
r = sqrt(u^2 + 4 l^2), g = 2a/pi, G(z) = int_0^inf sech^2 x K0(z x) dx.  G
is summed from the K0 ascending series on the Mellin moments of sech^2,

    M_n = int_0^inf x^2n sech^2 x dx,     L_n = int_0^inf x^2n ln x sech^2 x dx.

With sech^2 x = 4 sum_k (-1)^(k+1) k e^(-2kx), M(t) = int x^t sech^2 x dx =
2^(1-t) Gamma(t+1) eta(t), eta the Dirichlet eta function, so M_n = M(2n)
and L_n = M'(2n); both are taken in 40-digit arithmetic from the closed
form and checked against tanh-sinh quadrature of the integrals.  G is
checked against tanh-sinh quadrature of its integral, and the u integral
is tanh-sinh quadrature.  This route serves the thinnest sections too.

The real-space route (REAL_SPACE_CASES, wide films, beta up to about 40)
takes the cosine transform int_0^inf K0(k u) cos(k xi) dk =
pi/(2 sqrt(u^2 + xi^2)) and the sech autocorrelation 2 xi/sinh(a xi):

    (pi/2) int_0^inf g(a xi) [phi(xi) - phi(sqrt(xi^2 + 4 l^2))] dxi,

g(x) = x/sinh x, phi(q) = 2d asinh(2d/q) - 4d^2/(sqrt(4d^2 + q^2) + q), by
tanh-sinh quadrature at 30 digits.  It fails at c = 1e-150, where
phi(xi) - phi(q) cancels for xi >> l.  Run from the repository root
(about two minutes):

    python3 scripts/make_ansatz_refs.py
"""

import csv
import math
from pathlib import Path

import mpmath as mp

from make_kernel_refs import bessel_k0

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "data" / "ansatz_surface_refs.csv"
CHECKED_MOMENTS = 20  # M_n, L_n checked against quadrature for n up to this
SERIES_TERMS = 160  # M_n, L_n for the G series
# (l, c, beta): the scale s = hypot(2d, 2l)/(pi^1.5 beta), d = c l
K_SPACE_CASES = (
    (1e-3, 1e-2, 9e-5),
    (1e-3, 1e-6, 3e-6),
    (0.1, 1e-2, 0.0143),
    (0.1, 1e-2, 0.0286),
    (0.3, 1e-2, 0.0614),
    (0.3, 1e-2, 0.123),
    (0.5, 1e-2, 0.244),
    (1.0, 1e-6, 0.0062),
    (1.0, 1e-2, 0.15),
    (1.0, 1e-2, 0.3),
    (1.0, 1e-2, 0.36),
    (1.0, 1e-2, 0.5),
    (1.0, 1e-2, 0.6),
    (1e-3, 1e-150, 6.8e-78),
    (1.0, 1e-150, 3e-74),
)
# near the optimal scales of the search, beta = a hypot(2d, 2l)/pi from 0.26 to 41
REAL_SPACE_CASES = (
    (3.0, 1e-4, 0.26),
    (3.0, 1e-2, 1.2),
    (3.0, 0.5, 1.6),
    (10.0, 1e-4, 1.5),
    (10.0, 1e-2, 4.4),
    (10.0, 0.5, 5.1),
    (100.0, 1e-4, 33.0),
    (100.0, 1e-2, 41.0),
    (100.0, 0.5, 37.0),
)
# cases that both routes take, to 1e-25
CROSS_CHECKS = ((0.1, 1e-2, 0.0143), (1.0, 1e-2, 0.6))


def mellin(t):
    return 2 ** (1 - t) * mp.gamma(t + 1) * mp.altzeta(t)


def quadrature(n: int, log: bool):
    def f(x):
        return x ** (2 * n) * (mp.log(x) if log else 1) * mp.sech(x) ** 2

    return mp.quad(f, [0, 1, 2 * n + 1, 4 * n + 40, mp.inf])


def series_coefficients(m, lg):
    """(M_n/(n!)^2, (psi(n+1) M_n - L_n)/(n!)^2) for the G series."""
    return [
        (m[n] / mp.factorial(n) ** 2, (mp.digamma(n + 1) * m[n] - lg[n]) / mp.factorial(n) ** 2)
        for n in range(len(m))
    ]


def sech2_k0(coefficients, z):
    """G(z) = int_0^inf sech^2 x K0(z x) dx from the K0 ascending series,
    sum_n (z/2)^2n/(n!)^2 [(psi(n+1) - ln(z/2)) M_n - L_n], for 0 < z < 2."""
    half = z / 2
    log_half = mp.log(half)
    total, power = mp.mpf(0), mp.mpf(1)
    for n, (moment, rest) in enumerate(coefficients):
        term = power * (rest - log_half * moment)
        total += term
        if n > 2 and abs(term) < mp.eps * abs(total):
            return total
        power *= half * half
    raise SystemExit(f"G series not converged at z={z}")


def k_space_mean(coefficients, l, d, s):
    """(sech^2 mean, quadrature error) by the k-space route."""
    w, l = mp.mpf(d), mp.mpf(l)
    g = 2 / (mp.mpf(s) * mp.sqrt(mp.pi) * mp.pi)

    def f(u):
        return (2 * w - u) * (sech2_k0(coefficients, g * u) - sech2_k0(coefficients, g * mp.sqrt(u * u + 4 * l * l)))

    # decades toward the logarithmic endpoint u = 0; mpmath's stopping test is
    # absolute, so integrate f / w^2, which is O(1)
    points = [mp.mpf(0)] + sorted(2 * w * mp.mpf(10) ** -j for j in range(12))
    value, err = mp.quad(lambda u: f(u) / (w * w), points, error=True)
    return mp.pi / 2 * w * w * value, mp.pi / 2 * w * w * err


def real_space_mean(l, d, s):
    """(sech^2 mean, quadrature error) by the real-space route."""
    w, l = mp.mpf(d), mp.mpf(l)
    a = 1 / (mp.mpf(s) * mp.sqrt(mp.pi))

    def phi(q):
        return 2 * w * mp.asinh(2 * w / q) - 4 * w * w / (mp.sqrt(4 * w * w + q * q) + q)

    def f(xi):
        x = a * xi
        return x / mp.sinh(x) * (phi(xi) - phi(mp.sqrt(xi * xi + 4 * l * l)))

    # decades toward the logarithmic endpoint xi = 0, the scales d, l and
    # 1/a, and e-foldings of g out to 80/a; integrate f / w^2 as above
    points = [2 * w * mp.mpf(10) ** -j for j in range(12)] + [w, l, 2 * l] + [k / a for k in (1, 2, 5, 10, 20, 40, 80)]
    points = [mp.mpf(0)] + sorted(set(points)) + [mp.inf]
    value, err = mp.quad(lambda xi: f(xi) / (w * w), points, error=True)
    return mp.pi / 2 * w * w * value, mp.pi / 2 * w * w * err


def scale(l, c, beta):
    d = c * l
    return d, math.hypot(2.0 * d, 2.0 * l) / (math.pi**1.5 * beta)


def write_referee(m, lg) -> None:
    coefficients = series_coefficients(m, lg)
    for z in (mp.mpf("1e-3"), mp.mpf("0.3"), mp.mpf("1.2")):
        direct = mp.quad(lambda x: mp.sech(x) ** 2 * bessel_k0(z * x), [0, mp.mpf(1) / 4, 1, 4, 16, 80])
        if abs(direct - sech2_k0(coefficients, z)) > mp.mpf(10) ** -25 * abs(direct):
            raise SystemExit(f"G series and quadrature differ at z={z}")
    for l, c, beta in CROSS_CHECKS:
        d, s = scale(l, c, beta)
        k_space, real_space = k_space_mean(coefficients, l, d, s)[0], real_space_mean(l, d, s)[0]
        if abs(k_space - real_space) > mp.mpf(10) ** -25 * abs(k_space):
            raise SystemExit(f"the two routes differ at l={l}, d={d}, s={s}: {k_space} vs {real_space}")
    routes = [(case, lambda l, d, s: k_space_mean(coefficients, l, d, s)) for case in K_SPACE_CASES]
    routes += [(case, real_space_mean) for case in REAL_SPACE_CASES]
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "d", "s", "beta", "sech2_mean", "quad_error"])
        for (l, c, beta), route in routes:
            d, s = scale(l, c, beta)
            value, err = route(l, d, s)
            if not err <= abs(value) * mp.mpf(10) ** -20:
                raise SystemExit(f"referee not converged at l={l}, d={d}, s={s}: error {err}")
            writer.writerow([repr(l), repr(d), repr(s), repr(beta), mp.nstr(value, 25), mp.nstr(err, 3)])
            print(f"l={l} d={d} beta={beta}: {mp.nstr(value, 20)} (err {mp.nstr(err, 3)})")
    print(f"wrote {OUT}")


def main() -> None:
    mp.mp.dps = 40
    m = [mellin(mp.mpf(2 * n)) for n in range(SERIES_TERMS + 1)]
    lg = [mp.diff(mellin, mp.mpf(2 * n)) for n in range(SERIES_TERMS + 1)]
    for n in range(CHECKED_MOMENTS + 1):
        for value, log in ((m[n], False), (lg[n], True)):
            check = quadrature(n, log)
            if abs(check - value) > mp.mpf(10) ** -32 * abs(value):
                raise SystemExit(f"closed form and quadrature differ at n={n}, log={log}: {value} vs {check}")
    mp.mp.dps = 30
    write_referee(m, lg)


if __name__ == "__main__":
    main()
