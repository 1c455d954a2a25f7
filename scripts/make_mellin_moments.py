#!/usr/bin/env python3
"""Regenerate src/wallscale/mellin_moments.py, the Mellin moments of the
ansatz's sech^2 weight that the ansatz surface energy sums, and the mpmath
referee table tests/data/ansatz_surface_refs.csv of that energy.

    M_n = int_0^inf x^2n sech^2 x dx,     L_n = int_0^inf x^2n ln x sech^2 x dx,

for n = 0 .. TERMS.  With sech^2 x = 4 sum_k (-1)^(k+1) k e^(-2kx),
M(t) = int x^t sech^2 x dx = 2^(1-t) Gamma(t+1) eta(t), eta the Dirichlet
eta function, so M_n = M(2n) = (1 - 2^(1-2n)) |B_2n| pi^2n for n >= 1,
M_0 = 1, and L_n = M'(2n).  Both are taken in 40-digit arithmetic from the
closed form and checked against tanh-sinh quadrature of the integrals;
the table keeps 30 digits.

The referee is the sech^2 mean of the m2-channel kernel at fixed scales s,

    E_s (pi^2 a)/8 = int_0^inf I(d, l, 2 a x/pi) sech^2 x dx,   a = 1/(s sqrt(pi)),

taken without the moments P_n, Q_n of the library: with the order of
integration swapped it is (pi/2) int_0^{2d} (2d - u) [G(g u) - G(g r)] du,
r = sqrt(u^2 + 4 l^2), g = 2a/pi, G(z) = int_0^inf sech^2 x K0(z x) dx.  G
is summed from the K0 ascending series on M_n and L_n (it converges for
z < 2, i.e. beta = a hypot(2d, 2l)/pi < 1), checked against tanh-sinh
quadrature of its integral, and the u integral is tanh-sinh quadrature.
The cases span beta from 1e-5 to past the Mellin branch's edge near 0.37.
Run from the repository root (about a minute):

    python3 scripts/make_mellin_moments.py
"""

import csv
import math
from pathlib import Path

import mpmath as mp

from make_kernel_refs import bessel_k0

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "wallscale" / "mellin_moments.py"
REFEREE_OUT = ROOT / "tests" / "data" / "ansatz_surface_refs.csv"
TERMS = 20
SERIES_TERMS = 160  # M_n, L_n for the referee's G series
# (l, c, beta): the scale s = hypot(2d, 2l)/(pi^1.5 beta), d = c l
REFEREE_CASES = (
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
)

HEADER = '''"""Mellin moments M_n = int_0^inf x^2n sech^2 x dx and L_n = int_0^inf
x^2n ln x sech^2 x dx of the ansatz's sech^2 weight, n = 0 .. {terms}, to 30
digits.  Written by scripts/make_mellin_moments.py; do not edit."""

'''


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


def sech2_mean(coefficients, l, d, s):
    """(int_0^inf I(d, l, 2 a x/pi) sech^2 x dx, quadrature error) with
    a = 1/(s sqrt(pi)), by the swapped form of the module docstring."""
    w, l = mp.mpf(d), mp.mpf(l)
    g = 2 / (mp.mpf(s) * mp.sqrt(mp.pi) * mp.pi)

    def f(u):
        return (2 * w - u) * (sech2_k0(coefficients, g * u) - sech2_k0(coefficients, g * mp.sqrt(u * u + 4 * l * l)))

    # decades toward the logarithmic endpoint u = 0; mpmath's stopping test is
    # absolute, so integrate f / w^2, which is O(1)
    points = [mp.mpf(0)] + sorted(2 * w * mp.mpf(10) ** -j for j in range(12))
    value, err = mp.quad(lambda u: f(u) / (w * w), points, error=True)
    return mp.pi / 2 * w * w * value, mp.pi / 2 * w * w * err


def write_referee(m, lg) -> None:
    coefficients = series_coefficients(m, lg)
    for z in (mp.mpf("1e-3"), mp.mpf("0.3"), mp.mpf("1.2")):
        direct = mp.quad(lambda x: mp.sech(x) ** 2 * bessel_k0(z * x), [0, mp.mpf(1) / 4, 1, 4, 16, 80])
        if abs(direct - sech2_k0(coefficients, z)) > mp.mpf(10) ** -25 * abs(direct):
            raise SystemExit(f"G series and quadrature differ at z={z}")
    with open(REFEREE_OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "d", "s", "beta", "sech2_mean", "quad_error"])
        for l, c, beta in REFEREE_CASES:
            d = c * l
            s = math.hypot(2.0 * d, 2.0 * l) / (math.pi**1.5 * beta)
            value, err = sech2_mean(coefficients, l, d, s)
            if not err <= abs(value) * mp.mpf(10) ** -20:
                raise SystemExit(f"referee not converged at l={l}, d={d}, s={s}: error {err}")
            writer.writerow([repr(l), repr(d), repr(s), repr(beta), mp.nstr(value, 25), mp.nstr(err, 3)])
            print(f"l={l} d={d} beta={beta}: {mp.nstr(value, 20)} (err {mp.nstr(err, 3)})")
    print(f"wrote {REFEREE_OUT}")


def main() -> None:
    mp.mp.dps = 40
    m = [mellin(mp.mpf(2 * n)) for n in range(SERIES_TERMS + 1)]
    lg = [mp.diff(mellin, mp.mpf(2 * n)) for n in range(SERIES_TERMS + 1)]
    for n in range(TERMS + 1):
        for value, log in ((m[n], False), (lg[n], True)):
            check = quadrature(n, log)
            if abs(check - value) > mp.mpf(10) ** -32 * abs(value):
                raise SystemExit(f"closed form and quadrature differ at n={n}, log={log}: {value} vs {check}")
    blocks = []
    for name, values in (("M", m[: TERMS + 1]), ("L", lg[: TERMS + 1])):
        rows = "".join(f"    {mp.nstr(v, 30, min_fixed=0, max_fixed=0)},\n" for v in values)
        blocks.append(f"{name} = (\n{rows})\n")
    OUT.write_text(HEADER.format(terms=TERMS) + "\n".join(blocks))
    print(f"wrote {OUT}")
    mp.mp.dps = 30
    write_referee(m, lg)


if __name__ == "__main__":
    main()
