#!/usr/bin/env python3
"""Regenerate the mpmath reference tables for the surface kernel I and the
volume kernel K.

Evaluates, in 30-digit arithmetic with mpmath's tanh-sinh quadrature,

    I = (pi/2) int_0^{2w} (2w - u) [K0(k u) - K0(k sqrt(u^2 + 4 s^2))] du,

with (w, s) = (d, l) for swap=True and (l, d) for swap=False, on l = 1,
d = c over c in {1, 0.5, 1e-2, 1e-6, 1e-12} and k = 0 plus
geomspace(1e-3, 1e4, 15), both swaps, plus the golden-section case
l = 0.1, d = 0.05, swap=True, k = 166.4488, and THIN_RULE_ROWS: the three
thin m3-channel rows of a 2400-row scan (l in [1e-3, 1], c in [1e-13,
1e-11], |k| hypot(2l, 2d) in [1, 10^0.5]) on which the rule's former
direct difference K0(ku) - K0(kr) left the rule 0.96e-14 to 1.04e-14 off.
At k = 0 the bracket is its
limit ln(sqrt(u^2 + 4 s^2)/u), which checks the closed forms of a_c and b_c
independently.  The working precision absorbs the cancellation of the two
K0 terms in thin films.

The volume kernel

    K = (pi/2) int_0^{2l} int_0^{2d} (2l - u) (2d - v) K0(k sqrt(u^2 + v^2)) dv du

goes to a second table, on the square [0, 2d]^2 in Duffy coordinates
(rho, t) and the strip [2d, 2l] x [0, 2d] in (u, v), by two-dimensional
tanh-sinh, at the VOLUME_CASES below: square, moderate, thin and very thin
sections, k from 1e-3 to past k d = 20, and THIN_VOLUME_ROWS, two thin
sections just past the series edge k hypot(2l, 2d) = 1; at c = 1e-12 the
weight 2 l floor of the rule's sliver below its floor is of the order of K
k^2 itself, so a sliver integrand that cancels shows there.  The library
takes K from the surface channels by the demagnetizing trace, k^2 K =
J(l,d,k) + J(d,l,k) with J = I(0) - I, so this two-dimensional integral
stays the independent referee of that identity; the one-dimensional form
sum_swap [reference(k=0) - reference(k)]/k^2 at 60 digits agrees with both
thin rows to all 25 digits written.  Run from the repository root (takes about thirty
minutes, eight of them on the c = 1e-12 row):

    python3 scripts/make_kernel_refs.py
"""

import csv
from pathlib import Path

import mpmath as mp
import numpy as np

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
OUT = DATA / "kernel_refs.csv"
VOLUME_OUT = DATA / "volume_kernel_refs.csv"
ASPECT_RATIOS = (1.0, 0.5, 1e-2, 1e-6, 1e-12)
FREQUENCIES = (0.0,) + tuple(float(k) for k in np.geomspace(1e-3, 1e4, 15))
GOLDEN = (0.1, 0.05, True, 166.4488)
THIN_RULE_ROWS = (
    (0.013130716669740925, 1.983833257321592e-15, False, 60.84105533186294),
    (0.03755675073654604, 8.823597341161185e-14, False, 32.15989164716003),
    (0.026139488598142486, 8.634299073692019e-14, False, 53.01227242454014),
)
VOLUME_CASES = (
    (0.1, 0.05, 0.5),
    (0.1, 0.05, 5.0),
    (0.1, 0.05, 50.0),
    (0.1, 0.05, 300.0),
    (0.1, 0.05, 1000.0),
    (1e-3, 1e-5, 1.0),
    (1e-3, 1e-4, 10.0),
    (1.0, 1.0, 0.01),
    (1.0, 1.0, 3.0),
    (1.0, 1e-6, 1e-3),
    (1.0, 1e-6, 1.0),
    (1.0, 1e-6, 1e3),
)
THIN_VOLUME_ROWS = (
    (1.0, 1e-6, 0.6),
    (1.0, 1e-12, 0.6414798172704325),
)


def bessel_k0(x: mp.mpf) -> mp.mpf:
    """K0 by its power series below x = 60 (mpmath's own besselk is slow
    there at integer order), with enough guard digits for the e^{2x}
    cancellation; mpmath's asymptotic evaluation above."""
    if x >= 60:
        return mp.besselk(0, x)
    with mp.extradps(int(0.87 * float(x)) + 10):
        x = mp.mpf(x)
        q = x * x / 4
        term = i0 = mp.mpf(1)
        harmonic = total = mp.mpf(0)
        m = 0
        while term >= mp.eps * i0:
            m += 1
            term *= q / (m * m)
            harmonic += mp.mpf(1) / m
            i0 += term
            total += harmonic * term
        value = total - (mp.log(x / 2) + mp.euler) * i0
    return +value


def reference(l: float, d: float, swap: bool, k: float) -> tuple[mp.mpf, mp.mpf]:
    """(I, quadrature error estimate) in working precision."""
    w, s = (mp.mpf(d), mp.mpf(l)) if swap else (mp.mpf(l), mp.mpf(d))
    k = mp.mpf(k)
    top = 2 * w

    def bracket(u):
        r = mp.sqrt(u * u + 4 * s * s)
        if k == 0:
            return mp.log(r / u)
        return bessel_k0(k * u) - bessel_k0(k * r)

    # breakpoints at every scale of the integrand: decades toward the
    # logarithmic endpoint, the gap 2s and the decay length 1/k
    scales = [s, 2 * s] + ([1 / k, 10 / k, 40 / k] if k > 0 else [])
    floor = min([w, s] + ([1 / k] if k > 0 else [])) / 100
    points = {top * mp.mpf(10) ** -j for j in range(60) if top * mp.mpf(10) ** -j > floor}
    points |= {p for p in scales if 0 < p < top}
    points = [mp.mpf(0)] + sorted(points)
    if points[-1] != top:
        points.append(top)
    # mpmath's stopping test is absolute: integrate I / scale, which is O(1)
    scale = mp.pi / 2 * w * min([w, s] + ([1 / k] if k > 0 else []))
    value, err = mp.quad(lambda u: (top - u) * bracket(u) * (mp.pi / 2 / scale), points, error=True)
    return scale * value, scale * err


def volume_reference(l: float, d: float, k: float) -> tuple[mp.mpf, mp.mpf]:
    """(K, quadrature error estimate) in working precision, k > 0."""
    l, d, k = mp.mpf(l), mp.mpf(d), mp.mpf(k)

    def points(lo, hi):
        # the decay length 1/k, and decades toward the corner's log singularity
        # (rho -> 0) or away from the corner along the strip
        pts = {lo, hi} | {p for p in (1 / k, 10 / k, 40 / k) if lo < p < hi}
        if lo == 0:
            bottom = min(hi, 1 / k) * mp.mpf(10) ** -6
            pts |= {hi * mp.mpf(10) ** -j for j in range(1, 60) if hi * mp.mpf(10) ** -j > bottom}
        else:
            pts |= {lo * mp.mpf(10) ** j for j in range(1, 60) if lo * mp.mpf(10) ** j < hi}
        return sorted(pts)

    def corner(t, rho):
        weight = (2 * l - rho) * (2 * d - rho * t) + (2 * l - rho * t) * (2 * d - rho)
        return rho * weight * bessel_k0(k * rho * mp.sqrt(1 + t * t))

    def strip(v, u):
        return (2 * l - u) * (2 * d - v) * bessel_k0(k * mp.sqrt(u * u + v * v))

    # mpmath's stopping test is absolute: integrate K / scale, which is O(1)
    scale = mp.pi / 2 * l * d * min(d, 1 / k) ** 2
    value, err = mp.quad(lambda t, r: corner(t, r) * (mp.pi / 2 / scale), [0, 1], points(0, 2 * d), error=True)
    if l > d:
        more, more_err = mp.quad(
            lambda v, u: strip(v, u) * (mp.pi / 2 / scale), [0, 2 * d], points(2 * d, 2 * l), error=True
        )
        value, err = value + more, err + more_err
    return scale * value, scale * err


def write_table(path: Path, header: list[str], cases, evaluate) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for case in cases:
            value, err = evaluate(*case)
            if not err <= abs(value) * mp.mpf(10) ** -18:
                raise SystemExit(f"reference not converged at {case}: error {err}")
            writer.writerow([repr(x) for x in case] + [mp.nstr(value, 25), mp.nstr(err, 3)])
            print(f"{case}: {mp.nstr(value, 20)} (err {mp.nstr(err, 3)})")
    print(f"wrote {path}")


def main() -> None:
    mp.mp.dps = 30
    cases = [(1.0, c, swap, k) for c in ASPECT_RATIOS for swap in (True, False) for k in FREQUENCIES]
    cases += [GOLDEN, *THIN_RULE_ROWS]
    DATA.mkdir(parents=True, exist_ok=True)
    write_table(OUT, ["l", "d", "swap", "k", "value", "quad_error"], cases, reference)
    write_table(VOLUME_OUT, ["l", "d", "k", "value", "quad_error"], VOLUME_CASES + THIN_VOLUME_ROWS, volume_reference)


if __name__ == "__main__":
    main()
