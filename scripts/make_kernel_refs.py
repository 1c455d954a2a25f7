#!/usr/bin/env python3
"""Regenerate the mpmath reference table for the surface kernel I.

Evaluates, in 30-digit arithmetic with mpmath's tanh-sinh quadrature,

    I = (pi/2) int_0^{2w} (2w - u) [K0(k u) - K0(k sqrt(u^2 + 4 s^2))] du,

with (w, s) = (d, l) for swap=True and (l, d) for swap=False, on l = 1,
d = c over c in {1, 0.5, 1e-2, 1e-6, 1e-12} and k = 0 plus
geomspace(1e-3, 1e4, 15), both swaps, plus the golden-section case
l = 0.1, d = 0.05, swap=True, k = 166.4488.  At k = 0 the bracket is its
limit ln(sqrt(u^2 + 4 s^2)/u), which checks the closed forms of a_c and b_c
independently.  The working precision absorbs the cancellation of the two
K0 terms in thin films.  Run from the repository root (takes a few
minutes):

    python3 scripts/make_kernel_refs.py
"""

import csv
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "kernel_refs.csv"
ASPECT_RATIOS = (1.0, 0.5, 1e-2, 1e-6, 1e-12)
FREQUENCIES = (0.0,) + tuple(float(k) for k in np.geomspace(1e-3, 1e4, 15))
GOLDEN = (0.1, 0.05, True, 166.4488)


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


def main() -> None:
    mp.mp.dps = 30
    cases = [(1.0, c, swap, k) for c in ASPECT_RATIOS for swap in (True, False) for k in FREQUENCIES]
    cases.append(GOLDEN)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "d", "swap", "k", "value", "quad_error"])
        for l, d, swap, k in cases:
            value, err = reference(l, d, swap, k)
            if not err <= abs(value) * mp.mpf(10) ** -18:
                raise SystemExit(f"reference not converged at {(l, d, swap, k)}: error {err}")
            writer.writerow([repr(l), repr(d), swap, repr(k), mp.nstr(value, 25), mp.nstr(err, 3)])
            print(f"l={l} d={d} swap={swap} k={k!r}: {mp.nstr(value, 20)} (err {mp.nstr(err, 3)})")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
