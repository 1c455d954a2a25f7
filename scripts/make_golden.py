#!/usr/bin/env python3
"""Regenerate the golden energy reference file.

Runs the boundary-integral oracle for the standard wall on the reference
cross-section at three doubling resolutions, Richardson-extrapolates, and
freezes the result under tests/data/.  Run from the repository root:

    python3 scripts/make_golden.py
"""

import csv
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wallscale import ClosedFormWall, CrossSection, e_s_spectral, sample_wall
from wallscale.magnetostatics import richardson_boundary_oracle

CASE_ID = "rect_l0.1_d0.05_standard_wall"
OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_energies.csv"


def main() -> None:
    cs = CrossSection(l=0.1, d=0.05)
    wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0)
    profile = sample_wall(wall, 26.0, 2049)

    t0 = time.perf_counter()
    extrapolated, raw = richardson_boundary_oracle(profile, cs)
    oracle_seconds = time.perf_counter() - t0
    spectral = e_s_spectral(profile, cs)

    print(f"oracle raw values : {raw}")
    print(f"oracle extrapolated: {extrapolated!r}  ({oracle_seconds:.2f}s)")
    print(f"spectral           : {spectral!r}")
    print(f"relative difference: {abs(spectral - extrapolated) / extrapolated:.3%}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "component", "value", "tolerance"])
        writer.writerow([CASE_ID, "e_s", repr(extrapolated), "0.02"])
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
