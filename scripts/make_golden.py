#!/usr/bin/env python3
"""Regenerate the golden energy reference file.

Runs the real-space boundary oracle (the lag sum over cell-averaged face
pairs) for the standard wall on the reference cross-section, on the grid and
on its every-other-node subgrid, removes the h^2 term in one Richardson
stage, and freezes the result under tests/data/ with the relative tolerance
that criterion 7 holds spectral E_s to.  Beside the spectral difference it prints
both values' difference from the real-space referee: the standard wall is the
ansatz at s = 1, whose E_s minimize._real_space_surface gives with no grid.
Run from the repository root:

    python3 scripts/make_golden.py
"""

import csv
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wallscale import ClosedFormWall, CrossSection, e_s_spectral, sample_wall
from wallscale.magnetostatics import RescalingParams, richardson_boundary_oracle
from wallscale.minimize import _real_space_surface

CASE_ID = "rect_l0.1_d0.05_standard_wall"
# spectral E_s is 1.08e-6 from the oracle value (+7.0e-7 and -3.8e-7 from the
# grid-free referee), held with headroom; a regeneration must not loosen this
TOLERANCE = "5e-6"
OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_energies.csv"


def main() -> None:
    cs = CrossSection(l=0.1, d=0.05)
    wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0)
    profile = sample_wall(wall, 26.0, 2049)

    t0 = time.perf_counter()
    extrapolated, raw = richardson_boundary_oracle(profile, cs)
    oracle_seconds = time.perf_counter() - t0
    spectral = e_s_spectral(profile, cs)
    params = RescalingParams.from_cross_section(cs)
    referee = float(_real_space_surface(cs, params.lam, 1.0, 1.0)(1.0)[0] * params.mu)

    print(f"oracle raw values : {raw}")
    print(f"oracle extrapolated: {extrapolated!r}  ({oracle_seconds:.2f}s)")
    print(f"spectral           : {spectral!r}")
    print(f"real-space referee : {referee!r}")
    print(f"spectral - oracle  : {spectral / extrapolated - 1.0:+.3e} relative")
    print(f"spectral - referee : {spectral / referee - 1.0:+.3e} relative")
    print(f"oracle - referee   : {extrapolated / referee - 1.0:+.3e} relative")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "component", "value", "tolerance"])
        writer.writerow([CASE_ID, "e_s", repr(extrapolated), TOLERANCE])
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
