import csv
import math
import os
from pathlib import Path

import pytest

from wallscale import ClosedFormWall, CrossSection, full_energy, sample_wall
from wallscale.minimize import _ansatz_energy

DATA_DIR = Path(__file__).parent / "data"

# the golden reference case: square-ish cross-section with the limit wall
GOLDEN_CS = CrossSection(l=0.1, d=0.05)
GOLDEN_WALL = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0)
GOLDEN_L = 26.0
GOLDEN_N = 2049


# half-window of the sampled ansatz oracle in wall widths s sqrt(pi); at 15
# widths the end snap (m2 = sech(15) set to 0) adds an exchange of order
# sech(15)^2/h that grows with N and biases a Richardson extrapolation by 2e-10
ORACLE_HALF_WIDTHS = 25.0


def sampled_ansatz_energy(cs: CrossSection, s: float, n_nodes: int, cache=None) -> float:
    """Test oracle for the closed-form ansatz energy: the rescaled upper
    energy (E_ex + E_s + E_v_bound)/mu of the recovery wall m0(x/s) sampled
    on n_nodes, as the ansatz search computed it before its energies became
    closed forms.  The centered-difference exchange converges like h^2 from
    below."""
    wall = ClosedFormWall(alpha=1.0 / (math.pi * s * s), beta=1.0, theta=0.0)
    p = sample_wall(wall, ORACLE_HALF_WIDTHS * math.sqrt(math.pi) * s, n_nodes)
    return full_energy(p, cs, cache=cache).rescaled_upper


def ansatz_energy(cs: CrossSection, s: float) -> float:
    """The ansatz search's rescaled energy of the recovery wall m0(x/s), on
    the window of that one scale."""
    energy, _ = _ansatz_energy(cs, (s, s))
    return energy(s)[0]


def golden_dir() -> Path:
    return Path(os.environ.get("WALLSCALE_GOLDEN_DIR", DATA_DIR))


def load_golden(case_id: str, component: str) -> tuple[float, float]:
    """(value, tolerance) from the versioned golden CSV."""
    path = golden_dir() / "golden_energies.csv"
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["case_id"] == case_id and row["component"] == component:
                return float(row["value"]), float(row["tolerance"])
    raise KeyError(f"golden entry {case_id}/{component} not found in {path}")


@pytest.fixture(scope="session")
def standard_wall_profile():
    return sample_wall(GOLDEN_WALL, GOLDEN_L, GOLDEN_N)
