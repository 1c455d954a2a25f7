import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

from wallscale import ClosedFormWall, CrossSection, full_energy, kernels, sample_wall
from wallscale.magnetostatics import _section_pair_green
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


def closed_form_spectrum_energies(cs: CrossSection, a: float) -> tuple[float, float]:
    """Test oracle for both charge energies of the wall m1 = tanh(ax), m2 =
    sech(ax), m3 = 0, from its closed-form unitary spectra, with no grid or
    window: (E_s, E_v) = (8/pi^2) int_0^inf (I(d,l,k) |m2_hat|^2, K |g_hat|^2)
    dk, g = dm1/dx, by the trapezoid rule in ln k with step 0.02 over k from
    e^-40 to 60 a, where both spectra are below 1e-70 of their peaks.
    GOLDEN_E_S and GOLDEN_E_V of test_magnetostatics come from it."""
    k = np.exp(np.arange(-40.0, math.log(60.0 * a), 0.02))
    u = (0.5 * math.pi / a) * k
    m2_hat2 = (0.5 / math.pi) * (math.pi / a / np.cosh(u)) ** 2
    g_hat2 = (0.5 / math.pi) * (2.0 * u / np.sinh(u)) ** 2
    surface, _ = kernels.kernel_batch(cs, True, k)
    volume, _ = kernels.volume_kernel_batch(cs, k)
    scale = (8.0 / math.pi**2) * 0.02
    return scale * float(surface * m2_hat2 @ k), scale * float(volume * g_hat2 @ k)


def grid_free_e_v(cs: CrossSection, a: float) -> float:
    """Test referee for E_v of the wall m1 = tanh(ax) with no grid or
    window: E_v = (1/2 pi) int_0^inf A(s) F(s) ds with F the section pair
    integral (magnetostatics._section_pair_green, as l^3 F(1, c, s/l)) and
    A(s) = a h(as) the autocorrelation of g = dm1/dx, h(t) = 4 (t cosh t -
    sinh t)/sinh^3 t (series 4/3 - 8t^2/15 + 8t^4/63 below t = 1e-2), by the
    trapezoid rule in ln s with step 0.05 from 1e-14 l to as = 40.  It gives
    2.0036953923065e-4 on the golden section, 1.75936972165857e-15 at (l, d)
    = (1e-3, 1e-5) and 1.76135417433156e-23 at (1e-3, 1e-9), the same to 13
    digits at step 0.025 or from 1e-16 l to as = 50."""
    s = np.exp(np.arange(math.log(1e-14 * cs.l), math.log(40.0 / a), 0.05))
    t = a * s
    small = t < 1e-2
    h = np.empty_like(t)
    h[small] = 4.0 / 3.0 - 8.0 * t[small] ** 2 / 15.0 + 8.0 * t[small] ** 4 / 63.0
    big = t[~small]
    h[~small] = 4.0 * (big * np.cosh(big) - np.sinh(big)) / np.sinh(big) ** 3
    pair, _ = _section_pair_green(CrossSection(1.0, cs.c), s / cs.l)
    return 0.05 / (2.0 * math.pi) * float(s * a * h @ pair) * cs.l**3


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
