"""Magnetostatic energy of x-dependent magnetization profiles.

The surface-charge energy E_s is evaluated spectrally:

    E_s = (4/pi^2) * int [ I(l,d,k) |m3_hat(k)|^2 + I(d,l,k) |m2_hat(k)|^2 ] dk

with the unitary Fourier convention (symmetric 1/sqrt(2 pi) split), so that
the discrete Plancherel identity holds exactly on the grid.  A direct
boundary-integral oracle over the four cross-section faces provides an
independent check of both the constant and the convention.

The volume-charge energy E_v is reported through an explicit closed-form
upper bound (always) and optionally through the spectral evaluation
(4/pi^2) int K(l,d,k) |g_hat(k)|^2 dk, g = d m1/dx, with the volume kernel
K of the kernels module, validated against a real-space Green-function oracle.

Both spectral energies take their kernel values from the fixed rules of the
kernels module, whose error estimates are held to a relative 1e-8; only the
real-space volume oracle sets a quadrature tolerance of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ResolutionError, WallscaleError
from .kernels import CrossSection
from .quad import QuadratureConfig, integrate_finite
from .walls import Profile1D, _trapezoid, exchange_integral, profile_derivative

__all__ = [
    "RescalingParams",
    "SpectrumProfile",
    "EnergyBreakdown",
    "KernelCache",
    "LipschitzReport",
    "spectrum",
    "offset_m1",
    "e_s_spectral",
    "e_s_boundary_oracle",
    "richardson_boundary_oracle",
    "e_v_upper_bound",
    "e_v_spectral",
    "e_v_volume_oracle",
    "full_energy",
    "emag_lipschitz_check",
]

GAMMA_LIMIT = 16.0 / math.sqrt(math.pi)

# amplitudes this far below the spectral peak are skipped when summing the
# kernel-weighted spectrum; with kernels bounded by 2*pi*l*d*a_c the skipped
# mass is below 1e-12 of the total
_SPECTRAL_FLOOR = 1e-15


@dataclass(frozen=True)
class RescalingParams:
    """Longitudinal scale lambda = 1/sqrt(c |ln c|) and energy scale
    mu = l*d/lambda under which rescaled minima approach 16/sqrt(pi)."""

    lam: float
    mu: float

    @staticmethod
    def from_cross_section(cs: CrossSection) -> "RescalingParams":
        if cs.c >= 1.0:
            raise ValueError("rescaling requires aspect ratio c < 1")
        q = cs.c * abs(math.log(cs.c))
        lam = 1.0 / math.sqrt(q)
        mu = cs.l * cs.d / lam
        if not mu >= np.finfo(float).tiny:  # every rescaled energy divides by mu
            raise WallscaleError(f"energy scale mu = {mu!r} below the normal range at {cs}")
        return RescalingParams(lam=lam, mu=mu)


@dataclass(frozen=True)
class SpectrumProfile:
    """Unitary discrete transforms of the transverse components.

    Frequencies are ascending with spacing dk = pi / L.
    """

    frequencies: np.ndarray
    m2_hat: np.ndarray
    m3_hat: np.ndarray
    dk: float


def offset_m1(p: Profile1D) -> np.ndarray:
    """m* = m1 + 1 on x <= 0 and m1 - 1 on x > 0 (square-integrable offset)."""
    return np.where(p.x <= 0.0, p.m[:, 0] + 1.0, p.m[:, 0] - 1.0)


def _unitary_dft(p: Profile1D, *columns: np.ndarray) -> tuple[np.ndarray, float, list[np.ndarray]]:
    """Ascending frequencies, their spacing dk and the unitary DFT of each
    sampled column on p's grid.

    The last node is dropped (period 2L), giving dk = pi/L and an exact
    discrete Plancherel identity sum |f_hat|^2 dk = h sum |f|^2 for columns
    vanishing at the ends.  An all-zero column transforms to exact zeros.
    """
    h = p.spacing
    M = p.n_nodes - 1
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(M, d=h))
    phase = (h / math.sqrt(2.0 * math.pi)) * np.exp(-1j * k * p.x[0])
    transforms = [
        phase * np.fft.fftshift(np.fft.fft(c[:M])) if c[:M].any() else np.zeros(M, complex) for c in columns
    ]
    return k, 2.0 * math.pi / (M * h), transforms


def spectrum(p: Profile1D) -> SpectrumProfile:
    """Unitary DFT of m2 and m3 on the profile grid (see _unitary_dft);
    both must vanish at the grid ends."""
    for idx, name in ((1, "m2"), (2, "m3")):
        edge = max(abs(p.m[0, idx]), abs(p.m[-1, idx]))
        if edge > 1e-6:
            raise ValueError(f"{name} must vanish at the grid ends, got {edge:.3e}")
    k, dk, (m2_hat, m3_hat) = _unitary_dft(p, p.m[:, 1], p.m[:, 2])
    return SpectrumProfile(frequencies=k, m2_hat=m2_hat, m3_hat=m3_hat, dk=dk)


class KernelCache:
    """Memoized I(l,d,.) / I(d,l,.) values for one cross-section.

    Per channel it holds the sorted |x| seen so far with their kernel values;
    the misses of one lookup are filled by one kernels.kernel_batch call.
    Cached values are exactly the values a fresh i_kernel call would return.
    """

    def __init__(self, cs: CrossSection):
        self.cross_section = cs
        self._tables = {swap: (np.empty(0), np.empty(0)) for swap in (True, False)}

    def values(self, swap: bool, xs: np.ndarray) -> np.ndarray:
        """Kernel values at every frequency of the 1-D array xs."""
        ax = np.abs(np.asarray(xs, dtype=float))
        keys, vals = self._tables[swap]
        new = np.setdiff1d(ax, keys)
        if new.size:
            new_vals, _ = kernels.kernel_batch(self.cross_section, swap, new)
            keys, vals = np.concatenate([keys, new]), np.concatenate([vals, new_vals])
            order = np.argsort(keys)
            keys, vals = self._tables[swap] = keys[order], vals[order]
        return vals[np.searchsorted(keys, ax)]

    def value(self, swap: bool, x: float) -> float:
        return float(self.values(swap, np.array([x]))[0])

    def __len__(self) -> int:
        return sum(keys.size for keys, _ in self._tables.values())


def _channel_sum(
    cache: KernelCache, swap: bool, freqs: np.ndarray, amp2: np.ndarray, dk: float
) -> float:
    peak = float(amp2.max()) if amp2.size else 0.0
    if peak == 0.0:
        return 0.0
    kept = amp2 > _SPECTRAL_FLOOR * peak
    return float(np.sum(cache.values(swap, freqs[kept]) * amp2[kept])) * dk


def e_s_spectral(p: Profile1D, cs: CrossSection, cache: Optional[KernelCache] = None) -> float:
    """Surface-charge energy via the rectangle spectral representation.

    The m2 channel is weighted by I(d,l,k), the m3 channel by I(l,d,k).
    """
    if cache is None:
        cache = KernelCache(cs)
    spec = spectrum(p)
    total = _channel_sum(cache, True, spec.frequencies, np.abs(spec.m2_hat) ** 2, spec.dk)
    total += _channel_sum(cache, False, spec.frequencies, np.abs(spec.m3_hat) ** 2, spec.dk)
    return (4.0 / math.pi**2) * total


def _self_patch(a: float, b: float) -> float:
    """int_cell int_cell 1/|p-q| for a flat a x b rectangular cell."""
    s = math.hypot(a, b)
    A = math.asinh(b / a)
    B = math.asinh(a / b)
    t1 = a * b * (a * A + b * B)
    t2 = b * ((b / 2.0) * s + (a * a / 2.0) * A - b * b / 2.0)
    t3 = a * ((a / 2.0) * s + (b * b / 2.0) * B - a * a / 2.0)
    t4 = (s**3 - a**3 - b**3) / 3.0
    return 4.0 * (t1 - t2 - t3 + t4)


def _lag_weights(g: np.ndarray) -> np.ndarray:
    """Autocorrelation of g at lags m >= 0 with the lags m > 0 doubled, so
    that sum_m w[m] f(m) = sum_{i,j} g[i] g[j] f(|i - j|)."""
    w = np.correlate(g, g, "full")[g.size - 1 :]
    w[1:] *= 2.0
    return w


def _face_family_energy(
    sigma: np.ndarray, dx: float, half_across: float, n_across: int, separation: float
) -> tuple[float, float]:
    """Same-face minus opposite-face interaction of one face pair family.

    Returns (energy_contribution, diagonal_part).  `sigma` holds the charge
    at the axial cell centers; cells across the face have width
    2*half_across/n_across; the two faces of the family sit `separation`
    apart with opposite charge sign.  The pair table holds, per axial lag,
    the panel-pair sum of 1/r_same - 1/r_cross over the transverse offsets;
    the singular self cell takes the analytic flat-cell integral instead.
    """
    dz = 2.0 * half_across / n_across
    lag2 = (np.arange(sigma.size) * dx) ** 2
    sep2 = separation**2
    pair = np.zeros(sigma.size)
    # transverse offsets o >= 0 with their panel-pair counts (n - |o| per sign)
    for o, count in enumerate(_lag_weights(np.ones(n_across))):
        r2 = lag2 + (o * dz) ** 2
        same = np.divide(1.0, np.sqrt(r2), out=np.zeros_like(r2), where=r2 > 0.0)
        pair += count * (same - 1.0 / np.sqrt(r2 + sep2))
    w = _lag_weights(sigma)
    diagonal = w[0] * n_across * _self_patch(dx, dz) / (2.0 * math.pi)
    return float(w @ pair) * (dx * dz) ** 2 / (2.0 * math.pi) + diagonal, diagonal


def e_s_boundary_oracle(
    p: Profile1D, cs: CrossSection, resolution: tuple[int, int] = (512, 16)
) -> float:
    """Direct double-surface-integral oracle for the surface-charge energy.

    Midpoint panels over the four faces of the cross-section boundary
    (`resolution` = panels along x, panels across each face), with the
    singular same-cell interaction replaced by the analytic flat-cell
    integral.  Mixed pairs between the y-faces (charge m2) and z-faces
    (charge m3) cancel exactly by the reflection symmetry of the rectangle
    and are not computed.

    Converges O(h); meant to be Richardson-extrapolated across resolutions.

    Raises:
        ResolutionError: the analytic diagonal dominates (> 20% of the
            total), meaning the resolution is too coarse to trust.
    """
    n_axial, n_across = resolution
    if n_axial < 8 or n_across < 2:
        raise ValueError("resolution too small")
    dx = (p.x[-1] - p.x[0]) / n_axial
    centers = p.x[0] + (np.arange(n_axial) + 0.5) * dx
    total = 0.0
    diag = 0.0
    # (charge column, face half-width across, face separation) per family
    for column, half_across, separation in ((1, cs.d, 2.0 * cs.l), (2, cs.l, 2.0 * cs.d)):
        sigma = np.interp(centers, p.x, p.m[:, column])
        if sigma.any():
            e, dg = _face_family_energy(sigma, dx, half_across, n_across, separation)
            total += e
            diag += dg
    if total != 0.0 and diag > 0.2 * abs(total):
        raise ResolutionError(
            f"self-patch diagonal is {diag / abs(total):.1%} of the oracle total; "
            "refine the resolution"
        )
    return float(total)


# the three doubling resolutions of the Richardson boundary oracle
_RICHARDSON_RESOLUTIONS = ((512, 16), (1024, 32), (2048, 64))


def richardson_boundary_oracle(p: Profile1D, cs: CrossSection) -> tuple[float, list[float]]:
    """Boundary oracle at three doubling resolutions, Richardson-extrapolated.

    The leading error is O(h); two extrapolation stages remove the first two
    orders.  Returns (extrapolated_value, raw_values).
    """
    raw = [e_s_boundary_oracle(p, cs, resolution) for resolution in _RICHARDSON_RESOLUTIONS]
    first = [2.0 * raw[1] - raw[0], 2.0 * raw[2] - raw[1]]
    return first[1] + (first[1] - first[0]) / 3.0, raw


def e_v_upper_bound(p: Profile1D, cs: CrossSection) -> float:
    """Closed-form upper bound on the volume-charge energy.

    Sum of the two explicit estimates, with norms by trapezoid on the grid,

        (4/pi) ||d m1||^2 l^2 d^2  +  10 l d^2 (1 + ln(l/d))
      + 20 pi l d^2 (1 + ln(l/d)) (||m*||^2 + ||d m1||^2)
    """
    h = p.spacing
    dm1_sq = _trapezoid(profile_derivative(p)[:, 0] ** 2, h)
    return _e_v_bound(cs, dm1_sq, _trapezoid(offset_m1(p) ** 2, h))


def _e_v_bound(cs: CrossSection, dm1_sq: float, mstar_sq: float) -> float:
    """e_v_upper_bound from the norms ||d m1/dx||^2 and ||m*||^2."""
    log_term = 1.0 + math.log(cs.l / cs.d)
    i1 = (4.0 / math.pi) * dm1_sq * cs.l**2 * cs.d**2 + 10.0 * cs.l * cs.d**2 * log_term
    i2 = 20.0 * math.pi * cs.l * cs.d**2 * log_term * (mstar_sq + dm1_sq)
    return i1 + i2


def e_v_spectral(p: Profile1D, cs: CrossSection) -> float:
    """Volume-charge energy (4/pi^2) int K(l,d,k) |g_hat(k)|^2 dk with g the
    sampled derivative of m1.

    The k = 0 node (where K has an integrable logarithmic singularity) is
    replaced by the average of K over (0, dk/2] by 16-point Gauss-Legendre.
    All kernel values come from one kernels.volume_kernel_batch call.
    """
    frequencies, dk, (g_hat,) = _unitary_dft(p, profile_derivative(p)[:, 0])
    amp2 = np.abs(g_hat) ** 2
    peak = float(amp2.max())
    if peak == 0.0:
        return 0.0
    kept = amp2 > _SPECTRAL_FLOOR * peak
    keys, where = np.unique(np.abs(frequencies[kept]), return_inverse=True)
    has_zero = keys[0] == 0.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    values, _ = kernels.volume_kernel_batch(
        cs, np.concatenate([0.25 * dk * (nodes + 1.0), keys[1:] if has_zero else keys])
    )
    cell_average = np.sum(0.5 * weights * values[:16])
    table = np.concatenate([[cell_average], values[16:]]) if has_zero else values[16:]
    return (4.0 / math.pi**2) * float(np.sum(table[where] * amp2[kept])) * dk


def _rect_pair_green(cs: CrossSection, s: float) -> float:
    """F(s) = int_{R x R} 1/sqrt(s^2 + (y-y1)^2 + (z-z1)^2): the cross-section
    pair Green integral at axial separation s, via autocorrelation reduction
    to one dimension (the inner transverse integral is closed-form)."""
    tl, td = 2.0 * cs.l, 2.0 * cs.d
    if s == 0.0:
        return _self_patch(tl, td)

    def inner(u: float) -> float:
        kk = math.hypot(s, u)
        return td * math.asinh(td / kk) - math.hypot(kk, td) + kk

    res = integrate_finite(
        lambda u: (tl - u) * inner(u),
        0.0,
        tl,
        QuadratureConfig(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=400),
    )
    return 4.0 * res.value


def e_v_volume_oracle(p: Profile1D, cs: CrossSection) -> float:
    """Real-space Green-function oracle for the volume-charge energy:

        E_v = (1/4 pi) int int g(x) g(x') F(x - x') dx dx'

    with g = d m1/dx and F the transverse pair integral of 1/r over the
    cross-section (computed by quadrature, independent of the spectral path).

    The lag sum samples F at multiples of h and converges like h^2: on the
    golden wall it is off by 1.45% at h = 0.51 l and 0.38% at h = 0.25 l.

    Raises:
        ResolutionError: the grid spacing exceeds l/2, so the lag sum cannot
            resolve F, which varies on the scale of the section.
    """
    h = p.spacing
    if h > 0.5 * cs.l:
        raise ResolutionError(
            f"grid spacing {h:.3e} exceeds half the section half-width {cs.l:.3e}; refine the grid"
        )
    w = _lag_weights(profile_derivative(p)[:, 0])
    total = 0.0
    for m in np.flatnonzero(w):
        total += w[m] * _rect_pair_green(cs, m * h)
    return float(total * h * h / (4.0 * math.pi))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Exchange, surface-charge and volume-charge contributions for one
    profile, plus the rescaled upper total (E_ex + E_s + E_v_bound)/mu."""

    exchange: float
    e_s: float
    e_v_bound: float
    e_v_exact: Optional[float]
    total_upper: float
    rescaled_upper: float

    def __post_init__(self) -> None:
        for name in ("exchange", "e_s", "e_v_bound"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.e_v_exact is not None and self.e_v_exact > self.e_v_bound:
            raise ValueError("e_v_exact exceeds its upper bound")


def full_energy(
    p: Profile1D,
    cs: CrossSection,
    include_e_v_exact: bool = False,
    cache: Optional[KernelCache] = None,
) -> EnergyBreakdown:
    """Full magnetostatic-plus-exchange energy of an x-dependent profile.

    exchange = 4*l*d * int |dm/dx|^2 (cross-section area times line integral);
    the volume/surface cross term vanishes by the symmetry of the rectangular
    cross-section.  e_v_exact is evaluated only on request; the closed-form
    bound is always reported and enters the rescaled upper total.
    """
    exchange = 4.0 * cs.l * cs.d * exchange_integral(p)
    e_s = e_s_spectral(p, cs, cache=cache)
    e_v_bound = e_v_upper_bound(p, cs)
    e_v_exact = e_v_spectral(p, cs) if include_e_v_exact else None
    total_upper = exchange + e_s + e_v_bound
    mu = RescalingParams.from_cross_section(cs).mu
    return EnergyBreakdown(
        exchange=exchange,
        e_s=e_s,
        e_v_bound=e_v_bound,
        e_v_exact=e_v_exact,
        total_upper=total_upper,
        rescaled_upper=total_upper / mu,
    )


@dataclass(frozen=True)
class LipschitzReport:
    """Both orderings of the magnetostatic Lipschitz-type inequality

        |E(p1) - E(p2)| <= ||p1-p2||^2 + 2 ||p1-p2|| sqrt(E(p_ref))

    with E = E_s and the L2(Omega) norm = 4*l*d times the line norm."""

    norm_omega: float
    emag_1: float
    emag_2: float
    margin_forward: float
    margin_reverse: float
    passed: bool


def emag_lipschitz_check(p1: Profile1D, p2: Profile1D, cs: CrossSection) -> LipschitzReport:
    """Evaluate the Lipschitz-type magnetostatic inequality for two profiles
    on the same grid, with E_mag = E_s."""
    if p1.n_nodes != p2.n_nodes or not np.allclose(p1.x, p2.x, rtol=0, atol=0):
        raise ValueError("profiles must share the same grid")
    cache = KernelCache(cs)
    e1 = e_s_spectral(p1, cs, cache=cache)
    e2 = e_s_spectral(p2, cs, cache=cache)
    norm_sq = 4.0 * cs.l * cs.d * _trapezoid(np.sum((p1.m - p2.m) ** 2, axis=1), p1.spacing)
    norm = math.sqrt(norm_sq)
    lhs = abs(e1 - e2)
    margin_fwd = norm_sq + 2.0 * norm * math.sqrt(e1) - lhs
    margin_rev = norm_sq + 2.0 * norm * math.sqrt(e2) - lhs
    budget = 1e-9 * (1.0 + e1 + e2)
    return LipschitzReport(
        norm_omega=norm,
        emag_1=e1,
        emag_2=e2,
        margin_forward=margin_fwd,
        margin_reverse=margin_rev,
        passed=(margin_fwd >= -budget and margin_rev >= -budget),
    )
