"""Magnetostatic energy of x-dependent magnetization profiles.

The surface-charge energy E_s is evaluated spectrally:

    E_s = (4/pi^2) * int [ I(l,d,k) |m3_hat(k)|^2 + I(d,l,k) |m2_hat(k)|^2 ] dk

with the unitary Fourier convention (symmetric 1/sqrt(2 pi) split), so that
the discrete Plancherel identity holds exactly on the grid.  A real-space
boundary oracle over the four cross-section faces provides an independent
check of both the constant and the convention.

The volume-charge energy E_v is reported through an explicit closed-form
upper bound (always) and optionally through the real-space Green-function
lag sum of e_v_volume_oracle, whose referee is the spectral (4/pi^2) int
K(l,d,k) |g_hat(k)|^2 dk, g = d m1/dx, with the volume kernel K of kernels.

Both real-space oracles are one lag sum (_lag_sum) of the charge's
autocorrelation on the grid and a pair function averaged over each lag cell
-- the closed-form face pair for E_s, the section pair integral F for E_v.
Every kernel value, pair integral, cell average and energy leaves through
quad._check_rule: a finite normal double within quad._RULE_TOL of its estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import QuadratureError, WallscaleError
from .kernels import CrossSection
from .quad import _LAGUERRE16_NODES, _LAGUERRE16_WEIGHTS, _TINY, _check_rule, _gk_panels, _halving_edges
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
# lowest halving edge, over the scale d, of a rule on a log singularity at 0
# (the pair rule at a zero lag, the lag-0 cell of E_s): the panel below it
# holds under 1e-12 of the integral, so the singularity costs no digit
_ZERO_LAG_FLOOR = 1e-14
# node values per block of lags of the pair rule, bounding its temporaries
_PAIR_BLOCK = 1 << 15


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
        if not (q >= _TINY and _TINY <= mu < math.inf):  # rescaled energies divide by mu and lambda^2 = 1/q
            raise WallscaleError(f"c |ln c| = {q!r} or mu = {mu!r} outside the normal range at {cs}")
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


def _spectral_sum(freqs: np.ndarray, amp: np.ndarray, kernel: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum kernel(|k|) |amp|^2 over the frequencies whose |amp|^2 is above
    _SPECTRAL_FLOOR times the peak; kernel is called once, on their
    ascending distinct |k|.  Raises WallscaleError when |amp|^2 overflows."""
    with np.errstate(over="ignore"):
        amp2 = np.abs(amp) ** 2
    peak = float(amp2.max()) if amp2.size else 0.0
    if not math.isfinite(peak):
        raise WallscaleError("squared spectral amplitudes overflow; the grid spacing is too large")
    if peak == 0.0:
        return 0.0
    kept = amp2 > _SPECTRAL_FLOOR * peak
    keys, where = np.unique(np.abs(freqs[kept]), return_inverse=True)
    weights = kernel(keys)[where]
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which the caller's _check_rule refuses
        return float(np.sum(weights * amp2[kept]))


def e_s_spectral(p: Profile1D, cs: CrossSection, cache: Optional[KernelCache] = None) -> float:
    """Surface-charge energy via the rectangle spectral representation.

    The m2 channel is weighted by I(d,l,k), the m3 channel by I(l,d,k).
    A profile without charge gives 0.0, any other energy passes quad._check_rule.
    """
    if cache is None:
        cache = KernelCache(cs)
    spec = spectrum(p)
    total = 0.0
    for swap, amp in ((True, spec.m2_hat), (False, spec.m3_hat)):
        total += _spectral_sum(spec.frequencies, amp, lambda ks: cache.values(swap, ks)) * spec.dk
    energy = (4.0 / math.pi**2) * total
    if spec.m2_hat.any() or spec.m3_hat.any():
        _check_rule("surface energy", energy, 0.0, lambda i: f"{cs}")
    return energy


def _lag_weights(g: np.ndarray) -> np.ndarray:
    """Autocorrelation of g at lags m >= 0 with the lags m > 0 doubled, so
    that sum_m w[m] f(m) = sum_{i,j} g[i] g[j] f(|i - j|)."""
    w = np.correlate(g, g, "full")[g.size - 1 :]
    w[1:] *= 2.0
    return w


# the lag sum averages the pair function over at least 20 lag cells and out to
# this span, in units of the section half-width l, and takes point values beyond
_CELL_SPAN = 10.0


def _lag_sum(
    w: np.ndarray, h: float, l: float, floor: float, pair: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """(sum_m w[m] P_m, error) for the lag weights w at spacing h, P_m the
    average over the lag cell [(m - 1/2)h, (m + 1/2)h] of the pair function,
    whose values at separations s > 0 pair(s) gives: product integration,
    which integrates the pair function, singular or steep at 0 on the scale
    d, and samples only the smooth autocorrelation w.  The lag-0 cell takes
    GK15 on panels halving from h/2 down to floor and the panel below, the
    cells out to _CELL_SPAN l, at least 20, a panel each, held to
    quad._RULE_TOL by quad._check_rule; past them the pair function is
    smooth on the scale of the lag, and pair(m h) stands for P_m.  The error
    sums |w| times each average's Kronrod-minus-Gauss estimate.
    """
    cells = min(w.size, max(math.ceil(min(_CELL_SPAN * l / h, w.size)), 20))  # 40 and 20 on the golden grids
    sums = np.zeros((2, cells))  # per cell over s > 0: Kronrod sums, Kronrod-minus-Gauss estimates
    # the half cell [0, h/2], then the cells beyond, the lag-1 cell in two
    # halves as it lies as close to 0 as it is wide; one pair call each, so
    # that a pair rule refined for the smallest s serves the lag-0 cell only
    for edges in (np.append(_halving_edges(0.5 * h, floor), 0.0), h * np.append([0.5, 1], np.arange(1.5, cells))):
        nodes, kronrod, excess = _gk_panels(edges)
        f = pair(nodes.ravel()).reshape(nodes.shape)
        lag = np.rint((edges[:-1] + edges[1:]) / (2.0 * h)).astype(int)  # 0.5/h overflows at a subnormal h
        sums[0] += np.bincount(lag, (f * kronrod).sum(axis=1), cells)
        sums[1] += np.bincount(lag, np.abs((f * excess).sum(axis=1)), cells)
    sums[:, 0] *= 2.0  # the lag-0 cell [-h/2, h/2] is twice its half on s > 0
    averages, errors = sums / h
    _check_rule("cell average", averages, errors, lambda m: f"lag {m}")
    far = w[cells:] @ pair(h * np.arange(cells, w.size)) if cells < w.size else 0.0
    return float(w[:cells] @ averages + far), float(np.abs(w[:cells]) @ errors)


def e_s_boundary_oracle(p: Profile1D, cs: CrossSection) -> float:
    """Real-space oracle for the surface-charge energy, independent of the
    spectral path and the kernels.

    Per face family (charge m2 on the y-faces, of width 2d and 2l apart;
    m3 on the z-faces, of width 2l and 2d apart) the charge is uniform
    across each face, so the transverse double integral is the closed-form
    face pair: E_s = (h^2/pi) sum_m w[m] P_m, with w the lag weights of the
    charge column and P_m the average over the lag cell (_lag_sum) of

        Phi(s) = a [F(s/a) - F(hypot(s, b)/a)],  F = _face_pair,

    a the face half-width and b the face separation: same face minus
    opposite face.  Mixed pairs between the two families cancel by the
    reflection symmetry of the rectangle.  Converges like h^2.

    Raises:
        QuadratureError: a cell average misses its tolerance, or E_s of a
            charged profile is not a normal double within its rule error.
    """
    h = p.spacing
    with np.errstate(all="ignore"):  # F(s/a) overflows on faces wider than ~1e300 h: _check_rule refuses it
        sums = [  # per charged face family (charge column, face half-width a, face separation b)
            _lag_sum(_lag_weights(p.m[:, column]), h, cs.l, _ZERO_LAG_FLOOR * min(cs.d, h),
                     lambda s: a * (_face_pair(s / a) - _face_pair(np.hypot(s, b) / a)))
            for column, a, b in ((1, cs.d, 2.0 * cs.l), (2, cs.l, 2.0 * cs.d)) if p.m[:, column].any()
        ]
    if not sums:
        return 0.0
    energy, error = (sum(terms) * h * h / math.pi for terms in zip(*sums))
    _check_rule("surface energy", energy, error, lambda i: f"{cs}")
    return energy


def richardson_boundary_oracle(p: Profile1D, cs: CrossSection) -> tuple[float, list[float]]:
    """Boundary oracle on p's grid and on its every-other-node subgrid (p
    needs an odd node count), with the h^2 term removed in one Richardson
    stage.  Returns (extrapolated_value, [coarse, fine])."""
    if p.n_nodes % 2 == 0:
        raise ValueError(f"Richardson boundary oracle needs an odd node count, got {p.n_nodes}")
    coarse = Profile1D(p.x[::2], p.m[::2], check_boundary=False)
    raw = [e_s_boundary_oracle(coarse, cs), e_s_boundary_oracle(p, cs)]
    return raw[1] + (raw[1] - raw[0]) / 3.0, raw


def e_v_upper_bound(p: Profile1D, cs: CrossSection) -> float:
    """Closed-form upper bound on the volume-charge energy, through quad._check_rule.

    Sum of the two explicit estimates, with norms by trapezoid on the grid,

        (4/pi) ||d m1||^2 l^2 d^2  +  10 l d^2 (1 + ln(l/d))
      + 20 pi l d^2 (1 + ln(l/d)) (||m*||^2 + ||d m1||^2)
    """
    h = p.spacing
    dm1, mstar, const = _e_v_bound_coefficients(cs)
    norms = dm1 * _trapezoid(profile_derivative(p)[:, 0] ** 2, h) + mstar * _trapezoid(offset_m1(p) ** 2, h)
    bound = cs.l * cs.d * (norms + const)
    _check_rule("volume energy bound", bound, 0.0, lambda i: f"{cs}")
    return bound


def _e_v_bound_coefficients(cs: CrossSection) -> tuple[float, float, float]:
    """(A, B, C) with e_v_upper_bound = l d (A ||d m1/dx||^2 + B ||m*||^2 + C), normal where l d^2 is not."""
    log_term = 1.0 + math.log(cs.l / cs.d)
    mixed = 20.0 * math.pi * cs.d * log_term
    return (4.0 / math.pi) * cs.l * cs.d + mixed, mixed, 10.0 * cs.d * log_term


def e_v_spectral(p: Profile1D, cs: CrossSection) -> float:
    """Volume-charge energy (4/pi^2) int K(l,d,k) |g_hat(k)|^2 dk with g the
    sampled derivative of m1, the referee of e_v_volume_oracle: its window
    biases it low like 1/L, 3.52e-3 on the golden wall and 1.63e-3 thin.

    The k = 0 node (where K ~ A ln k + B has an integrable logarithmic
    singularity) is replaced by the average of K over (0, dk/2], the integral
    of K((dk/2) e^-t) e^-t over t > 0 by 16-point Gauss-Laguerre, exact for
    that logarithm.
    All kernel values come from one kernels.volume_kernel_batch call.
    A profile without volume charge gives 0.0, any other energy passes quad._check_rule.
    """
    frequencies, dk, (g_hat,) = _unitary_dft(p, profile_derivative(p)[:, 0])

    def kernel(keys: np.ndarray) -> np.ndarray:
        has_zero = keys[0] == 0.0
        values, _ = kernels.volume_kernel_batch(
            cs, np.concatenate([0.5 * dk * np.exp(-_LAGUERRE16_NODES), keys[1:] if has_zero else keys])
        )
        cell_average = [np.dot(_LAGUERRE16_WEIGHTS, values[:16])] if has_zero else []
        return np.concatenate([cell_average, values[16:]])

    energy = (4.0 / math.pi**2) * _spectral_sum(frequencies, g_hat, kernel) * dk
    if g_hat.any():
        _check_rule("volume energy", energy, 0.0, lambda i: f"{cs}")
    return energy


def _face_pair(t: np.ndarray) -> np.ndarray:
    """phi(q)/d = F(q/d) for the face-pair integral phi(q) = int_0^2d (2d - u)
    / sqrt(u^2 + q^2) du = 2d asinh(2d/q) - 4d^2/(sqrt(4d^2 + q^2) + q), with
    t = q/d: F(t) = 2 asinh(2/t) - 4/(hypot(2, t) + t), whose overflow at the top of the double range gives its limit 0."""
    return 2.0 * np.arcsinh(2.0 / t) - 4.0 / (np.hypot(2.0, t) + t)


def _section_pair_green(cs: CrossSection, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) of the cross-section pair Green integral

        F(s) = int_{R x R} 1/sqrt(s^2 + (y-y1)^2 + (z-z1)^2)
             = 4 int_0^{2l} (2l - u) phi(hypot(s, u)) du

    at every axial separation s >= 0, with phi the face pair of _face_pair;
    F(0) is the flat 2l x 2d cell's self integral, whose closed form cancels
    on thin cells.  quad's GK15 rule runs on panels halving from 2l toward
    u = 0 until the last is at most min(s), or _ZERO_LAG_FLOOR d when min(s)
    is smaller, then on the panel down to 0, all panels at once for blocks
    of lags of at most _PAIR_BLOCK node values.  The errors sum each panel's
    Kronrod-minus-Gauss estimate, held to quad._RULE_TOL by quad._check_rule.
    F(0) is within 1.1e-15 of the closed form in mpmath for l from 1e-3 to
    100 and c from 1 to 1e-150.
    """
    tl, d = 2.0 * cs.l, cs.d
    nodes, kronrod, excess = _gk_panels(np.append(_halving_edges(tl, max(s.min(), _ZERO_LAG_FLOOR * d)), 0.0))
    weights, excess = 4.0 * (tl - nodes) * kronrod, 4.0 * (tl - nodes) * excess
    values, errors = np.empty(s.size), np.empty(s.size)
    step = max(1, _PAIR_BLOCK // nodes.size)
    for lo in range(0, s.size, step):
        f = d * _face_pair(np.hypot(s[lo : lo + step, None, None], nodes) / d)  # (lags, panels, 15)
        values[lo : lo + step] = f.reshape(f.shape[0], -1) @ weights.ravel()
        errors[lo : lo + step] = np.abs((f * excess).sum(axis=2)).sum(axis=1)
    _check_rule("pair integral", values, errors, lambda i: f"s={s[i]:.17g}")
    return values, errors


def e_v_volume_oracle(p: Profile1D, cs: CrossSection) -> float:
    """Real-space Green-function oracle for the volume-charge energy:

        E_v = (1/4 pi) int int g(x) g(x') F(x - x') dx dx'

    with g = d m1/dx and F the transverse pair integral of 1/r over the
    cross-section (_section_pair_green, independent of the spectral path),
    as l^3 F(1, c, s/l), so that only E_v itself need be a normal double.

    The lag sum (_lag_sum) dots the lag weights of g h with F averaged over
    each lag cell; F falls steeply over d < s < l on thin sections, which
    the cell averages integrate.  Where h > l/2 the point values past the
    20 cells, about 1/(12 m^2) off the average at lag m, stall it near -1.3e-5.

    Raises:
        QuadratureError: a bound on F(1, c, 0) (c < 6e-157) or on E_v below
            the normal range, a cell average off its tolerance, or E_v of a
            charged profile not a normal double within its rule error.
    """
    h = p.spacing
    g = profile_derivative(p)[:, 0] * h  # dimensionless, as are F(1, c, s/l) = F(l, d, s)/l^3
    if not g.any():
        return 0.0
    # F(1, c, s) <= F(1, c, 0) <= peak, the area times 1/r integrated over the section about its centre
    peak = 16.0 * cs.c**2 * (1.0 + math.log(2.0 + cs.c) - math.log(cs.c))
    bound = peak * float(np.abs(g).sum()) ** 2 / (4.0 * math.pi) * cs.l * cs.l * cs.l  # >= |E_v|
    if not (peak >= _TINY and bound >= _TINY):
        raise QuadratureError(f"F(1, c, 0) <= {peak:.3e} or E_v <= {bound:.3e} below the normal range at {cs}")
    unit = CrossSection(1.0, cs.c)
    # F is bounded, with a kink at 0 and its fall on the scale d, to a tenth of which the lag-0 cell halves
    floor = 0.1 * min(cs.c, h / cs.l)
    sums = _lag_sum(_lag_weights(g), h / cs.l, 1.0, floor, lambda s: _section_pair_green(unit, s)[0])
    # each factor moves toward the result, so none leaves the range first
    energy, error = (value / (4.0 * math.pi) * cs.l * cs.l * cs.l for value in sums)
    _check_rule("volume energy", energy, error, lambda i: f"{cs}")
    return energy


@dataclass(frozen=True)
class EnergyBreakdown:
    """Exchange, surface-charge and volume-charge contributions for one
    profile, plus the rescaled upper total (E_ex + E_s + E_v_bound)/mu, None at
    c = 1, where lambda = 1/sqrt(c |ln c|) is undefined.  All must be finite."""

    exchange: float
    e_s: float
    e_v_bound: float
    e_v_exact: Optional[float]
    total_upper: float
    rescaled_upper: Optional[float]

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise WallscaleError(f"{name} = {value!r} is not finite")
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
    cross-section.  e_v_exact (e_v_volume_oracle) is evaluated only on
    request; the closed-form bound is always reported and enters the rescaled upper total.
    """
    exchange = 4.0 * cs.l * cs.d * exchange_integral(p)
    e_s = e_s_spectral(p, cs, cache=cache)
    e_v_bound = e_v_upper_bound(p, cs)
    e_v_exact = e_v_volume_oracle(p, cs) if include_e_v_exact else None
    total_upper = exchange + e_s + e_v_bound
    return EnergyBreakdown(
        exchange=exchange,
        e_s=e_s,
        e_v_bound=e_v_bound,
        e_v_exact=e_v_exact,
        total_upper=total_upper,
        rescaled_upper=total_upper / RescalingParams.from_cross_section(cs).mu if cs.c < 1.0 else None,
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
