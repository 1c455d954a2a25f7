"""Sphere-constrained minimization of the discretized reduced energies, and
finite-dimensional minimization of the full rescaled energy over the
transverse-wall ansatz family.

The descent is projected gradient: Euclidean gradient of the discrete energy,
tangential projection g - (g.m)m at every node, a Barzilai-Borwein trial step
safeguarded by Armijo backtracking (so the energy sequence is monotone), node
renormalization after every step, boundary nodes pinned.

The ansatz search takes Newton steps on the closed-form energy of the
recovery wall m0(x/s) and its exact derivatives in s.  Its surface energy
is a short sum over the Mellin moments of the wall's sech^2 weight and the
k-free moments of the surface kernel's K0 series (_mellin_surface), with
no kernel evaluation; windows of scales where that sum would need more
than _MELLIN_TERMS terms take one k-rule of kernel values (_rule_surface).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .errors import QuadratureError, StallError, WallscaleError
from .kernels import _N, _PSI, _REL_TOL, _TINY, CrossSection, a_c
from .magnetostatics import RescalingParams, _e_v_bound_coefficients
from .mellin_moments import L as _L_MOMENTS, M as _M_MOMENTS
from .quad import _GL16_NODES, _GL16_WEIGHTS
# perfbench/tracing.py imports DiscreteReducedEnergy from this module
from .walls import M3_TOLERANCE, DiscreteReducedEnergy, Profile1D, ReducedEnergyWeights, _reduced_model, _sech

__all__ = [
    "AnsatzSearchResult",
    "minimize_reduced",
    "minimize_full_ansatz",
    "arc_profile",
]

logger = logging.getLogger(__name__)

_GRAD_TOL = 1e-5  # stopping bound on the projected-gradient norm
_MAX_ITERS = 200_000
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_FIRST_STEP = 0.25  # trial step before the first Barzilai-Borwein step
_BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class AnsatzSearchResult:
    """The wall of least rescaled energy in the recovery family m0(x/s)."""

    best_scale: float
    energy: float
    evaluations: int  # energies (with derivatives) taken by the Newton search
    kernel_nodes: int  # frequencies sent to kernels.kernel_batch: 0 on the Mellin branch


def _renormalized(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1)[:, None]


@np.errstate(over="ignore", invalid="ignore")  # non-finite energies raise WallscaleError
def minimize_reduced(
    init: Profile1D,
    weights: Union[float, ReducedEnergyWeights],
    trace_path: Optional[str | Path] = None,
) -> tuple[Profile1D, float]:
    """Projected gradient descent of a reduced energy from a pinned profile:
    E_alpha for a float alpha, E_0 for ReducedEnergyWeights.

    Terminates when the projected-gradient norm sqrt(h sum |g_tan|^2) drops
    below _GRAD_TOL = 1e-5, or after _MAX_ITERS = 200,000 iterations; then it
    logs a WARNING and returns the unconverged profile.  The returned energy
    never exceeds the initial one.

    Raises:
        StallError: backtracking found no decrease for the maximum number of
            halvings.
        WallscaleError: non-finite energy encountered.
    """
    model = _reduced_model(init.x, weights)
    forbid = isinstance(weights, ReducedEnergyWeights) and weights.forbid_m3
    if forbid and float(np.max(np.abs(init.m[:, 2]))) > M3_TOLERANCE:
        raise ValueError("forbid_m3 weights require an initial profile with m3 = 0")
    m = init.m.copy()
    e, g = model.energy_grad(m)

    trace_rows: list[tuple[int, float, float]] = []
    h = model.h
    step = _FIRST_STEP
    prev_m: Optional[np.ndarray] = None
    prev_g: Optional[np.ndarray] = None
    for iteration in range(_MAX_ITERS + 1):
        p = g - np.einsum("ij,ij->i", g, m)[:, None] * m
        p[0] = 0.0
        p[-1] = 0.0
        psq = float(np.sum(p * p))
        gnorm = math.sqrt(h * psq)
        if trace_path is not None:
            trace_rows.append((iteration, e, gnorm))
        if gnorm < _GRAD_TOL:
            break
        if iteration == _MAX_ITERS:
            logger.warning("descent stopped after %d iterations with projected-gradient norm %.3e "
                           "above %.1e; the profile is not converged", _MAX_ITERS, gnorm, _GRAD_TOL)
            break
        if prev_m is not None:
            s = m - prev_m
            y = g - prev_g
            sy = float(np.sum(s * y))
            if sy > 0:
                step = float(np.sum(s * s)) / sy
            step = min(max(step, 1e-12), 1e6)
        prev_m, prev_g = m.copy(), g.copy()
        t = step
        for _ in range(_MAX_BACKTRACKS):
            trial = _renormalized(m - t * p)
            trial[0], trial[-1] = m[0], m[-1]
            e_trial = model.energy(trial)
            if e_trial <= e - _ARMIJO_C * t * psq:
                break
            t *= _BACKTRACK_FACTOR
        else:
            raise StallError(
                f"no sufficient decrease after {_MAX_BACKTRACKS} backtracks "
                f"(iteration {iteration}, energy {e:.9e})"
            )
        m = trial
        e, g = model.energy_grad(m)

    if trace_path is not None:
        with open(trace_path, "w") as fh:
            fh.write("iteration,energy,grad_norm\n")
            for row in trace_rows:
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r}\n")

    out = Profile1D(init.x, m, check_boundary=False)
    return out, e


def arc_profile(L: float, N: int) -> Profile1D:
    """Great-circle arc initialization in the (m1, m2) plane: a smooth
    rotation from -e_x to +e_x with m3 = 0, inside the wall homotopy class."""
    if not (math.isfinite(L) and L > 0.0 and N >= 3):
        raise ValueError(f"arc needs a positive finite half-length and 3 nodes or more, got L={L!r}, N={N!r}")
    x = np.linspace(-L, L, N)
    phi = 0.5 * math.pi * (1.0 + np.clip(x / L, -1.0, 1.0))  # 0 .. pi
    m = np.stack([-np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    m[0] = (-1.0, 0.0, 0.0)
    m[-1] = (1.0, 0.0, 0.0)
    return Profile1D(x, m)


_NEWTON_STEPS = 8  # energy evaluations the scale search may take
_MELLIN_TERMS = _N.size  # term cap of the Mellin branch (20); windows that need more take the k-rule
_MELLIN_TAIL = 1e-17  # bound on the last Mellin term taken, relative to I(0)
_FACTORIAL2 = np.array([math.factorial(n) ** 2 for n in _N], dtype=float)
_M = np.array(_M_MOMENTS[1 : _MELLIN_TERMS + 1]) / _FACTORIAL2  # M_n / (n!)^2
_L = np.array(_L_MOMENTS[1 : _MELLIN_TERMS + 1]) / _FACTORIAL2  # L_n / (n!)^2
# ln of a bound on (pi/2) term n over I(0) is 2n ln(beta) + _LOG_M + ln(|ln beta| + _LOG_FACTOR):
# P_n and |Q_n| are below I(0)/4 for the m2 channel I(d, l, k) at every aspect ratio
_LOG_M = np.log(_M)
_LOG_FACTOR = _PSI + np.abs(_L) / _M + 1.0


def _k_rule(a_min: float, a_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels between K 4^-j and 0 that integrate sech^2(pi k/(2a))
    to 5e-15 for a in [a_min, a_max]: beyond K = 40 a_max/pi it is below 4 e^-40,
    and a first panel within 1.6 a_min keeps its poles k = +-i a off the panels."""
    cutoff = 40.0 / math.pi * a_max
    halvings = math.ceil(math.log(cutoff / (1.6 * a_min), 4.0))
    edges = np.append(np.ldexp(cutoff, -2 * np.arange(halvings + 1)), 0.0)[:, None]
    half = 0.5 * (edges[:-1] - edges[1:])
    return (edges[1:] + half * (1.0 + _GL16_NODES)).ravel(), (half * _GL16_WEIGHTS).ravel()


def _rule_surface(cs: CrossSection, mu: float, lo: float, hi: float) -> tuple[Callable, int]:
    """(surface, nodes): surface(s) -> (E_s, s E_s', s^2 E_s'') over mu for
    s in [lo, hi], E_s = (8/pi^2) int I(d,l,k) (pi/(2a^2)) sech^2(pi k/(2a)) dk
    over k > 0 summed on one k-rule of `nodes` frequencies (one kernel_batch
    call).  The Mellin branch's fallback and test oracle."""
    root_pi = math.sqrt(math.pi)
    k, weights = _k_rule(1.0 / (root_pi * hi), 1.0 / (root_pi * lo))
    kernel, _ = kernels.kernel_batch(cs, True, k)

    def surface(s: float) -> tuple[float, float, float]:
        x = (0.5 * math.pi * root_pi * s) * k  # pi k/(2a)
        # 4 s^2 times the weights first: weights times kernel values can underflow
        weight = 4.0 * s * s * weights * _sech(x) ** 2
        # s d/ds and s^2 d^2/ds^2 of 4 s^2 g(x), g = sech^2, by g' = -2 g tanh and g'' = g (6 tanh^2 - 2)
        tanh = np.tanh(x)
        rows = np.array([np.ones_like(x), 2.0 - 2.0 * x * tanh, 2.0 - 8.0 * x * tanh + x * x * (6.0 * tanh**2 - 2.0)])
        return tuple((weight * rows) @ kernel / mu)

    return surface, k.size


def _mellin_surface(cs: CrossSection, mu: float, lo: float) -> Optional[Callable]:
    """surface(s) -> (E_s, s E_s', s^2 E_s'') over mu, as _rule_surface, from
    the Mellin moments of the sech^2 weight: with beta = a rho/pi,
    rho = hypot(2d, 2l), the K0 series of I(d, l, k) (see kernels.kernel_batch)
    integrates term by term to

        E_s = (8/(pi^2 a)) [I(0) + (pi/2) sum_n beta^2n/(n!)^2
              ((ln beta - psi(n+1)) P_n M_n + P_n L_n + Q_n M_n)],

    M_n and L_n the k-free moments of mellin_moments; no kernel is evaluated.
    The sum converges for beta < 1.  Its term count is the first n whose term
    is bounded by _MELLIN_TAIL I(0) at the window's largest beta, at s = lo;
    None when that is above _MELLIN_TERMS.  surface raises QuadratureError
    when the mean kernel value in brackets is below the normal range, or the
    moments' Gauss estimates times their coefficients plus the last term are
    not within _REL_TOL of it.
    """
    rho = math.hypot(2.0 * cs.d, 2.0 * cs.l)
    log_rho = math.log(rho) - 1.5 * math.log(math.pi)  # ln beta = log_rho - ln s
    log_beta = log_rho - math.log(lo)
    bounds = 2.0 * _N * log_beta + _LOG_M + np.log(abs(log_beta) + _LOG_FACTOR)
    small = np.flatnonzero(bounds <= math.log(_MELLIN_TAIL))
    if log_beta >= 0.0 or not small.size:
        return None
    terms = small[0] + 1
    n, psi, m, lm = _N[:terms], _PSI[:terms], _M[:terms], _L[:terms]
    p, q, dp, dq = kernels.surface_moments(cs, terms)
    i0 = 2.0 * math.pi * cs.l * cs.d * a_c(cs.c)
    slope = p * m  # term n is beta^2n (slope ln beta + const)
    const = p * lm + q * m - psi * slope
    dp_m, rest = dp * m, dp * np.abs(lm) + dq * m
    weight = 8.0 / math.pi**1.5  # 8/(pi^2 a) = weight s

    def surface(s: float) -> tuple[float, float, float]:
        ln_beta = log_rho - math.log(s)
        powers = (rho / (math.pi**1.5 * s)) ** (2 * n)
        f = slope * ln_beta + const
        series = powers * f
        mean = i0 + 0.5 * math.pi * series.sum()  # int_0^inf I(d, l, 2 a x/pi) sech^2 x dx
        error = 0.5 * math.pi * (powers @ (np.abs(ln_beta - psi) * dp_m + rest) + abs(series[-1]))
        if not mean >= _TINY:
            raise QuadratureError(f"mean kernel value {mean:.3e} below the normal range at {cs}, s={s!r}")
        if not error <= _REL_TOL * mean:
            raise QuadratureError(f"mean kernel value {mean:.3e} with error {error:.3e} above tolerance at {cs}, s={s!r}")
        # s d/ds and s^2 d^2/ds^2 of beta^2n f(ln beta), beta proportional to 1/s
        first = -(powers @ (2.0 * n * f + slope))
        second = powers @ ((4.0 * n * n + 2.0 * n) * f + (4.0 * n + 1.0) * slope)
        scale = weight * s
        return (
            mean / mu * scale,
            (mean + 0.5 * math.pi * first) / mu * scale,
            0.5 * math.pi * (2.0 * first + second) / mu * scale,
        )

    return surface


def _ansatz_energy(cs: CrossSection, window: Optional[tuple[float, float]] = None) -> tuple[Callable, float, int]:
    """(energy, s0, nodes): energy(s) -> (E, s E', s^2 E'') is the rescaled
    energy (E_ex + E_s + E_v_bound)/mu of m1 = tanh(ax), m2 = sech(ax),
    a = 1/(s sqrt(pi)), for s in window, by default [s0/2, 2 s0].

    E = P/s + Q s + R + S(s), each term formed over mu as l d underflows: the
    exchange 8 l d a and the bound's ||d m1||^2 = 4a/3 terms make P, the
    leading E_s 8 I(0)/(pi^2 a), I(0) = 2 pi l d a_c, and the bound's
    ||m*||^2 = 2(2 ln 2 - 1)/a term make Q, and s0 = sqrt(P/Q).  E_s comes
    from the Mellin moments of its weight (_mellin_surface, nodes = 0), or
    where the window needs more than _MELLIN_TERMS terms from one k-rule of
    `nodes` frequencies (_rule_surface).
    """
    params = RescalingParams.from_cross_section(cs)
    dm1, mstar, const = _e_v_bound_coefficients(cs)
    scale = params.lam / math.sqrt(math.pi)
    p = (8.0 + 4.0 * dm1 / 3.0) * scale
    q = 2.0 * math.pi * (2.0 * math.log(2.0) - 1.0) * mstar * scale
    s0 = math.sqrt(p / (q + 16.0 * a_c(cs.c) * scale))
    lo, hi = window or (0.5 * s0, 2.0 * s0)
    # the k-rule scales its weights by 4 s^2; both branches take the same windows
    if not (0.0 < lo <= hi and _TINY <= 4.0 * lo * lo and 4.0 * hi * hi < math.inf):
        raise WallscaleError(f"scale window [{lo!r}, {hi!r}] outside the normal range at {cs}")
    surface, nodes = _mellin_surface(cs, params.mu, lo), 0
    if surface is None:
        surface, nodes = _rule_surface(cs, params.mu, lo, hi)

    def energy(s: float) -> tuple[float, float, float]:
        if not lo <= s <= hi:
            raise WallscaleError(f"scale s={s!r} outside the window [{lo!r}, {hi!r}] at {cs}")
        e_s, slope_s, curve_s = surface(s)
        closed = p / s + q * s + const * params.lam
        if not all(_TINY <= t < math.inf for t in (closed, e_s)):
            raise WallscaleError(f"ansatz energy term outside the normal range at {cs}, s={s!r}")
        return closed + e_s, q * s - p / s + slope_s, 2.0 * p / s + curve_s

    return energy, s0, nodes


def minimize_full_ansatz(cs: CrossSection) -> AnsatzSearchResult:
    """Minimize the full rescaled energy over the recovery family m0(x/s) by
    Newton steps from the closed-form start of _ansatz_energy until a step is
    within 1e-12 of s; the result bounds the rescaled minimal energy from
    above.  Raises WallscaleError rather than return an unconverged scale."""
    energy, s, nodes = _ansatz_energy(cs)
    for evaluations in range(1, _NEWTON_STEPS + 1):
        e, slope, curvature = energy(s)
        if not curvature > 0.0:
            raise WallscaleError(f"ansatz energy not convex at s={s!r} for {cs}")
        step = -s * slope / curvature
        if abs(step) <= 1e-12 * s:
            return AnsatzSearchResult(float(s), float(e), evaluations, nodes)
        s += step
    raise WallscaleError(f"ansatz scale search did not converge in {_NEWTON_STEPS} steps for {cs}")
