"""Sphere-constrained minimization of the discretized reduced energies, and
finite-dimensional minimization of the full rescaled energy over the
transverse-wall ansatz family.

The descent is projected gradient: Euclidean gradient of the discrete energy,
tangential projection g - (g.m)m at every node, a Barzilai-Borwein trial step
safeguarded by Armijo backtracking (so the energy sequence is monotone), node
renormalization after every step, boundary nodes pinned.

The ansatz search takes Newton steps on the closed-form energy of the
recovery wall m0(x/s) and its exact derivatives in s.  Its surface energy
is one real-space integral of elementary factors, the face-pair Coulomb
integral of the cross-section against the autocorrelation of the wall's
sech profile, by the trapezoid rule in ln xi (_real_space_surface), at
every width and aspect ratio, with no kernel evaluation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import StallError, WallscaleError
from .kernels import CrossSection, a_c
from .magnetostatics import RescalingParams, _e_v_bound_coefficients, _face_pair
from .quad import _TINY, _check_rule
# perfbench/tracing.py imports DiscreteReducedEnergy from this module
from .walls import M3_TOLERANCE, DiscreteReducedEnergy, Profile1D, ReducedEnergyWeights, _reduced_model, _table_text

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
        Path(trace_path).write_text(_table_text(("iteration", "energy", "grad_norm"), trace_rows))

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
_TOP = 40.0  # the rule's top node in wall widths s sqrt(pi): g(40) = 3.4e-16
_STEP = 0.15  # the rule's step h in ln xi


def _real_space_surface(cs: CrossSection, lam: float, lo: float, hi: float) -> Callable:
    """surface(s) -> (E_s, s E_s', s^2 E_s'') over mu = l d/lam for s in [lo, hi].

    E_s = (8 s/pi^1.5) mean, and the cosine transform int_0^inf K0(k u)
    cos(k xi) dk = pi/(2 sqrt(u^2 + xi^2)) with the sech autocorrelation
    2 xi/sinh(a xi) turn the sech^2 mean of the m2 channel into one real-space
    integral with elementary factors,

        mean = int_0^inf I(d, l, 2 a x/pi) sech^2 x dx
             = (pi/2) int_0^inf g(a xi) [phi(xi) - phi(sqrt(xi^2 + 4 l^2))] dxi,

    g(x) = x/sinh x, a = 1/(s sqrt(pi)), phi = d F(q/d) of
    magnetostatics._face_pair.  The mean, of order d^2, is never formed: d/mu
    is taken as lam/l.  The integrand's singularities all have xi^2 < 0, so
    the trapezoid rule in ln xi converges like exp(-pi^2/h) (Trefethen and
    Weideman, SIAM Review 56 (2014) 385); its nodes below 1e-8 lo sqrt(pi),
    where x/sinh x = x/tanh x = 1 in doubles for s >= lo, are summed once.
    quad._check_rule raises QuadratureError unless E_s/mu is a finite normal
    double with its estimate |T_h - T_2h| within quad._RULE_TOL of it.
    """
    root_pi, d, tl = math.sqrt(math.pi), cs.d, 2.0 * cs.l
    log_top = math.log(min(_TOP * hi * root_pi, 2.0**30 * tl))  # past 2l, [phi(xi) - phi(r)]/d <= 4 d l^2/xi^3
    # down to 1e-19 min(d, lo sqrt(pi)): the head left out is about 1e-17 of E_s
    j = np.arange(math.ceil((log_top - math.log(1e-19 * min(d, lo * root_pi))) / _STEP) + 1)
    xi = np.exp(log_top - _STEP * j)
    # (8/pi^1.5) (pi/2) (d/mu) h xi [phi(xi) - phi(r)]/d, with d/mu = lam/l; on
    # the widest, thinnest sections xi/d overflows to inf, where F is exactly 0
    with np.errstate(over="ignore"):
        jump = (4.0 * _STEP * lam / (root_pi * cs.l)) * xi * (_face_pair(xi / d) - _face_pair(np.hypot(xi, tl) / d))
    alternate = np.where(j % 2, jump, -jump)  # T_h - T_2h
    curved = np.count_nonzero(xi >= 1e-8 * lo * root_pi)
    flat, flat_alternate = jump[curved:].sum(), alternate[curved:].sum()
    width, jump, alternate = xi[:curved] / root_pi, jump[:curved], alternate[:curved]

    def surface(s: float) -> tuple[float, float, float]:
        x = width / s  # a xi
        with np.errstate(over="ignore"):  # sinh overflows past x = 710 on wide windows, where g = 0
            u = x / np.sinh(x)  # g
        y = x / np.tanh(x)  # u cosh x
        weighted = u * jump
        e_s = s * (weighted.sum() + flat)
        error = s * abs(u @ alternate + flat_alternate)
        _check_rule("surface energy", e_s, error, lambda i: f"{cs}, s={s!r}")
        # s g(a xi) in t = ln s has the derivatives s (g - x g') = s u y and
        # s x^2 g'' = s u (u^2 + y^2 - 2y), with no 1/sinh^2 to overflow
        slope = s * (weighted @ y + flat)
        curve = s * (weighted @ (u * u + y * (y - 2.0)))
        return e_s, slope, curve

    return surface


def _ansatz_energy(cs: CrossSection, window: Optional[tuple[float, float]] = None) -> tuple[Callable, float]:
    """(energy, s0): energy(s) -> (E, s E', s^2 E'') is the rescaled
    energy (E_ex + E_s + E_v_bound)/mu of m1 = tanh(ax), m2 = sech(ax),
    a = 1/(s sqrt(pi)), for s in window, by default [s0/2, 2 s0].

    E = P/s + Q s + R + E_s(s), each term formed over mu as l d underflows:
    the exchange 8 l d a and the bound's ||d m1||^2 = 4a/3 terms make P, the
    bound's ||m*||^2 = 2(2 ln 2 - 1)/a term makes Q and its constant term R,
    and E_s, all of it, is one real-space integral over the window
    (_real_space_surface).  The leading E_s, 8 I(0)/(pi^2 a) with
    I(0) = 2 pi l d a_c, enters only the start s0 = sqrt(P/(Q + 16 a_c lam/sqrt(pi))).
    """
    params = RescalingParams.from_cross_section(cs)
    dm1, mstar, const = _e_v_bound_coefficients(cs)
    scale = params.lam / math.sqrt(math.pi)
    p = (8.0 + 4.0 * dm1 / 3.0) * scale
    q = 2.0 * math.pi * (2.0 * math.log(2.0) - 1.0) * mstar * scale
    s0 = math.sqrt(p / (q + 16.0 * a_c(cs.c) * scale))
    lo, hi = window or (0.5 * s0, 2.0 * s0)
    # windows whose 4 s^2 leaves the normal range are refused before the rule takes logs of them
    if not (0.0 < lo <= hi and _TINY <= 4.0 * lo * lo and 4.0 * hi * hi < math.inf):
        raise WallscaleError(f"scale window [{lo!r}, {hi!r}] outside the normal range at {cs}")
    surface = _real_space_surface(cs, params.lam, lo, hi)

    def energy(s: float) -> tuple[float, float, float]:
        if not lo <= s <= hi:
            raise WallscaleError(f"scale s={s!r} outside the window [{lo!r}, {hi!r}] at {cs}")
        e_s, slope_s, curve_s = surface(s)
        closed = p / s + q * s + const * params.lam
        if not _TINY <= closed < math.inf:
            raise WallscaleError(f"ansatz energy term outside the normal range at {cs}, s={s!r}")
        return closed + e_s, q * s - p / s + slope_s, 2.0 * p / s + curve_s

    return energy, s0


def minimize_full_ansatz(cs: CrossSection) -> AnsatzSearchResult:
    """Minimize the full rescaled energy over the recovery family m0(x/s) by
    Newton steps from the closed-form start of _ansatz_energy until a step is
    within 1e-12 of s; the result bounds the rescaled minimal energy from
    above.  Its domain is c < 1 (ValueError at c = 1, where lambda is
    undefined); it raises WallscaleError rather than return an unconverged scale."""
    energy, s = _ansatz_energy(cs)
    for evaluations in range(1, _NEWTON_STEPS + 1):
        e, slope, curvature = energy(s)
        if not curvature > 0.0:
            raise WallscaleError(f"ansatz energy not convex at s={s!r} for {cs}")
        step = -s * slope / curvature
        if abs(step) <= 1e-12 * s:
            return AnsatzSearchResult(float(s), float(e), evaluations)
        s += step
    raise WallscaleError(f"ansatz scale search did not converge in {_NEWTON_STEPS} steps for {cs}")
