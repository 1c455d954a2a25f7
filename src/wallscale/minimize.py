"""Sphere-constrained minimization of the discretized reduced energies, and
finite-dimensional minimization of the full rescaled energy over the
transverse-wall ansatz family.

The descent is projected gradient: Euclidean gradient of the discrete energy,
tangential projection g - (g.m)m at every node, a Barzilai-Borwein trial step
safeguarded by Armijo backtracking (so the energy sequence is monotone), node
renormalization after every step, boundary nodes pinned.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .errors import StallError, WallscaleError
from .kernels import _TINY, CrossSection, a_c
from .magnetostatics import RescalingParams, _e_v_bound_coefficients
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
    kernel_nodes: int  # frequencies sent to kernels.kernel_batch


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


def _k_rule(a_min: float, a_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels between K 4^-j and 0 that integrate sech^2(pi k/(2a))
    to 5e-15 for a in [a_min, a_max]: beyond K = 40 a_max/pi it is below 4 e^-40,
    and a first panel within 1.6 a_min keeps its poles k = +-i a off the panels."""
    cutoff = 40.0 / math.pi * a_max
    halvings = math.ceil(math.log(cutoff / (1.6 * a_min), 4.0))
    edges = np.append(np.ldexp(cutoff, -2 * np.arange(halvings + 1)), 0.0)[:, None]
    half = 0.5 * (edges[:-1] - edges[1:])
    return (edges[1:] + half * (1.0 + _GL16_NODES)).ravel(), (half * _GL16_WEIGHTS).ravel()


def _ansatz_energy(cs: CrossSection, window: Optional[tuple[float, float]] = None) -> tuple[Callable, float, int]:
    """(energy, s0, nodes): energy(s) -> (E, s E', s^2 E'') is the rescaled
    energy (E_ex + E_s + E_v_bound)/mu of m1 = tanh(ax), m2 = sech(ax),
    a = 1/(s sqrt(pi)), for s in window, by default [s0/2, 2 s0].

    E = P/s + Q s + R + S(s), each term formed over mu as l d underflows: the
    exchange 8 l d a and the bound's ||d m1||^2 = 4a/3 terms make P, the
    leading E_s 8 I(0)/(pi^2 a), I(0) = 2 pi l d a_c, and the bound's
    ||m*||^2 = 2(2 ln 2 - 1)/a term make Q, and s0 = sqrt(P/Q).  E_s =
    (8/pi^2) int I(d,l,k) (pi/(2a^2)) sech^2(pi k/(2a)) dk over k > 0 is
    summed on one k-rule of `nodes` frequencies for the window.
    """
    params = RescalingParams.from_cross_section(cs)
    root_pi = math.sqrt(math.pi)
    dm1, mstar, const = _e_v_bound_coefficients(cs)
    scale = params.lam / root_pi
    p = (8.0 + 4.0 * dm1 / 3.0) * scale
    q = 2.0 * math.pi * (2.0 * math.log(2.0) - 1.0) * mstar * scale
    s0 = math.sqrt(p / (q + 16.0 * a_c(cs.c) * scale))
    lo, hi = window or (0.5 * s0, 2.0 * s0)
    if not _TINY <= lo <= hi < math.inf:
        raise WallscaleError(f"scale window [{lo!r}, {hi!r}] outside the normal range at {cs}")
    k, weights = _k_rule(1.0 / (root_pi * hi), 1.0 / (root_pi * lo))
    kernel, _ = kernels.kernel_batch(cs, True, k)

    def energy(s: float) -> tuple[float, float, float]:
        if not lo <= s <= hi:
            raise WallscaleError(f"scale s={s!r} outside the k-rule's range [{lo!r}, {hi!r}] at {cs}")
        x = (0.5 * math.pi * root_pi * s) * k  # pi k/(2a)
        # 4 s^2 times the weights first: weights times kernel values can underflow
        weight = 4.0 * s * s * weights * _sech(x) ** 2
        e_s = weight @ kernel / params.mu
        closed = p / s + q * s + const * params.lam
        if not all(_TINY <= t < math.inf for t in (closed, e_s)):
            raise WallscaleError(f"ansatz energy term outside the normal range at {cs}, s={s!r}")
        # s d/ds and s^2 d^2/ds^2 of 4 s^2 g(x), g = sech^2, by g' = -2 g tanh and g'' = g (6 tanh^2 - 2)
        tanh = np.tanh(x)
        rows = np.array([2.0 - 2.0 * x * tanh, 2.0 - 8.0 * x * tanh + x * x * (6.0 * tanh**2 - 2.0)])
        slope_s, curve_s = (weight * rows) @ kernel / params.mu
        return closed + e_s, q * s - p / s + slope_s, 2.0 * p / s + curve_s

    return energy, s0, k.size


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
