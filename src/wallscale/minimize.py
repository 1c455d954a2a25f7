"""Sphere-constrained minimization of the discretized reduced energies, and
finite-dimensional minimization of the full rescaled energy over the
transverse-wall ansatz family.

The descent is projected gradient: Euclidean gradient of the discrete energy,
tangential projection g - (g.m)m at every node, a Barzilai-Borwein trial step
safeguarded by Armijo backtracking (so the energy sequence is monotone), node
renormalization after every step, boundary nodes pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import StallError, WallscaleError
from .kernels import CrossSection
from .magnetostatics import KernelCache, RescalingParams, full_energy
from .walls import (
    ClosedFormWall,
    M3_TOLERANCE,
    Profile1D,
    ReducedEnergyWeights,
    _derivative,
    sample_wall,
)

__all__ = [
    "DescentConfig",
    "AnsatzSearchResult",
    "DiscreteReducedEnergy",
    "minimize_reduced",
    "minimize_full_ansatz",
    "arc_profile",
]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class DescentConfig:
    step: float = 0.25
    grad_tol: float = 1e-5
    max_iters: int = 200_000
    backtrack_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must be in (0, 1)")


@dataclass(frozen=True)
class AnsatzSearchResult:
    """Best wall-width scale over the probed ansatz family m0(x/s)."""

    best_scale: float
    best_beta: float
    energy: float
    evaluations: int


class DiscreteReducedEnergy:
    """Discrete reduced energy w_ex*int|dm/dx|^2 + w2*int m2^2 + w3*int m3^2
    on a fixed uniform grid, with its exact gradient.

    The derivative stencil is the walls module's and the trapezoid weights
    match its energies, so values agree with reduced_energy_alpha /
    reduced_energy_E0 identically.
    """

    def __init__(self, x: np.ndarray, w_ex: float, w2: float, w3: float):
        self.x = x
        self.h = float(x[1] - x[0])
        n = x.size
        self.trap = np.ones(n)
        self.trap[0] = self.trap[-1] = 0.5
        self.w_ex, self.w2, self.w3 = w_ex, w2, w3

    def _energy(self, m: np.ndarray) -> tuple[float, np.ndarray]:
        """(energy, derivative of m) on the grid."""
        h = self.h
        d = _derivative(m, h)
        dsq = np.einsum("ij,ij->i", d, d)
        e = self.w_ex * float(h * np.dot(self.trap, dsq))
        e += self.w2 * float(h * np.dot(self.trap, m[:, 1] ** 2))
        e += self.w3 * float(h * np.dot(self.trap, m[:, 2] ** 2))
        return e, d

    def energy(self, m: np.ndarray) -> float:
        return self._energy(m)[0]

    def energy_grad(self, m: np.ndarray) -> tuple[float, np.ndarray]:
        h = self.h
        e, d = self._energy(m)
        g = np.zeros_like(m)
        wd = (self.trap[:, None] * d) * (2.0 * h)
        # centered interior differences: d_j couples m_{j+1} and m_{j-1}
        g[2:] += wd[1:-1] / (2.0 * h)
        g[:-2] -= wd[1:-1] / (2.0 * h)
        # one-sided end differences
        g[1] += wd[0] / h
        g[0] -= wd[0] / h
        g[-1] += wd[-1] / h
        g[-2] -= wd[-1] / h
        g *= self.w_ex
        g[:, 1] += 2.0 * h * self.w2 * self.trap * m[:, 1]
        g[:, 2] += 2.0 * h * self.w3 * self.trap * m[:, 2]
        return e, g


def _resolve_weights(
    weights: Union[float, ReducedEnergyWeights],
) -> tuple[float, float, float, bool]:
    if isinstance(weights, ReducedEnergyWeights):
        return (
            weights.exchange_weight,
            weights.transverse_weight,
            weights.transverse_weight,
            weights.forbid_m3,
        )
    alpha = float(weights)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return 1.0, alpha, alpha, False


def _renormalized(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1)[:, None]


def minimize_reduced(
    init: Profile1D,
    weights: Union[float, ReducedEnergyWeights],
    config: DescentConfig = DescentConfig(),
    trace_path: Optional[str | Path] = None,
) -> tuple[Profile1D, float]:
    """Projected gradient descent of a reduced energy from a pinned profile.

    Terminates when the projected-gradient norm sqrt(h sum |g_tan|^2) drops
    below grad_tol or after max_iters.  The returned energy never exceeds the
    initial one.

    Raises:
        StallError: backtracking found no decrease for the maximum number of
            halvings.
        WallscaleError: non-finite energy encountered.
    """
    w_ex, w2, w3, forbid = _resolve_weights(weights)
    if forbid and float(np.max(np.abs(init.m[:, 2]))) > M3_TOLERANCE:
        raise ValueError("forbid_m3 weights require an initial profile with m3 = 0")
    model = DiscreteReducedEnergy(init.x, w_ex, w2, w3)
    m = init.m.copy()
    e, g = model.energy_grad(m)
    if not math.isfinite(e):
        raise WallscaleError("non-finite initial energy")

    trace_rows: list[tuple[int, float, float]] = []
    h = model.h
    step = config.step
    prev_m: Optional[np.ndarray] = None
    prev_g: Optional[np.ndarray] = None
    for iteration in range(config.max_iters):
        p = g - np.einsum("ij,ij->i", g, m)[:, None] * m
        p[0] = 0.0
        p[-1] = 0.0
        psq = float(np.sum(p * p))
        gnorm = math.sqrt(h * psq)
        if trace_path is not None:
            trace_rows.append((iteration, e, gnorm))
        if gnorm < config.grad_tol:
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
            if not math.isfinite(e_trial):
                raise WallscaleError("non-finite energy during descent")
            if e_trial <= e - _ARMIJO_C * t * psq:
                break
            t *= config.backtrack_factor
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
    x = np.linspace(-L, L, N)
    phi = 0.5 * math.pi * (1.0 + np.clip(x / L, -1.0, 1.0))  # 0 .. pi
    m = np.stack([-np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    m[0] = (-1.0, 0.0, 0.0)
    m[-1] = (1.0, 0.0, 0.0)
    return Profile1D(x, m)


_REFERENCE_ALPHA = 1.0 / math.pi
_WINDOW_HALF_WIDTHS = 15.0  # grid half-length in units of the widest wall width
_SCALE_XATOL = 1e-8  # Brent stopping width, relative to the best grid scale


def minimize_full_ansatz(
    cs: CrossSection,
    scale_grid: Optional[np.ndarray] = None,
    n_nodes: int = 4097,
) -> AnsatzSearchResult:
    """Minimize the full rescaled energy over the recovery family m0(x/s).

    Every probed scale s builds the closed-form limit wall stretched by s
    (m3 = 0, beta = 1) on one shared grid sized to the largest probed scale,
    evaluates (E_ex + E_s + E_v_bound)/mu, and a bounded Brent search
    (parabolic steps, golden-section fallback) between the neighbours of the
    best grid point finishes the scalar search to 1e-8 of that scale.  The
    result, the best of all probes, is an upper bound for the rescaled
    minimal energy.
    """
    if cs.c >= 1.0:
        raise ValueError("ansatz search requires aspect ratio c < 1")
    lam = RescalingParams.from_cross_section(cs).lam
    if scale_grid is None:
        scale_grid = lam * np.geomspace(0.5, 2.0, 7)
    scales = np.asarray(scale_grid, dtype=float)
    if scales.size == 0 or np.any(scales <= 0):
        raise ValueError("scale_grid must contain positive scales")

    width = math.sqrt(math.pi)  # reference wall width (alpha = 1/pi)
    L = _WINDOW_HALF_WIDTHS * width * float(scales.max())
    cache = KernelCache(cs)
    evaluations = 0
    best_s = math.nan
    best_e = math.inf

    def rescaled(s: float) -> float:
        nonlocal evaluations, best_s, best_e
        wall = ClosedFormWall(alpha=_REFERENCE_ALPHA / (s * s), beta=1.0, theta=0.0)
        p = sample_wall(wall, L, n_nodes)
        evaluations += 1
        e = full_energy(p, cs, cache=cache).rescaled_upper
        if e < best_e:
            best_s, best_e = float(s), e
        return e

    values = [rescaled(float(s)) for s in scales]
    i_best = int(np.argmin(values))

    if scales.size > 1:
        bracket = (
            float(scales[max(i_best - 1, 0)]),
            float(scales[min(i_best + 1, scales.size - 1)]),
        )
        minimize_scalar(
            rescaled,
            bounds=bracket,
            method="bounded",
            options={"xatol": _SCALE_XATOL * float(scales[i_best])},
        )

    return AnsatzSearchResult(
        best_scale=best_s, best_beta=1.0, energy=best_e, evaluations=evaluations
    )
