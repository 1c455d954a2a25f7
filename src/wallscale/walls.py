"""Transverse-wall profiles and reduced one-dimensional energies.

The closed-form wall family is evaluated through the overflow-safe
reformulation

    m1      = tanh(sqrt(alpha) x + ln|beta|)
    m_perp  = sign(beta) * sech(sqrt(alpha) x + ln|beta|) * (cos theta, sin theta)

which is algebraically identical to the rational exponential form for
beta > 0; negative beta amounts to the rotation theta -> theta + pi.

Discretization conventions, shared by every sampled energy in the package:
centered differences in the interior, one-sided differences at the ends,
composite trapezoid for integrals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ClosedFormWall",
    "Profile1D",
    "ReducedEnergyWeights",
    "M3_TOLERANCE",
    "eval_wall",
    "sample_wall",
    "reduced_energy_alpha",
    "reduced_energy_E0",
    "exchange_integral",
    "transverse_integrals",
    "profile_derivative",
]

UNIT_NORM_TOLERANCE = 1e-12
BOUNDARY_TOLERANCE = 1e-6
M3_TOLERANCE = 1e-9
SNAP_LIMIT = 1e-6


@dataclass(frozen=True)
class ClosedFormWall:
    """Three-parameter transverse wall: stiffness ratio alpha, scale beta,
    cross-plane angle theta."""

    alpha: float
    beta: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta != 0.0):
            raise ValueError(f"beta must be nonzero, got {self.beta!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


def _sech(u: np.ndarray) -> np.ndarray:
    # 2 e^{-|u|} / (1 + e^{-2|u|}) never overflows
    a = np.abs(u)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def eval_wall(w: ClosedFormWall, x) -> np.ndarray:
    """Evaluate the wall at position(s) x; returns unit 3-vectors.

    Scalar x gives shape (3,), an array of shape (...,) gives (..., 3).
    """
    xa = np.asarray(x, dtype=float)
    u = math.sqrt(w.alpha) * xa + math.log(abs(w.beta))
    sgn = 1.0 if w.beta > 0 else -1.0
    m1 = np.tanh(u)
    perp = sgn * _sech(u)
    out = np.stack(
        [m1, perp * math.cos(w.theta), perp * math.sin(w.theta)], axis=-1
    )
    return out


@dataclass(frozen=True)
class Profile1D:
    """Sphere-valued magnetization sampled on a uniform symmetric grid.

    Nodes span [-L, L]; every value has unit norm; the first and last nodes
    carry the boundary data (-1,0,0) and (1,0,0).  Construct with
    check_boundary=False for deliberately non-admissible raw profiles (the
    unit-norm and grid checks still apply).
    """

    x: np.ndarray
    m: np.ndarray
    check_boundary: InitVar[bool] = True

    def __post_init__(self, check_boundary: bool) -> None:
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        m = np.ascontiguousarray(np.asarray(self.m, dtype=float))
        if x.ndim != 1 or x.size < 3:
            raise ValueError("grid must be one-dimensional with at least 3 nodes")
        if m.shape != (x.size, 3):
            raise ValueError(f"values must have shape ({x.size}, 3), got {m.shape}")
        steps = np.diff(x)
        if not np.all(steps > 0):
            raise ValueError("grid must be strictly increasing")
        h = steps[0]
        if np.max(np.abs(steps - h)) > 1e-9 * h:
            raise ValueError("grid must be uniform")
        span = x[-1] + x[0]
        if abs(span) > 1e-9 * max(abs(x[0]), abs(x[-1])):
            raise ValueError("grid must span a symmetric interval [-L, L]")
        norms = np.linalg.norm(m, axis=1)
        worst = np.max(np.abs(norms - 1.0))
        if worst > UNIT_NORM_TOLERANCE:
            raise ValueError(f"node norms deviate from 1 by {worst:.3e}")
        if check_boundary:
            dev = max(
                np.linalg.norm(m[0] - np.array([-1.0, 0.0, 0.0])),
                np.linalg.norm(m[-1] - np.array([1.0, 0.0, 0.0])),
            )
            if dev > BOUNDARY_TOLERANCE:
                raise ValueError(
                    f"boundary nodes deviate from -/+e_x by {dev:.3e}"
                )
        x.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "m", m)

    @property
    def n_nodes(self) -> int:
        return self.x.size

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def half_length(self) -> float:
        return float(self.x[-1])

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "m1", "m2", "m3"])
            for xi, mi in zip(self.x, self.m):
                writer.writerow([repr(float(xi))] + [repr(float(v)) for v in mi])

    @staticmethod
    def from_csv(path: str | Path, check_boundary: bool = True) -> "Profile1D":
        with open(path) as fh:
            header = fh.readline().strip()
        if header != "x,m1,m2,m3":
            raise ValueError(f"missing mandatory header row 'x,m1,m2,m3' in {path}")
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(f"expected 4 columns x,m1,m2,m3 in {path}")
        return Profile1D(data[:, 0], data[:, 1:4], check_boundary=check_boundary)


def sample_wall(w: ClosedFormWall, L: float, N: int) -> Profile1D:
    """Sample the closed-form wall on N nodes spanning [-L, L].

    N must be odd (keeps a node at x = 0).  Boundary nodes are snapped to
    -/+e_x; a snap larger than 1e-6 in any component means the window is too
    short for the given wall width and raises with that advice.  The
    transverse tails, about sqrt(2 |m1 -/+ 1|), bind first.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if N < 3 or N % 2 == 0:
        raise ValueError("N must be odd and >= 3")
    x = np.linspace(-L, L, N)
    m = eval_wall(w, x)
    ends = np.array([(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    # snap magnitude = largest component tail left at the window ends
    snap = float(np.max(np.abs(m[[0, -1]] - ends)))
    if snap > SNAP_LIMIT:
        raise ValueError(
            f"boundary snap {snap:.3e} exceeds {SNAP_LIMIT}; "
            f"increase L (wall width ~ {1.0 / math.sqrt(w.alpha):.3g})"
        )
    m[[0, -1]] = ends
    return Profile1D(x, m)


@dataclass(frozen=True)
class ReducedEnergyWeights:
    """Weights of the reduced 1-D energy: 4 on exchange, 4/pi on the
    transverse components, with an optional hard constraint m3 = 0 enforced
    by an infinite sentinel."""

    exchange_weight: float = 4.0
    transverse_weight: float = 4.0 / math.pi
    forbid_m3: bool = False


def _derivative(m: np.ndarray, h: float) -> np.ndarray:
    """Rows of m differentiated along a grid of spacing h: centered
    differences inside, one-sided at the ends."""
    d = np.empty_like(m)
    d[1:-1] = (m[2:] - m[:-2]) / (2.0 * h)
    d[0] = (m[1] - m[0]) / h
    d[-1] = (m[-1] - m[-2]) / h
    return d


def profile_derivative(p: Profile1D) -> np.ndarray:
    """d m / d x: centered differences inside, one-sided at the ends."""
    return _derivative(p.m, p.spacing)


def _trapezoid(values: np.ndarray, h: float) -> float:
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def exchange_integral(p: Profile1D) -> float:
    """int |dm/dx|^2 dx over the grid."""
    d = profile_derivative(p)
    return _trapezoid(np.einsum("ij,ij->i", d, d), p.spacing)


def transverse_integrals(p: Profile1D) -> tuple[float, float]:
    """(int m2^2 dx, int m3^2 dx) over the grid."""
    h = p.spacing
    return _trapezoid(p.m[:, 1] ** 2, h), _trapezoid(p.m[:, 2] ** 2, h)


def reduced_energy_alpha(p: Profile1D, alpha: float) -> float:
    """E_alpha = int |dm/dx|^2 + alpha * int (m2^2 + m3^2).

    Minimal value over admissible walls is 4*sqrt(alpha).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    t2, t3 = transverse_integrals(p)
    return exchange_integral(p) + alpha * (t2 + t3)


def reduced_energy_E0(p: Profile1D, w: ReducedEnergyWeights) -> float:
    """Reduced limit energy; returns math.inf when forbid_m3 is violated.

    With the default weights this equals 4 * E_{1/pi} for profiles with
    m3 = 0; the minimal value over admissible walls is 16/sqrt(pi).
    """
    if w.forbid_m3 and float(np.max(np.abs(p.m[:, 2]))) > M3_TOLERANCE:
        return math.inf
    t2, t3 = transverse_integrals(p)
    return w.exchange_weight * exchange_integral(p) + w.transverse_weight * (t2 + t3)
