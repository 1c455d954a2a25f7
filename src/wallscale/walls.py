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

Every table the package writes, profile files included, is _table_text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import WallscaleError

__all__ = [
    "ClosedFormWall",
    "Profile1D",
    "ReducedEnergyWeights",
    "DiscreteReducedEnergy",
    "M3_TOLERANCE",
    "eval_wall",
    "sample_wall",
    "reduced_energy_alpha",
    "reduced_energy_E0",
    "exchange_integral",
    "profile_derivative",
]

UNIT_NORM_TOLERANCE = 1e-12
BOUNDARY_TOLERANCE = 1e-6
M3_TOLERANCE = 1e-9
SNAP_LIMIT = 1e-6
_PROFILE_COLUMNS = ("x", "m1", "m2", "m3")


def _cell(v) -> str:
    """One table cell: empty for None, text as is, true/false for booleans,
    integers in decimal, any other number as the round-trippable repr of a float."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):  # before int: bool is an int
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(v)
    return repr(float(v))


def _table_text(header: Sequence[str] | None, rows: Iterable[Sequence]) -> str:
    """The package's one table format: an optional header row, then one row
    per line of comma-separated _cell values, every line ending in a newline."""
    table = rows if header is None else [header, *rows]
    return "".join(",".join(map(_cell, row)) + "\n" for row in table)


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
    Positions far enough out to overflow sqrt(alpha) x give -/+e_x exactly.
    """
    xa = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
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
        if not (np.isfinite(x).all() and np.isfinite(m).all()):
            raise ValueError("grid and values must be finite")
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

    def _csv_text(self) -> str:
        return _table_text(_PROFILE_COLUMNS, np.column_stack([self.x, self.m]))

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self._csv_text())

    @staticmethod
    def from_csv(path: str | Path, check_boundary: bool = True) -> "Profile1D":
        with open(path) as fh:
            header = fh.readline().strip()
        columns = ",".join(_PROFILE_COLUMNS)
        if header != columns:
            raise ValueError(f"missing mandatory header row {columns!r} in {path}")
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(f"expected 4 columns {columns} in {path}")
        return Profile1D(data[:, 0], data[:, 1:4], check_boundary=check_boundary)


def sample_wall(w: ClosedFormWall, L: float, N: int) -> Profile1D:
    """Sample the closed-form wall on N nodes spanning [-L, L].

    N must be odd (keeps a node at x = 0).  Boundary nodes are snapped to
    -/+e_x; a snap larger than 1e-6 in any component means the window is too
    short for the given wall width and raises with that advice.  The
    transverse tails, about sqrt(2 |m1 -/+ 1|), bind first.
    """
    if not (math.isfinite(L) and L > 0):
        raise ValueError("L must be positive and finite")
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
    """The weights of the reduced limit energy E_0, 4 on exchange and 4/pi
    on the transverse components, with an optional hard constraint m3 = 0
    enforced by an infinite sentinel."""

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


@functools.lru_cache(maxsize=8)  # a descent integrates three sample vectors per energy on one grid
def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    w.setflags(write=False)
    return w


def _trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid rule for samples at spacing h."""
    return float(h * np.dot(_trapezoid_weights(values.size), values))


def exchange_integral(p: Profile1D) -> float:
    """int |dm/dx|^2 dx over the grid."""
    d = profile_derivative(p)
    return _trapezoid(np.einsum("ij,ij->i", d, d), p.spacing)


class DiscreteReducedEnergy:
    """Discrete reduced energy w_ex int |dm/dx|^2 + w_t int (m2^2 + m3^2) on
    a fixed uniform grid, with its exact gradient: E_alpha has weights
    (1, alpha), E_0 has (4, 4/pi).  A non-finite energy raises
    WallscaleError (an inf would read as reduced_energy_E0's sentinel)."""

    def __init__(self, x: np.ndarray, w_ex: float, w_t: float):
        self.h = float(x[1] - x[0])
        self.trap = _trapezoid_weights(x.size)
        self.w_ex, self.w_t = w_ex, w_t

    def _energy(self, m: np.ndarray) -> tuple[float, np.ndarray]:
        """(energy, derivative of m) on the grid."""
        h = self.h
        d = _derivative(m, h)
        e = self.w_ex * _trapezoid(np.einsum("ij,ij->i", d, d), h)
        e += self.w_t * _trapezoid(m[:, 1] ** 2, h)
        e += self.w_t * _trapezoid(m[:, 2] ** 2, h)
        if not math.isfinite(e):
            raise WallscaleError(f"non-finite reduced energy {e!r} on the grid of spacing {h!r}")
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
        g[:, 1] += 2.0 * h * self.w_t * self.trap * m[:, 1]
        g[:, 2] += 2.0 * h * self.w_t * self.trap * m[:, 2]
        return e, g


def _reduced_model(x: np.ndarray, weights: float | ReducedEnergyWeights) -> DiscreteReducedEnergy:
    """E_0 for ReducedEnergyWeights, else E_alpha with alpha = weights."""
    if isinstance(weights, ReducedEnergyWeights):
        return DiscreteReducedEnergy(x, 4.0, 4.0 / math.pi)
    alpha = float(weights)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    return DiscreteReducedEnergy(x, 1.0, alpha)


def reduced_energy_alpha(p: Profile1D, alpha: float) -> float:
    """E_alpha = int |dm/dx|^2 + alpha * int (m2^2 + m3^2).

    Minimal value over admissible walls is 4*sqrt(alpha).  Raises
    WallscaleError where the energy overflows.
    """
    return _reduced_model(p.x, alpha).energy(p.m)


def reduced_energy_E0(p: Profile1D, w: ReducedEnergyWeights) -> float:
    """Reduced limit energy; returns math.inf when forbid_m3 is violated.

    It equals 4 * E_{1/pi} for profiles with m3 = 0; the minimal value over
    admissible walls is 16/sqrt(pi).  Raises WallscaleError where the energy
    overflows.
    """
    if w.forbid_m3 and float(np.max(np.abs(p.m[:, 2]))) > M3_TOLERANCE:
        return math.inf
    return _reduced_model(p.x, w).energy(p.m)
