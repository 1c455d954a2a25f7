"""Seeded workloads of the wallscale benchmark.

Each workload turns (seed, operation index) into the inputs of one
operation, runs that operation through the public wallscale API and checks
the result with the tolerances the repository's own tests use.  Inputs
depend only on the seed and the index, never on how many operations a run
reaches, so a fixed seed always yields the same operations in the same order.

Import this module only after the thread environment is set (see run.py):
it imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np

from wallscale import (
    ClosedFormWall,
    CrossSection,
    Profile1D,
    ReducedEnergyWeights,
    lab,
    magnetostatics,
    minimize,
    sample_wall,
)
from wallscale.magnetostatics import GAMMA_LIMIT, LipschitzReport

# Tolerances of the repository's tests; a benchmark check may be tighter,
# never looser.
DESCENT_REL_TOL = 0.01  # tests/test_minimize.py: closed-form minimum within 1%
UNIT_NORM_TOL = 1e-12  # tests/test_minimize.py: node norms
GOLDEN_E_S_TOL = 0.02  # tests/data/golden_energies.csv: spectral E_s vs oracle
E_V_REL_TOL = 0.05  # tests/test_magnetostatics.py::test_against_volume_oracle

# The golden case of the test suite, where both oracles are resolved (h <= l).
GOLDEN_CS = CrossSection(l=0.1, d=0.05)
GOLDEN_WALL = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0)
GOLDEN_L = 26.0


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bits(*values: Any) -> bytes:
    """Byte image of floats and arrays, for bitwise comparison."""
    return b"".join(np.ascontiguousarray(v, dtype=float).tobytes() for v in values)


class Workload:
    """One kind of operation: inputs from (seed, index), the call, its checks."""

    name: str
    trace_ops: int  # operations in the traced run

    def check_run(self, inputs: list, results: list) -> dict[int, str]:
        """Checks across all operations of a run: {index: problem}."""
        return {}

    def ref_errors(self, inp, result) -> dict[str, float]:
        """Relative errors against the workload's reference values."""
        return {}

    def finish(self, results: list, out_dir: Path, seed: int) -> None:
        """End-of-run step, outside the timed operations."""


class Sweep(Workload):
    """One rate-sweep case per operation at a log-uniform aspect ratio."""

    name = "sweep"
    trace_ops = 12
    l = 1e-3
    c_range = (1e-12, 1e-2)

    def __init__(self, n_nodes: int = 4097):
        self.n_nodes = n_nodes

    def make_input(self, seed: int, index: int) -> CrossSection:
        c = _log_uniform(_rng(seed, index), *self.c_range)
        return CrossSection(l=self.l, d=c * self.l)

    def run(self, cs: CrossSection) -> lab.SweepRecord:
        return lab.rate_sweep([cs], n_nodes=self.n_nodes)[0]

    def check(self, cs: CrossSection, rec: lab.SweepRecord) -> list[str]:
        return [] if rec.passed else [f"rate check failed at c={cs.c!r}: gap {rec.gap!r}"]

    def check_run(self, inputs: list, results: list) -> dict[int, str]:
        """Gaps must strictly decrease as c decreases across the whole run."""
        order = sorted(
            (i for i, r in enumerate(results) if r is not None),
            key=lambda i: inputs[i].c,
            reverse=True,
        )
        bad = {}
        for prev, cur in zip(order, order[1:]):
            if not results[cur].gap < results[prev].gap:
                bad[cur] = (
                    f"gap {results[cur].gap!r} at c={inputs[cur].c!r} not below "
                    f"{results[prev].gap!r} at c={inputs[prev].c!r}"
                )
        return bad

    def fingerprint(self, rec: lab.SweepRecord) -> bytes:
        return _bits([float(v) for v in rec.as_row()])

    def finish(self, results: list, out_dir: Path, seed: int) -> None:
        """Write the run's records as a JSON report."""
        records = [r for r in results if r is not None]
        lab.emit_report(records, "json", out_dir / f"{self.name}-seed{seed}-report.json")


@dataclass(frozen=True)
class DescentInput:
    init: Profile1D
    weights: Union[float, ReducedEnergyWeights]
    target: float


class Descent(Workload):
    """Sphere-constrained descent from a bumped great-circle arc.

    Even operations use the alpha weights (alpha log-uniform, window
    20/sqrt(alpha), minimum 4 sqrt(alpha)); odd ones the E0 limit weights
    with m3 forbidden (window 20 sqrt(pi), minimum 16/sqrt(pi)).

    Iteration counts are chaotic in the input (a 1e-6 bump moves them by a
    factor of 2), so latency varies by about 25% between operations; 2049
    nodes keep operations short enough for a run to hold about 50 of them.
    """

    name = "descent"
    trace_ops = 12
    alpha_range = (0.5, 4.0)

    def __init__(self, n_nodes: int = 2049):
        self.n_nodes = n_nodes

    def make_input(self, seed: int, index: int) -> DescentInput:
        rng = _rng(seed, index)
        if index % 2 == 0:
            alpha = _log_uniform(rng, *self.alpha_range)
            L = 20.0 / math.sqrt(alpha)
            weights: Union[float, ReducedEnergyWeights] = alpha
            target = 4.0 * math.sqrt(alpha)
        else:
            L = 20.0 * math.sqrt(math.pi)
            weights = ReducedEnergyWeights(forbid_m3=True)
            target = GAMMA_LIMIT
        arc = minimize.arc_profile(L, self.n_nodes)
        x, m = arc.x, arc.m.copy()
        center = rng.uniform(-0.5, 0.5) * L
        width = rng.uniform(0.05, 0.2) * L
        amplitude = rng.uniform(-0.5, 0.5)
        # a relative bump keeps m2 >= 0, so the profile stays in the arc's
        # homotopy class, and leaves m3 = 0 and the pinned ends untouched
        m[:, 1] *= 1.0 + amplitude * np.exp(-(((x - center) / width) ** 2))
        m /= np.linalg.norm(m, axis=1)[:, None]
        return DescentInput(init=Profile1D(x, m), weights=weights, target=target)

    def run(self, inp: DescentInput) -> tuple[Profile1D, float]:
        return minimize.minimize_reduced(inp.init, inp.weights)

    def check(self, inp: DescentInput, result) -> list[str]:
        profile, energy = result
        problems = []
        err = abs(energy - inp.target) / inp.target
        if not err <= DESCENT_REL_TOL:
            problems.append(f"energy {energy!r} off the closed-form {inp.target!r} by {err:.3e}")
        worst = float(np.max(np.abs(np.linalg.norm(profile.m, axis=1) - 1.0)))
        if not worst <= UNIT_NORM_TOL:
            problems.append(f"node norms deviate from 1 by {worst:.3e}")
        if not (
            np.array_equal(profile.m[0], [-1.0, 0.0, 0.0])
            and np.array_equal(profile.m[-1], [1.0, 0.0, 0.0])
        ):
            problems.append("end nodes moved")
        return problems

    def fingerprint(self, result) -> bytes:
        profile, energy = result
        return _bits(energy, profile.m)

    def ref_errors(self, inp: DescentInput, result) -> dict[str, float]:
        return {"ref_err.descent": abs(result[1] - inp.target) / inp.target}


@dataclass(frozen=True)
class CrosscheckResult:
    lipschitz: LipschitzReport
    e_s_oracle: float
    e_v: float
    e_v_oracle: float

    @property
    def e_s_err(self) -> float:
        return abs(self.lipschitz.emag_1 - self.e_s_oracle) / self.e_s_oracle

    @property
    def e_v_err(self) -> float:
        return abs(self.e_v - self.e_v_oracle) / self.e_v_oracle


class Crosscheck(Workload):
    """Spectral energies of a perturbed golden-wall pair against the oracles."""

    name = "crosscheck"
    trace_ops = 6
    amplitude = 0.15

    def __init__(self, n_nodes: int = 2049):
        self.base = sample_wall(GOLDEN_WALL, GOLDEN_L, n_nodes)

    def _perturbed(self, rng: np.random.Generator) -> Profile1D:
        x = self.base.x
        half = x[-1]
        # the window keeps the bumps off the grid ends
        window = np.exp(-((x / (0.6 * half)) ** 8))
        m = self.base.m.copy()
        for component in (1, 2):
            for _ in range(3):
                center = rng.uniform(-0.4 * half, 0.4 * half)
                width = rng.uniform(0.5, 2.0)
                height = rng.uniform(-self.amplitude, self.amplitude)
                m[:, component] += window * height * np.exp(-(((x - center) / width) ** 2))
        m /= np.linalg.norm(m, axis=1)[:, None]
        m[0] = (-1.0, 0.0, 0.0)
        m[-1] = (1.0, 0.0, 0.0)
        return Profile1D(x, m)

    def make_input(self, seed: int, index: int) -> tuple[Profile1D, Profile1D]:
        rng = _rng(seed, index)
        return self._perturbed(rng), self._perturbed(rng)

    def run(self, pair: tuple[Profile1D, Profile1D]) -> CrosscheckResult:
        p1, p2 = pair
        report = magnetostatics.emag_lipschitz_check(p1, p2, GOLDEN_CS)
        e_s_oracle, _ = magnetostatics.richardson_boundary_oracle(p1, GOLDEN_CS)
        e_v = magnetostatics.e_v_spectral(p1, GOLDEN_CS)
        e_v_oracle = magnetostatics.e_v_volume_oracle(p1, GOLDEN_CS)
        return CrosscheckResult(report, e_s_oracle, e_v, e_v_oracle)

    def check(self, pair, res: CrosscheckResult) -> list[str]:
        problems = []
        if not res.lipschitz.passed:
            problems.append(f"Lipschitz inequality failed: {res.lipschitz}")
        if not res.e_s_err <= GOLDEN_E_S_TOL:
            problems.append(f"E_s off the Richardson oracle by {res.e_s_err:.3e}")
        if not res.e_v_err <= E_V_REL_TOL:
            problems.append(f"E_v off the volume oracle by {res.e_v_err:.3e}")
        return problems

    def fingerprint(self, res: CrosscheckResult) -> bytes:
        rep = res.lipschitz
        return _bits(
            [rep.norm_omega, rep.emag_1, rep.emag_2, rep.margin_forward, rep.margin_reverse],
            [res.e_s_oracle, res.e_v, res.e_v_oracle],
        )

    def ref_errors(self, pair, res: CrosscheckResult) -> dict[str, float]:
        return {"ref_err.e_s": res.e_s_err, "ref_err.e_v": res.e_v_err}


def default_workloads() -> dict:
    """The three workloads at the problem sizes BENCHMARK.json names."""
    return {w.name: w for w in (Sweep(), Descent(), Crosscheck())}
