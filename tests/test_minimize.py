import csv
import logging
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from wallscale import (
    ClosedFormWall,
    CrossSection,
    KernelCache,
    ReducedEnergyWeights,
    StallError,
    a_c,
    arc_profile,
    eval_wall,
    kernels,
    minimize_full_ansatz,
    minimize_reduced,
    rate_sweep,
    reduced_energy_alpha,
    sample_wall,
)
from wallscale import mellin_moments
from wallscale import minimize as minimize_module
from wallscale.errors import QuadratureError, WallscaleError
from wallscale.magnetostatics import GAMMA_LIMIT, RescalingParams
from wallscale.minimize import (
    _MELLIN_TERMS,
    DiscreteReducedEnergy,
    _ansatz_energy,
    _k_rule,
    _mellin_surface,
    _rule_surface,
)
from wallscale.walls import _sech

from conftest import ansatz_energy, sampled_ansatz_energy


def closed_form_minimum(cs: CrossSection) -> float:
    """2 sqrt(PQ) + R for E/mu = P/sigma + Q sigma + R: the exchange 8 l d a,
    the leading E_s 16 l d a_c/(pi a) and the E_v bound (4/pi) l^2 d^2
    ||d m1||^2 + 10 l d^2 L' + 20 pi l d^2 L' (||m*||^2 + ||d m1||^2), with
    a = 1/(sqrt(pi) sigma lambda), ||d m1||^2 = 4a/3, ||m*||^2 =
    2(2 ln 2 - 1)/a and L' = 1 + |ln c|, each over mu = l d/lambda."""
    l, d, c = cs.l, cs.d, cs.c
    ln_c = abs(math.log(c))
    p = (8.0 + (4.0 / 3.0) * ((4.0 / math.pi) * l * d + 20.0 * math.pi * d * (1.0 + ln_c))) / math.sqrt(math.pi)
    q = (16.0 * a_c(c) / c + 40.0 * math.pi**2 * (2.0 * math.log(2.0) - 1.0) * l * (1.0 + ln_c)) / (
        math.sqrt(math.pi) * ln_c
    )
    r = 10.0 * l * math.sqrt(c) * (1.0 + ln_c) / math.sqrt(ln_c)
    return 2.0 * math.sqrt(p * q) + r


class TestDiscreteGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        base = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 15.0, 129)
        m = base.m + 0.05 * rng.standard_normal(base.m.shape)
        model = DiscreteReducedEnergy(base.x, w_ex=1.0, w_t=1.3)
        _, grad = model.energy_grad(m)
        eps = 1e-6
        rel_errs = []
        for _ in range(40):
            i = rng.integers(0, m.shape[0])
            j = rng.integers(0, 3)
            mp = m.copy()
            mp[i, j] += eps
            mm = m.copy()
            mm[i, j] -= eps
            fd = (model.energy(mp) - model.energy(mm)) / (2.0 * eps)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            rel_errs.append(abs(fd - grad[i, j]) / denom)
        assert max(rel_errs) <= 1e-6

    def test_energy_matches_walls_module(self):
        p = sample_wall(ClosedFormWall(alpha=2.0, beta=1.0, theta=0.3), 18.0, 257)
        model = DiscreteReducedEnergy(p.x, w_ex=1.0, w_t=2.0)
        assert model.energy(p.m) == reduced_energy_alpha(p, 2.0)


class TestDescent:
    def test_arc_recovers_closed_form_minimum(self):
        init = arc_profile(20.0, 513)
        profile, energy = minimize_reduced(init, 1.0)
        assert abs(energy - 4.0) / 4.0 <= 0.01
        # recenter at the node nearest m1 = 0, fit beta, compare node by node
        i0 = int(np.argmin(np.abs(profile.m[:, 0])))
        xs = profile.x - profile.x[i0]
        m10 = profile.m[i0, 0]
        beta = math.sqrt((1.0 + m10) / (1.0 - m10))
        ref = eval_wall(ClosedFormWall(alpha=1.0, beta=beta, theta=0.0), xs)
        assert float(np.max(np.linalg.norm(profile.m - ref, axis=1))) < 0.02

    def test_exact_minimizer_is_stationary(self):
        p = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 2049)
        e_before = reduced_energy_alpha(p, 1.0)
        _, e_after = minimize_reduced(p, 1.0)
        assert 0.0 <= e_before - e_after <= 1e-6

    def test_e0_weights_reach_limit_minimum(self):
        init = arc_profile(20.0 * math.sqrt(math.pi), 1025)
        _, energy = minimize_reduced(init, ReducedEnergyWeights(forbid_m3=True))
        assert abs(energy - GAMMA_LIMIT) / GAMMA_LIMIT <= 0.01

    def test_monotone_descent_and_unit_norms(self, tmp_path, monkeypatch):
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 400)
        trace = tmp_path / "trace.csv"
        init = arc_profile(20.0, 257)
        profile, _ = minimize_reduced(init, 1.0, trace_path=trace)
        norms = np.linalg.norm(profile.m, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) <= 1e-12
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "iteration,energy,grad_norm"
        energies = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert len(energies) >= 2

    def test_boundary_nodes_pinned(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 200)
        init = arc_profile(20.0, 257)
        profile, _ = minimize_reduced(init, 1.0)
        assert np.array_equal(profile.m[0], [-1.0, 0.0, 0.0])
        assert np.array_equal(profile.m[-1], [1.0, 0.0, 0.0])

    def test_returned_energy_never_above_initial(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 50)
        init = arc_profile(12.0, 257)
        e_init = reduced_energy_alpha(init, 2.5)
        _, e_final = minimize_reduced(init, 2.5)
        assert e_final <= e_init

    def test_iteration_cap_logs_a_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 50)
        init = arc_profile(12.0, 257)
        with caplog.at_level(logging.WARNING, logger="wallscale.minimize"):
            _, energy = minimize_reduced(init, 2.5)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "after 50 iterations" in record.getMessage()
        assert "not converged" in record.getMessage()
        assert math.isfinite(energy)

    def test_converged_descent_logs_nothing(self, caplog):
        p = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 257)
        with caplog.at_level(logging.DEBUG, logger="wallscale.minimize"):
            minimize_reduced(p, 1.0)
        assert caplog.records == []

    def test_rotation_equivariance(self, monkeypatch):
        theta = 0.9
        init = arc_profile(20.0, 257)
        rot = init.m.copy()
        rot[:, 1] = init.m[:, 1] * math.cos(theta)
        rot[:, 2] = init.m[:, 1] * math.sin(theta)
        from wallscale import Profile1D

        init_rot = Profile1D(init.x, rot)
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 300)
        t1 = _energy_trajectory(init, 1.0)
        t2 = _energy_trajectory(init_rot, 1.0)
        assert len(t1) == len(t2)
        assert max(abs(a - b) for a, b in zip(t1, t2)) <= 1e-10

    def test_unreachable_tolerance_stalls(self, monkeypatch):
        # at the exact minimizer the energy decrease falls below rounding long
        # before a gradient tolerance of 1e-300, so backtracking runs out and must raise
        monkeypatch.setattr(minimize_module, "_GRAD_TOL", 1e-300)
        init = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 257)
        with pytest.raises(StallError):
            minimize_reduced(init, 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            minimize_reduced(arc_profile(20.0, 65), alpha)

    @pytest.mark.parametrize("half_length, nodes", [(math.nan, 65), (math.inf, 65), (0.0, 65), (-1.0, 65), (1.0, 2)])
    def test_arc_rejects_bad_grid(self, half_length, nodes):
        with pytest.raises(ValueError):
            arc_profile(half_length, nodes)

    def test_overflowing_energy_raises_typed_error(self):
        # a subnormal spacing: the exchange overflows, which must not warn
        with pytest.raises(WallscaleError, match="non-finite"):
            minimize_reduced(arc_profile(1e-320, 3), 1.0)

    def test_forbidden_m3_init_rejected(self):
        init = arc_profile(20.0, 257)
        rot = init.m.copy()
        rot[:, 2] = init.m[:, 1]
        rot[:, 1] = 0.0
        from wallscale import Profile1D

        bad = Profile1D(init.x, rot)
        with pytest.raises(ValueError):
            minimize_reduced(bad, ReducedEnergyWeights(forbid_m3=True))


def _energy_trajectory(init, weights) -> list[float]:
    import csv
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".csv", mode="r", delete=False) as fh:
        path = fh.name
    minimize_reduced(init, weights, trace_path=path)
    with open(path) as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


def load_surface_refs() -> list[tuple[float, float, float, float, float]]:
    """(l, d, s, beta, sech^2 mean of I(d, l, .)) rows written by
    scripts/make_mellin_moments.py."""
    with open(Path(__file__).parent / "data" / "ansatz_surface_refs.csv") as fh:
        return [
            (float(r["l"]), float(r["d"]), float(r["s"]), float(r["beta"]), float(r["sech2_mean"]))
            for r in csv.DictReader(fh)
        ]


class TestAnsatzSearch:
    CS = CrossSection(l=1e-3, d=1e-6)
    WIDE = CrossSection(l=1.0, d=1e-2)  # its window reaches beta = 0.61, past the Mellin branch

    def test_degenerate_grid_dominated_by_search(self):
        # the energy at the one scale s = lambda bounds the search's optimum
        single = ansatz_energy(self.CS, RescalingParams.from_cross_section(self.CS).lam)
        assert math.isfinite(single)
        assert minimize_full_ansatz(self.CS).energy <= single

    def test_rescaled_minimum_within_rate_window(self):
        res = minimize_full_ansatz(self.CS)
        rhs = 200.0 / math.sqrt(abs(math.log(self.CS.c))) + 20.0 * self.CS.l
        assert GAMMA_LIMIT - rhs <= res.energy <= GAMMA_LIMIT + rhs
        assert res.best_scale > 0.0

    def test_gap_shrinks_with_aspect_ratio(self):
        gaps = []
        for c in (1e-3, 1e-6):
            cs = CrossSection(l=1e-3, d=c * 1e-3)
            res = minimize_full_ansatz(cs)
            gaps.append(res.energy - GAMMA_LIMIT)
        assert gaps[0] > gaps[1] > 0.0

    def test_probe_count_gate(self):
        # Newton from the closed-form start: s*/s0 lies within 1.4e-3 of 1
        res = minimize_full_ansatz(self.CS)
        assert res.evaluations <= 4

    def test_kernel_node_gate(self):
        # the Mellin branch sends no frequency to kernel_batch; the k-rule sends
        # at most 64 for the window [s0/2, 2 s0], 48 for one scale (the
        # sampled search sent 219)
        assert minimize_full_ansatz(self.CS).kernel_nodes == 0
        assert _ansatz_energy(self.CS, (1.0, 1.0))[2] == 0
        assert 0 < minimize_full_ansatz(self.WIDE).kernel_nodes <= 64
        assert _ansatz_energy(self.WIDE, (0.5, 0.5))[2] == 48

    def test_step_cap_raises(self, monkeypatch):
        cs = CrossSection(l=1.0, d=1e-2)
        assert minimize_full_ansatz(cs).evaluations == 3
        monkeypatch.setattr(minimize_module, "_NEWTON_STEPS", 1)
        with pytest.raises(WallscaleError, match="did not converge"):
            minimize_full_ansatz(cs)

    def test_energy_outside_the_rule_range_raises(self):
        # both branches: the Mellin sums (nodes = 0) and the k-rule
        for cs, nodes in ((self.CS, 0), (self.WIDE, 64)):
            energy, s0, taken = _ansatz_energy(cs)
            assert (taken == 0) == (nodes == 0)
            energy(0.5 * s0)
            energy(2.0 * s0)
            for s in (0.5 * s0 * (1.0 - 1e-15), 2.0 * s0 * (1.0 + 1e-15)):
                with pytest.raises(WallscaleError, match="outside the window"):
                    energy(s)
        # and a window reaching zero or below is refused before either branch takes a log of it
        for window in ((-1.0, 1.0), (-1.0, -0.5), (0.0, 1.0)):
            with pytest.raises(WallscaleError, match="normal range"):
                _ansatz_energy(self.CS, window)

    @pytest.mark.parametrize("l", [0.2, 0.3, 1.0])
    @pytest.mark.parametrize("c", [1e-2, 1e-6, 1e-50])
    def test_interior_optimum_for_wide_sections(self, l, c):
        # the optimum lies below lambda/2 here: the scale bracket [lambda/2,
        # 2 lambda] returned its edge, 0.4% to 38% high
        cs = CrossSection(l=l, d=c * l)
        res = minimize_full_ansatz(cs)
        energy, s0, _ = _ansatz_energy(cs)
        star = res.best_scale
        assert 0.5 * s0 < star < 2.0 * s0
        assert star < 0.5 * RescalingParams.from_cross_section(cs).lam
        for s in (star * (1.0 - 1e-4), star * (1.0 + 1e-4)):
            assert res.energy <= energy(s)[0]
        # the scan's middle node is s0 up to rounding, and s* = s0 at c = 1e-50,
        # so there the two energies differ by rounding only
        for s in np.geomspace(0.5 * s0, 2.0 * s0, 65):
            assert res.energy <= energy(s)[0] * (1.0 + 1e-15)

    def test_wide_section_optimum_value(self):
        # the bracket edge s = lambda/2 gave 54.707 here
        res = minimize_full_ansatz(CrossSection(l=1.0, d=1e-50))
        assert res.energy == pytest.approx(40.6130928793, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "l, c",
        [(l, c) for l in (1e-3, 1e-2, 0.05, 0.1, 0.3, 1.0) for c in (1e-50, 1e-150)]
        + [(l, 1e-12) for l in (1e-3, 1e-2, 0.05, 0.1)],
    )
    def test_closed_form_referee(self, l, c):
        # E/mu = P/sigma + Q sigma + R + S(sigma) with the leading E_s in Q; the
        # series term S is below 1e-14 here (6e-13 at c = 1e-12, l >= 0.3)
        cs = CrossSection(l=l, d=c * l)
        res = minimize_full_ansatz(cs)
        assert res.energy == pytest.approx(closed_form_minimum(cs), rel=1e-14, abs=0.0)

    @staticmethod
    def _count_kernel_batch_calls(monkeypatch) -> list:
        calls = []
        real = kernels.kernel_batch

        def counted(cs, swap, ks):
            calls.append((swap, np.size(ks)))
            return real(cs, swap, ks)

        monkeypatch.setattr(kernels, "kernel_batch", counted)
        return calls

    def test_kernel_batch_not_called_on_mellin_branch(self, monkeypatch):
        # the criterion-8 grid and the benchmark sweep's range of c at l = 1e-3
        # (the k-rule made one call of 64 frequencies per case)
        calls = self._count_kernel_batch_calls(monkeypatch)
        cases = [CrossSection(l=1e-3, d=c * 1e-3) for c in (1e-2, 1e-4, 1e-6, *np.geomspace(1e-12, 1e-2, 11))]
        records = rate_sweep(cases)
        assert all(r.passed for r in records)
        assert calls == []
        assert minimize_full_ansatz(self.CS).kernel_nodes == 0

    def test_rule_branch_calls_kernel_batch_once(self, monkeypatch):
        calls = self._count_kernel_batch_calls(monkeypatch)
        res = minimize_full_ansatz(self.WIDE)
        assert calls == [(True, res.kernel_nodes)]

    @pytest.mark.parametrize("c", [1e-2, 1e-6, 1e-12])
    def test_no_bessel_function_evaluations(self, monkeypatch, c):
        # the Mellin branch evaluates no kernel; the k-rule's nodes all lay in
        # the K0 series branch, and the Kronrod rule before it sent 78,784
        # arguments to k0 at c = 1e-2
        counted = []
        for name in ("k0", "k1"):
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda z, real=real: counted.append(np.size(z)) or real(z))
        minimize_full_ansatz(CrossSection(l=1e-3, d=c * 1e-3))
        assert sum(counted) == 0

    def test_mellin_matches_mpmath_referee(self):
        # sech^2 means of I(d, l, .) in 30 digits, without the moments P_n, Q_n;
        # the k-rule is 1.1e-12 to 7.0e-10 off them between beta = 0.014 and
        # 0.36, and 2.0e-9 off at beta = 0.6, where it serves the fallback
        inside = 0
        for l, d, s, beta, mean in load_surface_refs():
            cs = CrossSection(l=l, d=d)
            mu = RescalingParams.from_cross_section(cs).mu
            ref = mean / mu * (8.0 / math.pi**1.5) * s
            surface = _mellin_surface(cs, mu, s)
            if beta < 0.369:
                inside += 1
                assert surface(s)[0] == pytest.approx(ref, rel=1e-15, abs=0.0)
            else:
                assert surface is None
                rule, _ = _rule_surface(cs, mu, s, s)
                assert rule(s)[0] == pytest.approx(ref, rel=kernels._REL_TOL, abs=0.0)
        assert inside == 11

    @pytest.mark.parametrize(
        "l, c",
        [(1e-3, c) for c in (1e-2, 1e-6, 1e-12, 1e-150)] + [(1e-2, 1e-2), (0.1, 1e-6), (1.0, 1e-12), (1.0, 1e-150)],
    )
    def test_mellin_matches_k_rule_oracle(self, l, c):
        # windows with beta <= 2e-3, where the k-rule's own error is below 1e-14
        cs = CrossSection(l=l, d=c * l)
        mu = RescalingParams.from_cross_section(cs).mu
        _, s0, nodes = _ansatz_energy(cs)
        assert nodes == 0
        assert math.hypot(2.0 * cs.d, 2.0 * cs.l) / (math.pi**1.5 * 0.5 * s0) <= 2e-3
        mellin = _mellin_surface(cs, mu, 0.5 * s0)
        rule, _ = _rule_surface(cs, mu, 0.5 * s0, 2.0 * s0)
        for s in np.geomspace(0.5 * s0, 2.0 * s0, 9):
            assert mellin(s)[0] == pytest.approx(rule(s)[0], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("l, c", [(1e-3, 1e-2), (0.3, 1e-2), (1.0, 1e-6)])
    def test_mellin_derivatives_match_differences(self, l, c):
        # s E' = dE/dt and s^2 E'' = d^2E/dt^2 - dE/dt in t = ln s, by
        # five-point differences (error h^4 = 1e-8)
        cs = CrossSection(l=l, d=c * l)
        mu = RescalingParams.from_cross_section(cs).mu
        _, s0, _ = _ansatz_energy(cs)
        surface = _mellin_surface(cs, mu, 0.5 * s0)
        h = 1e-2
        e = [surface(s0 * math.exp(j * h))[0] for j in (-2, -1, 0, 1, 2)]
        first = (e[0] - 8.0 * e[1] + 8.0 * e[3] - e[4]) / (12.0 * h)
        second = (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (12.0 * h * h)
        value, slope, curvature = surface(s0)
        assert abs(slope - first) <= 1e-9 * value
        assert abs(curvature - (second - first)) <= 1e-9 * value

    def test_mellin_error_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "_REL_TOL", 1e-30)
        with pytest.raises(QuadratureError, match="above tolerance"):
            minimize_full_ansatz(CrossSection(l=0.3, d=3e-3))

    def test_mellin_edge_keeps_the_k_rule_beyond(self):
        # the term cap holds the Mellin branch to beta below 0.37
        cs = CrossSection(l=1.0, d=1e-2)
        mu = RescalingParams.from_cross_section(cs).mu
        rho = math.hypot(2.0 * cs.d, 2.0 * cs.l)
        assert _mellin_surface(cs, mu, rho / (math.pi**1.5 * 0.369)) is not None
        assert _mellin_surface(cs, mu, rho / (math.pi**1.5 * 0.37)) is None

    @pytest.mark.parametrize("ratio", [1.0, 4.0, 100.0])
    def test_k_rule_integrates_the_weight_over_the_probed_range(self, ratio):
        # int_0^inf sech^2(pi k/(2a)) dk = 2a/pi for every a the search probes
        a_max = 0.37
        k, weights = _k_rule(a_max / ratio, a_max)
        for a in a_max * np.geomspace(1.0 / ratio, 1.0, 25):
            value = float(np.dot(weights, _sech(0.5 * math.pi * k / a) ** 2))
            assert abs(value - 2.0 * a / math.pi) <= 1e-14 * (2.0 * a / math.pi)

    def test_matches_golden_section_values_on_criterion_8_grid(self):
        # closed-form minima; a two-stage Richardson extrapolation of the
        # sampled oracle at N = 8193, 16385 and 32769 on the best scales
        # agrees with them to 1.5e-13 relative
        reference = (10.489976523831716, 9.822834200513755, 9.591731002974695)
        cases = [CrossSection(l=1e-3, d=c * 1e-3) for c in (1e-2, 1e-4, 1e-6)]
        for record, ref in zip(rate_sweep(cases), reference):
            assert abs(record.rescaled_min_upper - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("c", [1e-3, 1e-125, 1e-150])
    def test_sampled_oracle_converges_like_h2_from_below(self, c):
        # c = 1e-125 and 1e-150: the k-rule weights times the kernel values
        # underflow there, so the energy must not form that product
        cs = CrossSection(l=1e-3, d=c * 1e-3)
        lam = RescalingParams.from_cross_section(cs).lam
        exact = ansatz_energy(cs, lam)
        cache = KernelCache(cs)
        sampled = [sampled_ansatz_energy(cs, lam, n, cache) for n in (1025, 2049, 4097)]
        gaps = [exact - v for v in sampled]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.99 <= coarse / fine <= 4.01
        first = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(sampled, sampled[1:])]
        second = (16.0 * first[1] - first[0]) / 15.0
        assert abs(second - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("c", [1e-155, 1e-160])
    def test_kernel_underflow_raises_typed_error(self, c):
        with pytest.raises(QuadratureError, match="normal range"):
            minimize_full_ansatz(CrossSection(l=1e-3, d=c * 1e-3))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_energy_term_outside_normal_range_raises_typed_error(self, scale):
        with pytest.raises(WallscaleError, match="normal range"):
            ansatz_energy(self.CS, scale)

    def test_mu_underflow_raises_typed_error(self):
        with pytest.raises(WallscaleError, match="normal range"):
            minimize_full_ansatz(CrossSection(l=1e-3, d=1e-217))

    def test_rejects_square_section(self):
        with pytest.raises(ValueError):
            minimize_full_ansatz(CrossSection(l=1.0, d=1.0))


def _table_digits(name: str) -> list[mp.mpf]:
    """The 30-digit literals of mellin_moments.name, read from its source."""
    source = Path(mellin_moments.__file__).read_text()
    block = source[source.index(f"{name} = (") : source.index(")", source.index(f"{name} = ("))]
    return [mp.mpf(v) for v in re.findall(r"-?\d\.\d+(?:e[+-]\d+)?", block)]


class TestMellinMoments:
    def test_m_matches_bernoulli_closed_form(self):
        # M_n = (1 - 2^(1-2n)) |B_2n| pi^2n, M_0 = 1, up to the term cap
        assert len(mellin_moments.M) == len(mellin_moments.L) == _MELLIN_TERMS + 1
        with mp.workdps(40):
            table = _table_digits("M")
            assert table[0] == 1
            for n in range(1, _MELLIN_TERMS + 1):
                exact = (1 - mp.mpf(2) ** (1 - 2 * n)) * abs(mp.bernoulli(2 * n)) * mp.pi ** (2 * n)
                assert abs(table[n] - exact) <= mp.mpf(10) ** -29 * exact
                assert mellin_moments.M[n] == float(exact)

    @pytest.mark.parametrize("n", [0, 1, 6, 20])
    def test_l_matches_quadrature(self, n):
        # L_n = int_0^inf x^2n ln x sech^2 x dx; L_0 = ln(pi/4) - gamma
        with mp.workdps(35):
            value = mp.quad(lambda x: x ** (2 * n) * mp.log(x) * mp.sech(x) ** 2, [0, 1, 2 * n + 1, 4 * n + 40, mp.inf])
            assert abs(_table_digits("L")[n] - value) <= mp.mpf(10) ** -29 * abs(value)
        assert mellin_moments.L[n] == float(value)
