import math

import numpy as np
import pytest

from wallscale import (
    ClosedFormWall,
    CrossSection,
    DescentConfig,
    KernelCache,
    ReducedEnergyWeights,
    StallError,
    arc_profile,
    eval_wall,
    kernels,
    minimize_full_ansatz,
    minimize_reduced,
    rate_sweep,
    reduced_energy_alpha,
    sample_wall,
)
from wallscale.errors import QuadratureError, WallscaleError
from wallscale.magnetostatics import GAMMA_LIMIT, RescalingParams
from wallscale.minimize import DiscreteReducedEnergy, _k_rule
from wallscale.walls import _sech

from conftest import sampled_ansatz_energy


class TestDiscreteGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        base = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 15.0, 129)
        m = base.m + 0.05 * rng.standard_normal(base.m.shape)
        model = DiscreteReducedEnergy(base.x, w_ex=1.0, w2=1.3, w3=0.8)
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
        model = DiscreteReducedEnergy(p.x, w_ex=1.0, w2=2.0, w3=2.0)
        assert model.energy(p.m) == pytest.approx(reduced_energy_alpha(p, 2.0), rel=1e-14)


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

    def test_monotone_descent_and_unit_norms(self, tmp_path):
        trace = tmp_path / "trace.csv"
        init = arc_profile(20.0, 257)
        profile, _ = minimize_reduced(
            init, 1.0, DescentConfig(max_iters=400), trace_path=trace
        )
        norms = np.linalg.norm(profile.m, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) <= 1e-12
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "iteration,energy,grad_norm"
        energies = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert len(energies) >= 2

    def test_boundary_nodes_pinned(self):
        init = arc_profile(20.0, 257)
        profile, _ = minimize_reduced(init, 1.0, DescentConfig(max_iters=200))
        assert np.array_equal(profile.m[0], [-1.0, 0.0, 0.0])
        assert np.array_equal(profile.m[-1], [1.0, 0.0, 0.0])

    def test_returned_energy_never_above_initial(self):
        init = arc_profile(12.0, 257)
        e_init = reduced_energy_alpha(init, 2.5)
        _, e_final = minimize_reduced(init, 2.5, DescentConfig(max_iters=50))
        assert e_final <= e_init

    def test_rotation_equivariance(self):
        theta = 0.9
        init = arc_profile(20.0, 257)
        rot = init.m.copy()
        rot[:, 1] = init.m[:, 1] * math.cos(theta)
        rot[:, 2] = init.m[:, 1] * math.sin(theta)
        from wallscale import Profile1D

        init_rot = Profile1D(init.x, rot)
        cfg = DescentConfig(max_iters=300)
        t1 = _energy_trajectory(init, 1.0, cfg)
        t2 = _energy_trajectory(init_rot, 1.0, cfg)
        assert len(t1) == len(t2)
        assert max(abs(a - b) for a, b in zip(t1, t2)) <= 1e-10

    def test_unreachable_tolerance_stalls(self):
        # at the exact minimizer the energy decrease falls below rounding long
        # before grad_tol = 1e-300, so backtracking runs out and must raise
        init = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 257)
        with pytest.raises(StallError):
            minimize_reduced(init, 1.0, DescentConfig(grad_tol=1e-300))

    def test_forbidden_m3_init_rejected(self):
        init = arc_profile(20.0, 257)
        rot = init.m.copy()
        rot[:, 2] = init.m[:, 1]
        rot[:, 1] = 0.0
        from wallscale import Profile1D

        bad = Profile1D(init.x, rot)
        with pytest.raises(ValueError):
            minimize_reduced(bad, ReducedEnergyWeights(forbid_m3=True))


def _energy_trajectory(init, weights, cfg) -> list[float]:
    import csv
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".csv", mode="r", delete=False) as fh:
        path = fh.name
    minimize_reduced(init, weights, cfg, trace_path=path)
    with open(path) as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


class TestAnsatzSearch:
    CS = CrossSection(l=1e-3, d=1e-6)

    def test_degenerate_grid_dominated_by_search(self):
        lam = RescalingParams.from_cross_section(self.CS).lam
        single = minimize_full_ansatz(self.CS, scale_grid=np.array([lam]))
        multi = minimize_full_ansatz(self.CS)
        assert math.isfinite(single.energy)
        assert multi.energy <= single.energy
        assert single.evaluations == 1
        assert multi.evaluations > 7

    def test_rescaled_minimum_within_rate_window(self):
        res = minimize_full_ansatz(self.CS)
        rhs = 200.0 / math.sqrt(abs(math.log(self.CS.c))) + 20.0 * self.CS.l
        assert GAMMA_LIMIT - rhs <= res.energy <= GAMMA_LIMIT + rhs
        assert res.best_beta == 1.0
        assert res.best_scale > 0.0

    def test_gap_shrinks_with_aspect_ratio(self):
        gaps = []
        for c in (1e-3, 1e-6):
            cs = CrossSection(l=1e-3, d=c * 1e-3)
            res = minimize_full_ansatz(cs)
            gaps.append(res.energy - GAMMA_LIMIT)
        assert gaps[0] > gaps[1] > 0.0

    def test_probe_count_gate(self):
        # seven grid probes plus about ten bounded Brent steps
        res = minimize_full_ansatz(self.CS)
        assert res.evaluations <= 20

    def test_kernel_node_gate(self):
        # one kernel batch per search: 64 nodes for the default bracket
        # [lambda/2, 2 lambda], 48 for one scale (the sampled search sent 219)
        assert minimize_full_ansatz(self.CS).kernel_nodes <= 64
        lam = RescalingParams.from_cross_section(self.CS).lam
        assert minimize_full_ansatz(self.CS, scale_grid=np.array([lam])).kernel_nodes == 48

    def test_kernel_batch_called_once(self, monkeypatch):
        calls = []
        real = kernels.kernel_batch

        def counted(cs, swap, ks):
            calls.append((swap, np.size(ks)))
            return real(cs, swap, ks)

        monkeypatch.setattr(kernels, "kernel_batch", counted)
        res = minimize_full_ansatz(self.CS)
        assert calls == [(True, res.kernel_nodes)]

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
        exact = minimize_full_ansatz(cs, scale_grid=np.array([lam])).energy
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
            minimize_full_ansatz(self.CS, scale_grid=np.array([scale]))

    def test_mu_underflow_raises_typed_error(self):
        with pytest.raises(WallscaleError, match="normal range"):
            minimize_full_ansatz(CrossSection(l=1e-3, d=1e-217))

    def test_rejects_square_section(self):
        with pytest.raises(ValueError):
            minimize_full_ansatz(CrossSection(l=1.0, d=1.0))
