import csv
import logging
import math
from pathlib import Path

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
from wallscale import minimize as minimize_module
from wallscale import quad
from wallscale.errors import QuadratureError, WallscaleError
from wallscale.magnetostatics import GAMMA_LIMIT, RescalingParams
from wallscale.minimize import DiscreteReducedEnergy, _ansatz_energy, _real_space_surface

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

    def test_trace_file_is_one_table(self, tmp_path, monkeypatch):
        # a header line, then one LF row per iteration, counted in decimal integers
        monkeypatch.setattr(minimize_module, "_MAX_ITERS", 5)
        trace = tmp_path / "trace.csv"
        minimize_reduced(arc_profile(20.0, 65), 1.0, trace_path=trace)
        data = trace.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data
        header, *rows = data.decode().splitlines()
        assert header == "iteration,energy,grad_norm"
        assert [row.split(",")[0] for row in rows] == [str(i) for i in range(len(rows))]
        assert len(rows) == 6 and all(len(row.split(",")) == 3 for row in rows)

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
    scripts/make_ansatz_refs.py."""
    with open(Path(__file__).parent / "data" / "ansatz_surface_refs.csv") as fh:
        return [
            (float(r["l"]), float(r["d"]), float(r["s"]), float(r["beta"]), float(r["sech2_mean"]))
            for r in csv.DictReader(fh)
        ]


class TestAnsatzSearch:
    CS = CrossSection(l=1e-3, d=1e-6)
    WIDE = CrossSection(l=1.0, d=1e-2)  # its window reaches beta = 0.61
    WIDEST = CrossSection(l=100.0, d=1.0)  # and this one beta = 83

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

    def test_step_cap_raises(self, monkeypatch):
        cs = CrossSection(l=1.0, d=1e-2)
        assert minimize_full_ansatz(cs).evaluations == 3
        monkeypatch.setattr(minimize_module, "_NEWTON_STEPS", 1)
        with pytest.raises(WallscaleError, match="did not converge"):
            minimize_full_ansatz(cs)

    def test_energy_outside_the_rule_range_raises(self):
        for cs in (self.CS, self.WIDE, self.WIDEST):
            energy, s0 = _ansatz_energy(cs)
            energy(0.5 * s0)
            energy(2.0 * s0)
            for s in (0.5 * s0 * (1.0 - 1e-15), 2.0 * s0 * (1.0 + 1e-15)):
                with pytest.raises(WallscaleError, match="outside the window"):
                    energy(s)
        # a window wide enough that sinh(a xi) overflows at its small end evaluates without a warning
        energy, _ = _ansatz_energy(self.CS, (0.01, 10.0))
        assert energy(0.01)[0] == pytest.approx(5431.039844404287, rel=1e-15, abs=0.0)
        # and a window reaching zero or below is refused before the rule takes a log of it
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
        energy, s0 = _ansatz_energy(cs)
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
        + [(l, 1e-12) for l in (1e-3, 1e-2, 0.05, 0.1)]
        # thin sections on which the surface mean of order d^2 underflows, but E_s/mu does not
        + [(1e-3, 1e-152), (1e-3, 1e-155), (1e-3, 1e-160), (1e-3, 1e-200), (1.0, 1e-200)],
    )
    def test_closed_form_referee(self, l, c):
        # E/mu = P/sigma + Q sigma + R + S(sigma) with the leading E_s in Q; the
        # series term S is below 1e-14 here (6e-13 at c = 1e-12, l >= 0.3)
        cs = CrossSection(l=l, d=c * l)
        res = minimize_full_ansatz(cs)
        assert res.energy == pytest.approx(closed_form_minimum(cs), rel=1e-14, abs=0.0)

    def test_widest_thinnest_section_warns_nothing(self):
        # xi/d and the face pair's hypot + t overflowed to inf in the node
        # setup, where F is exactly 0, with RuntimeWarnings that the suite's
        # error::RuntimeWarning setting turns into failures
        res = minimize_full_ansatz(CrossSection(l=1e72, d=1e-227))
        assert res.energy == 3.9441577883740007e37

    @staticmethod
    def _count_kernel_batch_calls(monkeypatch) -> list:
        calls = []
        real = kernels.kernel_batch

        def counted(cs, swap, ks):
            calls.append((swap, np.size(ks)))
            return real(cs, swap, ks)

        monkeypatch.setattr(kernels, "kernel_batch", counted)
        return calls

    def test_rate_sweep_makes_no_kernel_batch_call(self, monkeypatch):
        # no frequency goes to kernel_batch on the criterion-8 grid or the
        # benchmark sweep's range of c at l = 1e-3
        calls = self._count_kernel_batch_calls(monkeypatch)
        cases = [CrossSection(l=1e-3, d=c * 1e-3) for c in (1e-2, 1e-4, 1e-6, *np.geomspace(1e-12, 1e-2, 11))]
        records = rate_sweep(cases)
        assert all(r.passed for r in records)
        minimize_full_ansatz(self.CS)
        assert calls == []

    def test_kernel_node_gate(self, monkeypatch):
        # nor on wide films, where the k-rule once sent up to 64 frequencies
        calls = self._count_kernel_batch_calls(monkeypatch)
        for cs in (self.CS, self.WIDE, self.WIDEST):
            minimize_full_ansatz(cs)
        assert calls == []

    @pytest.mark.parametrize("c", [1e-2, 1e-6, 1e-12])
    def test_no_bessel_function_evaluations(self, monkeypatch, c):
        # the real-space surface has elementary factors only, on wide films too
        calls = []
        real = kernels._k0_gap
        monkeypatch.setattr(kernels, "_k0_gap", lambda *args: calls.append(args) or real(*args))
        for l in (1e-3, 1.0, 100.0) if c == 1e-2 else (1e-3,):
            minimize_full_ansatz(CrossSection(l=l, d=c * l))
        assert calls == []

    def test_real_space_surface_matches_mpmath_referee(self):
        # sech^2 means of I(d, l, .) in 30 digits by a k-space route for beta < 1
        # and down to c = 1e-150, and by a real-space route for wide films up to
        # beta = 41
        rows = load_surface_refs()
        assert len(rows) == 24
        for l, d, s, beta, mean in rows:
            cs = CrossSection(l=l, d=d)
            params = RescalingParams.from_cross_section(cs)
            ref = mean / params.mu * (8.0 / math.pi**1.5) * s
            assert _real_space_surface(cs, params.lam, s, s)(s)[0] == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("l, c", [(1e-3, 1e-2), (0.3, 1e-2), (1.0, 1e-6), (100.0, 1e-2)])
    def test_real_space_surface_derivatives_match_differences(self, l, c):
        # s E' = dE/dt and s^2 E'' = d^2E/dt^2 - dE/dt in t = ln s, by
        # five-point differences (error h^4 = 1e-8)
        cs = CrossSection(l=l, d=c * l)
        lam = RescalingParams.from_cross_section(cs).lam
        _, s0 = _ansatz_energy(cs)
        surface = _real_space_surface(cs, lam, 0.5 * s0, 2.0 * s0)
        h = 1e-2
        e = [surface(s0 * math.exp(j * h))[0] for j in (-2, -1, 0, 1, 2)]
        first = (e[0] - 8.0 * e[1] + 8.0 * e[3] - e[4]) / (12.0 * h)
        second = (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (12.0 * h * h)
        value, slope, curvature = surface(s0)
        assert abs(slope - first) <= 1e-9 * value
        assert abs(curvature - (second - first)) <= 1e-9 * value

    @pytest.mark.parametrize("c, most", [(1e-2, 700), (1e-12, 700), (1e-150, 3000)])
    def test_surface_rule_node_gate(self, monkeypatch, c, most):
        # the trapezoid in ln xi has 412, 621 and 2739 nodes here, and sinh runs
        # on at most 157 of them per evaluation; GK15 halving panels took 990,
        # 1725 and 12,015, every one of them in every evaluation
        faces, curved = [], []
        face_pair, sinh = minimize_module._face_pair, np.sinh
        monkeypatch.setattr(minimize_module, "_face_pair", lambda t: faces.append(np.size(t)) or face_pair(t))
        monkeypatch.setattr(np, "sinh", lambda x: curved.append(np.size(x)) or sinh(x))
        res = minimize_full_ansatz(CrossSection(l=1e-3, d=c * 1e-3))
        assert sum(faces) <= 2 * most  # phi at xi and at sqrt(xi^2 + 4 l^2)
        assert len(curved) == res.evaluations and max(curved) <= 200

    def test_surface_error_estimates_keep_a_margin(self, monkeypatch):
        # |T_h - T_2h| is at most 1.2e-12 of E_s on this grid (the criterion-8
        # c among it) at h = 0.15, far under quad._RULE_TOL = 1e-9; at h = 0.2
        # it reached 3.6e-9, so a coarser step fails here first
        checked = []
        check_rule = minimize_module._check_rule
        monkeypatch.setattr(
            minimize_module, "_check_rule", lambda *args: checked.append(args[1:3]) or check_rule(*args)
        )
        for l in (1e-3, 1.0, 100.0, 1e4, 1e6):
            for c in (1e-200, 1e-50, 1e-12, 1e-6, 1e-4, 1e-2, 0.5, 0.99):
                energy, s0 = _ansatz_energy(CrossSection(l=l, d=c * l))
                for s in (0.5 * s0, s0, 2.0 * s0):
                    energy(s)
        assert len(checked) == 120
        assert all(error <= 1e-11 * value for value, error in checked)

    def test_real_space_surface_error_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(quad, "_RULE_TOL", 1e-30)
        with pytest.raises(QuadratureError, match="above tolerance"):
            minimize_full_ansatz(CrossSection(l=0.3, d=3e-3))

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
        # c = 1e-125 and 1e-150: products of l d-sized factors underflow there,
        # so the energy must form none
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
