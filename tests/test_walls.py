import math

import numpy as np
import pytest

from wallscale import (
    ClosedFormWall,
    Profile1D,
    ReducedEnergyWeights,
    WallscaleError,
    eval_wall,
    reduced_energy_E0,
    reduced_energy_alpha,
    sample_wall,
)

SQRT_PI = math.sqrt(math.pi)
E0_MIN = 16.0 / SQRT_PI


class TestEvalWall:
    def test_center_value_beta_one(self):
        v = eval_wall(ClosedFormWall(alpha=2.3, beta=1.0, theta=0.0), 0.0)
        assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)

    def test_theta_rotation(self):
        v = eval_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=math.pi / 2), 0.0)
        assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-15)

    def test_tanh_reformulation(self):
        w = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0)
        v = eval_wall(w, 10.0 * SQRT_PI)
        assert v[0] == pytest.approx(math.tanh(10.0), abs=1e-8)

    def test_matches_rational_exponential_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.uniform(0.1, 4.0)
            beta = rng.uniform(0.2, 5.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = rng.uniform(-3.0, 3.0)
            e = math.exp(2.0 * math.sqrt(alpha) * x) * beta**2
            expected = np.array(
                [
                    (e - 1.0) / (e + 1.0),
                    (2.0 * beta * math.exp(math.sqrt(alpha) * x) / (e + 1.0)) * math.cos(theta),
                    (2.0 * beta * math.exp(math.sqrt(alpha) * x) / (e + 1.0)) * math.sin(theta),
                ]
            )
            got = eval_wall(ClosedFormWall(alpha=alpha, beta=beta, theta=theta), x)
            assert np.allclose(got, expected, atol=1e-13)

    def test_negative_beta_flips_transverse_sign(self):
        plus = eval_wall(ClosedFormWall(alpha=1.0, beta=2.0, theta=0.3), 0.5)
        minus = eval_wall(ClosedFormWall(alpha=1.0, beta=-2.0, theta=0.3), 0.5)
        assert minus[0] == plus[0]
        assert np.allclose(minus[1:], -plus[1:], atol=1e-15)

    def test_unit_norm_identity(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            w = ClosedFormWall(
                alpha=rng.uniform(0.05, 20.0),
                beta=rng.uniform(-4.0, 4.0) or 1.0,
                theta=rng.uniform(0.0, 2.0 * math.pi),
            )
            v = eval_wall(w, rng.uniform(-50.0, 50.0))
            worst = max(worst, abs(float(np.linalg.norm(v)) - 1.0))
        assert worst <= 1e-14

    def test_overflow_safe_far_field(self):
        v = eval_wall(ClosedFormWall(alpha=9.0, beta=1.0, theta=0.0), 1e6)
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-300)

    def test_overflowing_position_gives_end_values_without_warning(self):
        # sqrt(alpha) x overflows to inf: the wall's limits are exact there
        w = ClosedFormWall(alpha=1e300, beta=1.0, theta=0.4)
        v = eval_wall(w, np.array([-1e300, 1e300, -math.inf, math.inf]))
        assert np.array_equal(v, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]] * 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClosedFormWall(alpha=0.0, beta=1.0, theta=0.0)
        with pytest.raises(ValueError):
            ClosedFormWall(alpha=1.0, beta=0.0, theta=0.0)


class TestSampleWall:
    def test_tight_snap_for_wide_window(self):
        p = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 20.0 * SQRT_PI, 4097)
        assert p.n_nodes == 4097
        assert np.array_equal(p.m[0], [-1.0, 0.0, 0.0])
        assert np.array_equal(p.m[-1], [1.0, 0.0, 0.0])

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="snap"):
            sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 1.0, 3)

    def test_transverse_tail_counts_in_snap(self):
        # at L = 10 the alpha = 1 wall leaves m1 + 1 = 4e-9 but m2 = 9.1e-5 at
        # the ends; setting that m2 to 0 is a snap too
        with pytest.raises(ValueError, match="snap"):
            sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 10.0, 257)
        # the golden window (14.7 wall widths) leaves m2 = 8.5e-7
        sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 26.0, 2049)

    def test_center_node_transverse_peak(self):
        p = sample_wall(ClosedFormWall(alpha=4.0, beta=1.0, theta=0.0), 10.0, 4097)
        mid = p.n_nodes // 2
        assert p.m[mid, 1] == pytest.approx(1.0, abs=1e-14)
        assert p.x[mid] == 0.0

    @pytest.mark.parametrize("half_length", [math.inf, math.nan])
    def test_nonfinite_half_length_rejected(self, half_length):
        # an infinite window warned "invalid value" in linspace
        with pytest.raises(ValueError, match="finite"):
            sample_wall(ClosedFormWall(alpha=1e-320, beta=1.0), half_length, 3)

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 4096)


class TestProfile1D:
    def test_unit_norm_enforced(self):
        x = np.linspace(-1.0, 1.0, 5)
        m = np.tile([0.5, 0.0, 0.0], (5, 1))
        with pytest.raises(ValueError, match="norm"):
            Profile1D(x, m, check_boundary=False)

    def test_boundary_enforced_unless_opted_out(self):
        x = np.linspace(-1.0, 1.0, 5)
        m = np.tile([1.0, 0.0, 0.0], (5, 1))
        with pytest.raises(ValueError, match="boundary"):
            Profile1D(x, m)
        raw = Profile1D(x, m, check_boundary=False)
        assert raw.n_nodes == 5

    def test_nonuniform_grid_rejected(self):
        x = np.array([-1.0, -0.4, 0.1, 0.5, 1.0])
        m = np.tile([1.0, 0.0, 0.0], (5, 1))
        with pytest.raises(ValueError, match="uniform"):
            Profile1D(x, m, check_boundary=False)

    @pytest.mark.parametrize("in_grid", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_grid_or_values_rejected(self, in_grid, bad):
        # NaN and inf slipped through the grid and unit-norm checks, since
        # NaN > tolerance is false, and e_v_spectral then raised IndexError
        x = np.linspace(-1.0, 1.0, 5)
        m = np.tile([1.0, 0.0, 0.0], (5, 1))
        if in_grid:
            x[[0, -1]] = (-bad, bad)
        else:
            m[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Profile1D(x, m, check_boundary=False)

    def test_immutable_after_construction(self):
        p = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 65)
        with pytest.raises(ValueError):
            p.m[0, 0] = 0.0

    def test_csv_round_trip(self, tmp_path):
        p = sample_wall(ClosedFormWall(alpha=1.0, beta=1.3, theta=0.4), 25.0, 129)
        path = tmp_path / "profile.csv"
        p.to_csv(path)
        q = Profile1D.from_csv(path)
        assert np.array_equal(p.x, q.x)
        assert np.array_equal(p.m, q.m)
        assert open(path).readline().strip() == "x,m1,m2,m3"

    def test_csv_header_mandatory(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("0.0,1.0,0.0,0.0\n1.0,1.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            Profile1D.from_csv(path)


def energy_of_sampled_minimizer(alpha: float, L: float, N: int) -> float:
    p = sample_wall(ClosedFormWall(alpha=alpha, beta=1.0, theta=0.0), L, N)
    return reduced_energy_alpha(p, alpha)


class TestReducedEnergies:
    def test_alpha_energy_hits_closed_form_minimum(self):
        for alpha in (1.0, 4.0):
            e = energy_of_sampled_minimizer(alpha, 20.0 / math.sqrt(alpha) * max(1.0, SQRT_PI), 4097)
            assert e == pytest.approx(4.0 * math.sqrt(alpha), rel=5e-3)

    def test_exchange_of_analytic_bump(self):
        # m rotates by a small angle envelope phi(x) = eps * exp(-x^2);
        # exchange integral = int |phi'|^2 = eps^2 * sqrt(2 pi) / 2... computed
        # against dense numerical reference rather than the closed form
        eps = 0.02
        x = np.linspace(-12.0, 12.0, 8193)
        phi = eps * np.exp(-(x**2))
        m = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(x)], axis=-1)
        m[0] = [1.0, 0.0, 0.0]
        m[-1] = [1.0, 0.0, 0.0]
        p = Profile1D(x, m, check_boundary=False)
        from wallscale.walls import exchange_integral

        got = exchange_integral(p)
        # |m'|^2 = |phi'|^2 exactly for a planar rotation
        dphi = -2.0 * x * phi
        expected = float(np.trapezoid(dphi**2, x))
        assert got == pytest.approx(expected, rel=1e-2)

    def test_e0_minimum_on_limit_wall(self):
        p = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 20.0 * SQRT_PI, 4097)
        e = reduced_energy_E0(p, ReducedEnergyWeights(forbid_m3=True))
        assert e == pytest.approx(E0_MIN, rel=5e-3)

    def test_e0_equipartition(self):
        from wallscale.walls import DiscreteReducedEnergy

        p = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 20.0 * SQRT_PI, 4097)
        exchange_part = DiscreteReducedEnergy(p.x, w_ex=4.0, w_t=0.0).energy(p.m)
        transverse_part = DiscreteReducedEnergy(p.x, w_ex=0.0, w_t=4.0 / math.pi).energy(p.m)
        assert exchange_part == pytest.approx(8.0 / SQRT_PI, rel=5e-3)
        assert transverse_part == pytest.approx(8.0 / SQRT_PI, rel=5e-3)

    def test_e0_sentinel_on_forbidden_m3(self):
        x = np.linspace(-20.0, 20.0, 257)
        base = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 257)
        m = base.m.copy()
        interior = slice(1, -1)
        m[interior, 2] = 0.1
        m[interior] /= np.linalg.norm(m[interior], axis=1)[:, None]
        p = Profile1D(x, m)
        assert reduced_energy_E0(p, ReducedEnergyWeights(forbid_m3=True)) == math.inf
        assert math.isfinite(reduced_energy_E0(p, ReducedEnergyWeights(forbid_m3=False)))

    def test_overflowing_energy_raises_typed_error(self):
        p = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 20.0, 65)
        with pytest.raises(WallscaleError, match="non-finite"):
            reduced_energy_alpha(p, 1e308)

    def test_e0_is_four_times_quarter_pi_alpha_energy(self):
        for beta in (0.5, 1.0, 2.0):
            p = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=beta, theta=0.0), 30.0 * SQRT_PI, 2049)
            e0 = reduced_energy_E0(p, ReducedEnergyWeights())
            ea = reduced_energy_alpha(p, 1.0 / math.pi)
            # one discrete energy with weights (4, 4/pi) and (1, 1/pi): scaling by 4 is exact
            assert e0 == 4.0 * ea

    def test_energy_independent_of_theta_and_beta(self):
        reference = None
        for theta in (0.0, math.pi / 4, math.pi / 2):
            for beta in (0.5, 1.0, 2.0):
                p = sample_wall(ClosedFormWall(alpha=1.0, beta=beta, theta=theta), 25.0, 2049)
                e = reduced_energy_alpha(p, 1.0)
                if reference is None:
                    reference = e
                assert e == pytest.approx(reference, rel=1e-4)

    def test_quadratic_convergence_to_closed_form_minimum(self):
        errors = []
        for n in (513, 1025, 2049, 4097):
            e = energy_of_sampled_minimizer(1.0, 20.0, n)
            errors.append(abs(e - 4.0))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.25)
