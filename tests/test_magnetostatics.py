import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from wallscale import (
    ClosedFormWall,
    CrossSection,
    EnergyBreakdown,
    KernelCache,
    Profile1D,
    RescalingParams,
    e_s_boundary_oracle,
    e_s_spectral,
    e_v_spectral,
    e_v_upper_bound,
    emag_lipschitz_check,
    eval_wall,
    full_energy,
    i_kernel,
    sample_wall,
    spectrum,
)
from wallscale import cli, kernels, magnetostatics, quad
from wallscale.errors import QuadratureError, WallscaleError
from wallscale.magnetostatics import (
    _face_pair,
    _section_pair_green,
    e_v_volume_oracle,
    offset_m1,
    richardson_boundary_oracle,
)
from wallscale.minimize import _real_space_surface
from wallscale.quad import _gk_panels, _halving_edges
from wallscale.walls import DiscreteReducedEnergy, profile_derivative

from conftest import (
    GOLDEN_CS, GOLDEN_WALL, GOLDEN_L, GOLDEN_N, closed_form_spectrum_energies, grid_free_e_v, load_golden,
)

SQRT_PI = math.sqrt(math.pi)

# E_v of the golden wall from its closed-form spectrum |g_hat|^2 against K
GOLDEN_E_V = 2.0036953923e-4
# E_s of the golden wall from its closed-form spectrum
GOLDEN_E_S = 0.0249314674
# the golden wall's m1 = tanh(a x), m2 = sech(a x)
GOLDEN_A = 1.0 / SQRT_PI


def uniform_bulk_profile(L=10.0, N=257) -> Profile1D:
    x = np.linspace(-L, L, N)
    m = np.tile([1.0, 0.0, 0.0], (N, 1))
    return Profile1D(x, m, check_boundary=False)


def delta_m2_profile(L=10.0, N=257) -> Profile1D:
    x = np.linspace(-L, L, N)
    m = np.tile([1.0, 0.0, 0.0], (N, 1))
    m[0] = [-1.0, 0.0, 0.0]
    m[: N // 2] = [-1.0, 0.0, 0.0]
    m[N // 2] = [0.0, 1.0, 0.0]
    return Profile1D(x, m)


class TestRescaling:
    def test_lambda_mu_product(self):
        cs = CrossSection(l=1e-3, d=1e-6)
        params = RescalingParams.from_cross_section(cs)
        assert params.lam * params.mu == pytest.approx(cs.l * cs.d, rel=5e-16, abs=0.0)
        assert params.lam == pytest.approx(1.0 / math.sqrt(cs.c * abs(math.log(cs.c))))

    def test_requires_strictly_thin(self):
        with pytest.raises(ValueError):
            RescalingParams.from_cross_section(CrossSection(l=1.0, d=1.0))

    def test_mu_below_normal_range_raises(self):
        # mu = l d / lambda underflowed to 0.0 here, and rescaled energies
        # divided by it
        with pytest.raises(WallscaleError, match="normal range"):
            RescalingParams.from_cross_section(CrossSection(l=1e-3, d=1e-217))
        assert RescalingParams.from_cross_section(CrossSection(l=1e-3, d=1e-200)).mu > 0.0

    def test_subnormal_aspect_ratio_raises(self):
        # c |ln c| is subnormal here, and lambda^2 = 1/(c |ln c|) overflows
        with pytest.raises(WallscaleError, match="normal range"):
            RescalingParams.from_cross_section(CrossSection(l=1e300, d=1e-20))


class TestSpectrum:
    def test_delta_gives_flat_modulus(self):
        p = delta_m2_profile()
        spec = spectrum(p)
        mags = np.abs(spec.m2_hat)
        assert np.allclose(mags, mags[0], rtol=1e-12)

    def test_plancherel_exact_for_transverse(self):
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, GOLDEN_N)
        spec = spectrum(p)
        h = p.spacing
        spectral = float(np.sum(np.abs(spec.m2_hat) ** 2) * spec.dk)
        spatial = float(h * np.sum(p.m[: p.n_nodes - 1, 1] ** 2))
        assert spectral == pytest.approx(spatial, abs=1e-10)

    def test_limit_wall_transverse_mass(self):
        p = sample_wall(GOLDEN_WALL, 20.0 * SQRT_PI, 4097)
        spec = spectrum(p)
        mass = float(np.sum(np.abs(spec.m2_hat) ** 2) * spec.dk)
        assert mass == pytest.approx(2.0 * SQRT_PI, abs=1e-6)

    def test_windowed_cosine_peaks_at_carrier(self):
        L, N = 40.0, 2049
        x = np.linspace(-L, L, N)
        k0 = 2.0
        envelope = 0.5 * np.exp(-((x / 8.0) ** 2))
        m2 = envelope * np.cos(k0 * x)
        m1 = np.sqrt(1.0 - m2**2) * np.sign(x + 1e-300)
        m1[N // 2] = math.sqrt(1.0 - m2[N // 2] ** 2)
        m = np.stack([m1, m2, np.zeros_like(x)], axis=-1)
        m[0] = [-1.0, 0.0, 0.0]
        m[-1] = [1.0, 0.0, 0.0]
        p = Profile1D(x, m)
        spec = spectrum(p)
        peak_k = abs(spec.frequencies[int(np.argmax(np.abs(spec.m2_hat)))])
        assert peak_k == pytest.approx(k0, abs=2.0 * spec.dk)

    def test_interleaved_grids_match_fresh_transforms_bitwise(self):
        # the kept DFT plan must follow every change of node count or
        # spacing, never serving a stale grid; the first two grids differ in
        # spacing only and follow each other in both orders; the third has
        # m3 = 0, whose transform skips the FFT
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.4)
        grids = [sample_wall(wall, L, 1025) for L in (26.0, 30.0)]
        grids.append(sample_wall(GOLDEN_WALL, GOLDEN_L, 513))
        for p in grids + grids[::-1] + grids:
            h, M = p.spacing, p.n_nodes - 1
            k = 2.0 * math.pi * np.fft.fftfreq(M, d=h)
            phase = np.exp(-1j * k * p.x[0])
            order = np.argsort(k, kind="stable")
            spec = spectrum(p)
            assert np.array_equal(spec.frequencies, k[order])
            for col, got in ((p.m[:, 1], spec.m2_hat), (p.m[:, 2], spec.m3_hat)):
                fresh = (h / math.sqrt(2.0 * math.pi) * phase * np.fft.fft(col[:M]))[order]
                assert np.array_equal(got, fresh)

    def test_frequency_spacing(self):
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, GOLDEN_N)
        spec = spectrum(p)
        assert spec.dk == pytest.approx(math.pi / GOLDEN_L, rel=1e-12, abs=0.0)
        assert np.allclose(np.diff(spec.frequencies), spec.dk, rtol=1e-9)


class TestKernelCache:
    def test_cached_equals_fresh_bitwise(self):
        cache = KernelCache(GOLDEN_CS)
        for swap in (True, False):
            for x in (0.0, 0.7, 3.1):
                cached = cache.value(swap, x)
                assert cached == i_kernel(GOLDEN_CS, swap, x)
                assert cache.value(swap, -x) == cached

    def test_batched_lookup_fills_misses_once(self, standard_wall_profile):
        cache = KernelCache(GOLDEN_CS)
        ks = spectrum(standard_wall_profile).frequencies[::7]
        first = cache.values(True, ks)
        size = len(cache)
        assert size == np.unique(np.abs(ks)).size
        assert np.array_equal(cache.values(True, ks[::-1]), first[::-1])
        assert len(cache) == size
        assert all(v == i_kernel(GOLDEN_CS, True, k) for k, v in zip(ks[:20], first[:20]))


class TestSurfaceEnergy:
    def test_zero_without_transverse_charge(self):
        p = uniform_bulk_profile()
        assert e_s_spectral(p, GOLDEN_CS) == 0.0
        assert e_s_boundary_oracle(p, GOLDEN_CS) == 0.0

    def test_spectral_matches_golden_oracle(self, standard_wall_profile):
        golden, tol = load_golden("rect_l0.1_d0.05_standard_wall", "e_s")
        value = e_s_spectral(standard_wall_profile, GOLDEN_CS)
        assert abs(value - golden) / golden <= tol

    def test_golden_dir_env_override(self, monkeypatch, tmp_path):
        alt = tmp_path / "golden_energies.csv"
        alt.write_text(
            "case_id,component,value,tolerance\nrect_l0.1_d0.05_standard_wall,e_s,123.0,0.5\n"
        )
        monkeypatch.setenv("WALLSCALE_GOLDEN_DIR", str(tmp_path))
        value, tol = load_golden("rect_l0.1_d0.05_standard_wall", "e_s")
        assert value == 123.0 and tol == 0.5

    def test_live_richardson_oracle_agrees(self, standard_wall_profile):
        extrapolated, raw = richardson_boundary_oracle(standard_wall_profile, GOLDEN_CS)
        value = e_s_spectral(standard_wall_profile, GOLDEN_CS)
        assert abs(value - extrapolated) / extrapolated <= 2e-6  # measured 1.08e-6
        assert 0.0 < raw[0] < raw[1] < extrapolated  # h^2 convergence from below

    def test_golden_referee_from_ansatz_surface(self, standard_wall_profile):
        # the golden wall is the ansatz at s = 1, whose E_s the real-space
        # surface integral gives with no grid, window or extrapolation
        params = RescalingParams.from_cross_section(GOLDEN_CS)
        referee = _real_space_surface(GOLDEN_CS, params.lam, 1.0, 1.0)(1.0)[0] * params.mu
        assert referee == pytest.approx(GOLDEN_E_S, rel=0.0, abs=1e-10)
        # measured +6.98e-7 (the same at N = 1025 and 4097) and -3.78e-7
        assert abs(e_s_spectral(standard_wall_profile, GOLDEN_CS) / referee - 1.0) <= 1e-6
        extrapolated, _ = richardson_boundary_oracle(standard_wall_profile, GOLDEN_CS)
        assert abs(extrapolated / referee - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "theta, raw, extrapolated",
        [
            (0.0, [0.0249311851491757, 0.024931389761732693], 0.024931457965918356),
            (math.pi / 2, [0.045882616423104976, 0.0458829386914385], 0.04588304611421634),
        ],
    )
    def test_richardson_oracle_pinned(self, theta, raw, extrapolated):
        # the golden file's tolerance is looser than the oracle's drift; these
        # pins catch any drift of the oracle itself (m2 faces at theta = 0, m3
        # at pi/2), over the grid's every-other-node subgrid and the grid
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=theta)
        got, got_raw = richardson_boundary_oracle(sample_wall(wall, GOLDEN_L, GOLDEN_N), GOLDEN_CS)
        assert got_raw == pytest.approx(raw, rel=1e-13, abs=0.0)
        assert got == pytest.approx(extrapolated, rel=1e-13, abs=0.0)

    def test_mirror_symmetry_in_m2(self, standard_wall_profile):
        p = standard_wall_profile
        flipped = Profile1D(
            p.x, np.stack([p.m[:, 0], -p.m[:, 1], p.m[:, 2]], axis=-1), check_boundary=False
        )
        assert e_s_spectral(flipped, GOLDEN_CS) == pytest.approx(
            e_s_spectral(p, GOLDEN_CS), rel=1e-12
        )

    def test_recovery_profile_obeys_paper_upper_bound(self):
        cs = CrossSection(l=1e-3, d=1e-6)
        lam = RescalingParams.from_cross_section(cs).lam
        wall = ClosedFormWall(alpha=1.0 / (math.pi * lam * lam), beta=1.0, theta=0.0)
        p = sample_wall(wall, 15.0 * SQRT_PI * lam, 4097)
        t2 = DiscreteReducedEnergy(p.x, w_ex=0.0, w_t=1.0).energy(p.m)  # int m2^2, as m3 = 0
        bound = (4.0 / math.pi) * cs.l * cs.d * cs.c * (abs(math.log(cs.c)) + 3.0) * t2
        value = e_s_spectral(p, cs)
        assert 0.0 < value <= bound

    def test_oracle_takes_spacing_above_half_width(self):
        # h = 2.03 l, which the oracle refused while its cells stopped at
        # 10 l: the 20 averaged cells put it 5.48e-5 below the referee
        value = e_s_boundary_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, 257), GOLDEN_CS)
        assert -6e-5 <= value / GOLDEN_E_S - 1.0 <= -5e-5

    @pytest.mark.parametrize("l, c, theta", [(1e-3, 0.5, math.pi / 2), (1e-3, 1e-4, 0.0)])
    def test_oracle_refuses_axial_cells_wider_than_section(self, l, c, theta):
        # h = 25 l on the subgrid of 51 l, far past the section: the lag-1
        # cell average, a difference of two near face pairs, misses its tolerance
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=theta)
        with pytest.raises(QuadratureError, match="above tolerance at lag 1$"):
            richardson_boundary_oracle(sample_wall(wall, GOLDEN_L, GOLDEN_N), CrossSection(l=l, d=c * l))

    def test_oracle_takes_coarse_axial_cells_on_golden_section(self):
        # h = 8.1 l, where the 2-D panel oracle at (64, 16) was 8.0 times the
        # spectral E_s: the lag sum is 1.31e-4 above the referee
        value = e_s_boundary_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, 65), GOLDEN_CS)
        assert 1.2e-4 <= value / GOLDEN_E_S - 1.0 <= 1.4e-4

    def test_richardson_oracle_refuses_even_node_count(self):
        # the every-other-node subgrid of 2050 nodes is not symmetric, which
        # raised about a grid the caller never built
        with pytest.raises(ValueError, match="odd node count, got 2050$"):
            x = np.linspace(-GOLDEN_L, GOLDEN_L, 2050)
            richardson_boundary_oracle(Profile1D(x, eval_wall(GOLDEN_WALL, x), check_boundary=False), GOLDEN_CS)

    def test_oracle_m3_family_mirrors_m2_on_square_section(self):
        # at l = d the theta = pi/2 wall is the theta = 0 wall reflected, so
        # the z-face family must reproduce the y-face family exactly
        cs = CrossSection(l=0.05, d=0.05)
        p0 = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 26.0, 2049)
        p90 = sample_wall(
            ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 2), 26.0, 2049
        )
        e0 = e_s_boundary_oracle(p0, cs)
        e90 = e_s_boundary_oracle(p90, cs)
        assert e90 == pytest.approx(e0, rel=1e-12, abs=0.0)

    def test_thin_film_m3_channel_is_finite(self):
        # m3-carrying wall at c = 1e-4, where the m3 kernel used to fail
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 4)
        value = e_s_spectral(sample_wall(wall, 26.0, 513), CrossSection(l=1e-3, d=1e-7))
        assert math.isfinite(value) and value >= 0.0

    def test_overflowing_spectrum_raises_typed_error(self):
        # on a 1e300 window |m2_hat|^2 overflowed with a RuntimeWarning, and
        # the floor then kept no frequency, so E_s read 0
        p = sample_wall(ClosedFormWall(alpha=1e-300, beta=1.0, theta=0.0), 1e300, 65)
        with pytest.raises(WallscaleError, match="overflow"):
            e_s_spectral(p, CrossSection(l=1e-3, d=1e-4))

    def test_subnormal_energy_raises_typed_error(self):
        # m2 = 1e-160 exp(-x^2): the energy, about 1e-320, is below the normal range
        x = np.linspace(-5.0, 5.0, 65)
        m = np.zeros((65, 3))
        m[:, 1] = 1e-160 * np.exp(-x * x)
        m[:, 0] = np.sqrt(1.0 - m[:, 1] ** 2)
        p = Profile1D(x, m, check_boundary=False)
        with pytest.raises(WallscaleError, match="normal range"):
            e_s_spectral(p, CrossSection(l=1e-3, d=1e-4))
        assert e_v_spectral(p, CrossSection(l=1e-3, d=1e-4)) == 0.0  # m1 = 1 in double precision

    def test_spectral_overflow_raises_typed_error(self):
        # every kernel value is finite here, but their spectrum-weighted sum overflows
        p = sample_wall(ClosedFormWall(alpha=1e-200, beta=1.0, theta=0.0), 3e101, 65)
        with pytest.raises(QuadratureError, match="not finite"):
            e_s_spectral(p, CrossSection(l=1e149, d=1e148))

    def test_m3_channel_spectral_matches_oracle(self):
        # the theta = pi/2 wall puts all transverse charge on the z-faces,
        # exercising the swap=False kernel channel end to end
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 2)
        p = sample_wall(wall, GOLDEN_L, GOLDEN_N)
        extrapolated, _ = richardson_boundary_oracle(p, GOLDEN_CS)
        value = e_s_spectral(p, GOLDEN_CS)
        assert abs(value - extrapolated) / extrapolated <= 2e-6  # measured 8.44e-7


class TestVolumeBound:
    def test_formula_transcription(self, standard_wall_profile):
        p = standard_wall_profile
        cs = CrossSection(l=0.1, d=0.01)
        h = p.spacing
        dm1 = profile_derivative(p)[:, 0]
        ms = offset_m1(p)
        norm_dm1 = float(h * (np.sum(dm1**2) - 0.5 * (dm1[0] ** 2 + dm1[-1] ** 2)))
        norm_ms = float(h * (np.sum(ms**2) - 0.5 * (ms[0] ** 2 + ms[-1] ** 2)))
        log_term = 1.0 + math.log(cs.l / cs.d)
        expected = (
            (4.0 / math.pi) * norm_dm1 * cs.l**2 * cs.d**2
            + 10.0 * cs.l * cs.d**2 * log_term
            + 20.0 * math.pi * cs.l * cs.d**2 * log_term * (norm_ms + norm_dm1)
        )
        assert e_v_upper_bound(p, cs) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_square_section_log_collapse(self, standard_wall_profile):
        p = standard_wall_profile
        cs = CrossSection(l=0.2, d=0.2)
        h = p.spacing
        dm1 = profile_derivative(p)[:, 0]
        ms = offset_m1(p)
        norm_dm1 = float(h * (np.sum(dm1**2) - 0.5 * (dm1[0] ** 2 + dm1[-1] ** 2)))
        norm_ms = float(h * (np.sum(ms**2) - 0.5 * (ms[0] ** 2 + ms[-1] ** 2)))
        expected = (4.0 / math.pi) * norm_dm1 * cs.l**4 + 10.0 * cs.l**3 + 20.0 * math.pi * cs.l**3 * (
            norm_ms + norm_dm1
        )
        assert e_v_upper_bound(p, cs) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_overflow_raises_typed_error(self, standard_wall_profile):
        # l d (A ||d m1||^2 + ...) with A ~ l d is about (l d)^2 = 1e320, past the double range
        with pytest.raises(QuadratureError, match="not finite"):
            e_v_upper_bound(standard_wall_profile, CrossSection(l=1e100, d=1e60))

    def test_scaling_trend_at_fixed_aspect_ratio(self, standard_wall_profile):
        p = standard_wall_profile
        values = [
            e_v_upper_bound(p, CrossSection(l=l, d=0.1 * l)) for l in (0.1, 0.01, 0.001)
        ]
        # at fixed c and fixed profile the bound scales like l*d^2 ~ l^3
        assert values[0] / values[1] == pytest.approx(1e3, rel=0.05)
        assert values[1] / values[2] == pytest.approx(1e3, rel=0.05)


def scaled_golden_case(scale):
    """The golden wall and section with l, d, L and the wall width times scale."""
    cs = CrossSection(l=GOLDEN_CS.l * scale, d=GOLDEN_CS.d * scale)
    wall = ClosedFormWall(alpha=GOLDEN_WALL.alpha / scale**2, beta=GOLDEN_WALL.beta)
    return sample_wall(wall, GOLDEN_L * scale, GOLDEN_N), cs


@pytest.fixture(scope="module")
def volume_oracle_levels():
    """The volume oracle on the golden wall at N = 2049, 4097 and 8193."""
    return [e_v_volume_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, n), GOLDEN_CS) for n in (2049, 4097, 8193)]


def richardson_h2_h3(raw):
    """Two Richardson stages removing the h^2 and h^3 terms of three levels
    at halving h."""
    first = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(raw, raw[1:])]
    return (8.0 * first[1] - first[0]) / 7.0


def pair_green_mpmath(cs, s):
    """F(s) in 30-digit arithmetic, from the integrand as first written."""
    with mpmath.workdps(30):
        tl, td, s = mpmath.mpf(2.0 * cs.l), mpmath.mpf(2.0 * cs.d), mpmath.mpf(s)

        def f(u):
            k = mpmath.hypot(s, u)
            return (tl - u) * (td * mpmath.asinh(td / k) - mpmath.hypot(k, td) + k)

        return float(4 * mpmath.quad(f, [0, s, tl] if s < tl else [0, tl]))


def zero_lag_mpmath(cs):
    """F(0), the self integral of 1/|p - q| over the flat 2l x 2d cell, from
    its closed form in 2|log10 c| + 30 digits, which absorb the form's
    cancellation, about c^-2, on thin cells."""
    with mpmath.workdps(int(2 * abs(math.log10(cs.c))) + 30):
        a, b = mpmath.mpf(2.0 * cs.l), mpmath.mpf(2.0 * cs.d)
        r, A, B = mpmath.hypot(a, b), mpmath.asinh(b / a), mpmath.asinh(a / b)
        t1 = a * b * (a * A + b * B)
        t2 = b * ((b / 2) * r + (a * a / 2) * A - b * b / 2)
        t3 = a * ((a / 2) * r + (b * b / 2) * B - a * a / 2)
        return float(4 * (t1 - t2 - t3 + (r**3 - a**3 - b**3) / 3))


def quadpack(f, a, b, epsabs, epsrel, limit):
    """QUADPACK's integral of f over [a, b], a referee independent of the
    package's GK15 rule; it must end with no message and with its error
    estimate within max(epsabs, epsrel |value|)."""
    value, error, _, *message = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    assert not message, message
    assert error <= max(epsabs, epsrel * abs(value))
    return value


def pair_green_quadpack(cs, s, h):
    """Test oracle for _section_pair_green, the slower path it replaced:
    one adaptive QUADPACK call per panel on the cancellation-free integrand,
    split at the same halving edges."""
    tl, td = 2.0 * cs.l, 2.0 * cs.d

    def f(u):
        k = math.hypot(s, u)
        return (tl - u) * (td * math.asinh(td / k) - td * td / (math.hypot(k, td) + k))

    edges = [math.ldexp(tl, -j) for j in range(math.ceil(math.log2(tl / h)) + 1)] + [0.0]
    return 4.0 * sum(quadpack(f, lo, hi, 1e-300, 1e-12, 200) for hi, lo in zip(edges, edges[1:]))


class TestSectionPairGreen:
    H = 2.0 * GOLDEN_L / (GOLDEN_N - 1)

    def test_matches_mpmath(self):
        # up to the largest crosscheck lag 520 l, where the old QUADPACK
        # value on the cancelling integrand was off by 1.3e-11; alone, each
        # s >= 4 l takes the one panel [0, 2l] (its panel count was negative,
        # no edge was left, and the call divided by zero)
        s = GOLDEN_CS.l * np.array([self.H / GOLDEN_CS.l, 1.0, 4.0, 10.0, 50.0, 520.0])
        values, _ = _section_pair_green(GOLDEN_CS, s)
        for si, value in zip(s, values):
            reference = pair_green_mpmath(GOLDEN_CS, si)
            assert value == pytest.approx(reference, rel=1e-15, abs=0.0)
            (alone,), _ = _section_pair_green(GOLDEN_CS, np.array([si]))
            assert alone == pytest.approx(reference, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("l", [1e-3, 0.1, 1.0, 100.0])
    @pytest.mark.parametrize("c", [1.0, 0.5, 1e-2, 1e-6, 1e-8, 1e-12])
    def test_zero_lag_matches_mpmath(self, l, c):
        # the closed form in doubles was 1.6e-4 off at 0.1 x 1.25e-8 and 96% at 0.1 x 1.25e-12
        cs = CrossSection(l=l, d=c * l)
        values, _ = _section_pair_green(cs, np.array([0.0]))
        assert values[0] == pytest.approx(zero_lag_mpmath(cs), rel=1e-15, abs=0.0)

    def test_lag_blocks_match_per_panel_loop(self):
        # every crosscheck lag, over several blocks of lags, against the
        # per-panel loop that summed one panel of all lags at a time
        s = self.H * np.arange(1, GOLDEN_N)
        tl, d = 2.0 * GOLDEN_CS.l, GOLDEN_CS.d
        nodes, kronrod, _ = _gk_panels(np.append(_halving_edges(tl, self.H), 0.0))
        reference = sum(
            4.0 * (((tl - u) * (d * _face_pair(np.hypot(s[:, None], u) / d))) @ wk) for u, wk in zip(nodes, kronrod)
        )
        values, _ = _section_pair_green(GOLDEN_CS, s)
        assert s.size * nodes.size > magnetostatics._PAIR_BLOCK
        np.testing.assert_allclose(values, reference, rtol=1e-15, atol=0.0)

    def test_error_above_tolerance_raises(self, monkeypatch, standard_wall_profile):
        monkeypatch.setattr(quad, "_RULE_TOL", 1e-18)
        with pytest.raises(QuadratureError):
            e_v_volume_oracle(standard_wall_profile, GOLDEN_CS)

    def test_value_below_normal_range_raises(self):
        # F ~ l^2 d underflows to 0.0 with an error of 0.0, which the error check alone let pass
        with pytest.raises(QuadratureError, match="normal range"):
            _section_pair_green(CrossSection(l=1e-160, d=1e-160), np.array([2.5e-161]))

    @pytest.mark.parametrize("scale", [1e-103, 1e-110])
    def test_volume_oracle_below_normal_range_raises(self, scale):
        # E_v of the scaled golden case is subnormal at 1e-103 and 0.0 at 1e-110
        with pytest.raises(QuadratureError, match="normal range"):
            e_v_volume_oracle(*scaled_golden_case(scale))

    @pytest.mark.parametrize("scale", [1e-100, 1e-101])
    def test_volume_oracle_on_a_merely_small_section(self, scale, standard_wall_profile):
        # E_v ~ scale^3 is normal down to scale ~ 1e-101.7, while the pair
        # integrals F ~ l^2 d of the scaled section leave the normal range
        # from 1e-101: the oracle must take F on the unit section
        golden = e_v_volume_oracle(standard_wall_profile, GOLDEN_CS)
        value = e_v_volume_oracle(*scaled_golden_case(scale))
        assert value == pytest.approx(scale**3 * golden, rel=1e-13, abs=0.0)
        if scale == 1e-100:
            assert value == pytest.approx(2.0035954750695054e-304, rel=1e-13, abs=0.0)

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=0.0),
        st.floats(min_value=-6.0, max_value=0.0),
        st.floats(min_value=-4.0, max_value=math.log10(0.5)),
        st.lists(st.integers(min_value=1, max_value=100_000), max_size=4),
    )
    def test_within_tolerance_and_matches_quadpack(self, log_l, log_c, log_h, lags):
        cs = CrossSection(l=10.0**log_l, d=10.0**(log_l + log_c))
        h = 10.0**log_h * cs.l
        s = h * np.array([1] + lags, dtype=float)
        values, errors = _section_pair_green(cs, s)
        assert np.all(errors <= quad._RULE_TOL * values)
        reference = [pair_green_quadpack(cs, si, h) for si in s]
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=0.0)


class TestVolumeSpectral:
    def test_zero_without_volume_charge(self):
        p = uniform_bulk_profile()
        assert e_v_spectral(p, GOLDEN_CS) == 0.0

    def test_bessel_work_gate(self, monkeypatch, standard_wall_profile):
        # every rule node of the golden E_v lies in the H-gap series, so K
        # gives no row to the trapezoid rule above z = 2; counts, unlike
        # seconds, do not depend on the host
        counted = []
        trapezoid = kernels._trapezoid
        monkeypatch.setattr(kernels, "_trapezoid", lambda *args: counted.append(np.size(args[-1])) or trapezoid(*args))
        e_v_spectral(standard_wall_profile, GOLDEN_CS)
        assert sum(counted) == 0
        kernels.volume_kernel_batch(GOLDEN_CS, [300.0])  # its rule nodes reach k u = 60
        assert sum(counted) > 0

    def test_subnormal_energy_raises_typed_error(self):
        # dk = pi/L = 3e-300 on this window: E_v was 8.50e-310, a subnormal value
        p = sample_wall(ClosedFormWall(alpha=1e-300, beta=1.0, theta=0.0), 1e300, 65)
        with pytest.raises(WallscaleError, match="normal range"):
            e_v_spectral(p, CrossSection(l=1e-3, d=1e-4))

    @pytest.mark.parametrize(
        "l, d, rtol", [(0.1, 0.05, 1e-13), (1.0, 0.5, 1e-13), (1e-3, 1e-9, 1e-13), (10.0, 1e-3, 1e-9)]
    )
    def test_zero_cell_is_the_exact_cell_average(self, l, d, rtol):
        # a linear m1 puts all of g = dm1/dx, |g_hat|^2 = 2/pi, at k = 0, so
        # E_v is (4/pi^2)(2/pi) dk times the average of K over (0, dk/2].
        # K ~ A ln k + B there, which 16-point Gauss-Legendre missed by 2e-4
        # to 9.4e-4 of the average.  The referee is QUADPACK on the same
        # average in t = ln(dk/(2k)); at l = 10, dk l = 1.2 reaches past the
        # logarithmic range of K
        cs = CrossSection(l=l, d=d)
        L, N = 26.0, 513
        x = np.linspace(-L, L, N)
        p = Profile1D(x, np.column_stack([x / L, np.sqrt(1.0 - (x / L) ** 2), np.zeros(N)]))
        dk = math.pi / L

        def weighted(t):
            (value,), _ = kernels.volume_kernel_batch(cs, [0.5 * dk * math.exp(-t)])
            return value * math.exp(-t)

        average = quadpack(weighted, 0.0, 80.0, 0.0, 1e-13, 2000)
        expected = (4.0 / math.pi**2) * (2.0 / math.pi) * dk * average
        assert e_v_spectral(p, cs) == pytest.approx(expected, rel=rtol, abs=0.0)

    def test_against_volume_oracle(self, volume_oracle_levels):
        # the raw oracle is h^2-low by 5.0e-5 at N = 2049, and the referee is
        # its Richardson value; spectral E_v sits 3.52e-3 below it, the 1/L
        # bias of its k = 0 cell
        spectral = e_v_spectral(sample_wall(GOLDEN_WALL, GOLDEN_L, 2049), GOLDEN_CS)
        assert spectral == pytest.approx(richardson_h2_h3(volume_oracle_levels), rel=5e-3)

    def test_volume_oracle_converges_like_h2(self, volume_oracle_levels):
        # the cell averages integrate F, kink and s^2 ln|s| term included, so
        # the sum's error is the h^2 of sampling the smooth autocorrelation;
        # one Richardson stage leaves 3.1e-8 and 2.4e-9 of E_v (the point
        # values of F at every lag left an h^3 term, 8 times less per halving)
        raw = volume_oracle_levels
        assert (raw[0] - raw[1]) / (raw[1] - raw[2]) == pytest.approx(4.0, abs=0.15)
        errors = [value - GOLDEN_E_V for value in raw]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.15)
        first = [(4.0 * fine - coarse) / 3.0 - GOLDEN_E_V for coarse, fine in zip(raw, raw[1:])]
        assert abs(first[0]) <= 5e-8 * GOLDEN_E_V and abs(first[1]) <= 5e-9 * GOLDEN_E_V

    def test_richardson_volume_oracle_matches_closed_form(self, volume_oracle_levels):
        assert richardson_h2_h3(volume_oracle_levels) == pytest.approx(GOLDEN_E_V, rel=2e-7)

    def test_volume_oracle_pinned(self, standard_wall_profile):
        value = e_v_volume_oracle(standard_wall_profile, GOLDEN_CS)
        assert value == pytest.approx(0.0002003595475069492, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n_nodes, measured", [(1025, -2.129e-4), (2049, -6.221e-5)])
    def test_volume_oracle_takes_spacing_above_half_width(self, n_nodes, measured):
        # h = 51 l / 25 l: with its cells out to 10 l, a single averaged cell
        # here, the lag sum returned 2.90e-14 / 1.51e-14 against a grid-free
        # 1.759e-15; 20 averaged cells put it this far below, where the
        # spectral E_v is 1.78e-3 / 1.63e-3 below
        cs = CrossSection(l=1e-3, d=1e-5)
        error = e_v_volume_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, n_nodes), cs) / grid_free_e_v(cs, GOLDEN_A) - 1.0
        assert error == pytest.approx(measured, rel=0.01, abs=0.0)

    def test_volume_oracle_takes_spacing_above_half_of_half_width(self):
        # h = 0.508 l, on the same 20 cells as before: the sum is 2.0e-4 low
        value = e_v_volume_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, 1025), GOLDEN_CS)
        assert value / grid_free_e_v(GOLDEN_CS, GOLDEN_A) - 1.0 == pytest.approx(-1.997e-4, rel=0.01, abs=0.0)

    @pytest.mark.parametrize("c", [1e-2, 1e-6])
    def test_volume_oracle_on_thin_sections_falls_to_its_floor(self, c):
        # h = 203 l down to 6.3 l, 20 averaged cells each: the error falls
        # like h^2 to N = 2049, then stalls near -1.3e-5 (-1.27e-5 at 16385),
        # as past the averaged cells the point value of the ~1/s pair
        # function at lag m is off its cell average by about 1/(12 m^2)
        # whatever h; the spectral E_v is 1.63e-3 low at N = 2049
        cs = CrossSection(l=1e-3, d=c * 1e-3)
        referee = grid_free_e_v(cs, GOLDEN_A)
        table = ((257, -3.195e-3), (1025, -2.129e-4), (2049, -6.22e-5), (4097, -2.45e-5), (8193, -1.507e-5))
        for n_nodes, measured in table:
            error = e_v_volume_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, n_nodes), cs) / referee - 1.0
            assert error == pytest.approx(measured, rel=0.01, abs=0.0), n_nodes

    def test_below_closed_form_bound(self):
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, 513)
        assert e_v_spectral(p, GOLDEN_CS) <= e_v_upper_bound(p, GOLDEN_CS)

    def test_lower_order_than_surface_energy(self):
        # along (l, d) -> 0 with c -> 0 the volume part loses to the surface part
        ratios = []
        for l, c in ((0.1, 0.5), (0.02, 0.2), (0.004, 0.08)):
            cs = CrossSection(l=l, d=c * l)
            p = sample_wall(GOLDEN_WALL, GOLDEN_L, 513)
            ratios.append(e_v_spectral(p, cs) / e_s_spectral(p, cs))
        assert ratios[0] > ratios[1] > ratios[2]


class TestLagSumOracles:
    def test_closed_form_spectrum_referee(self):
        # E_s against the ansatz surface's 0.024931467378 (measured 1.8e-11
        # off), E_v against GOLDEN_E_V (3.1e-12)
        e_s, e_v = closed_form_spectrum_energies(GOLDEN_CS, GOLDEN_A)
        assert e_s == pytest.approx(0.024931467378, rel=1e-10, abs=0.0)
        assert e_v == pytest.approx(GOLDEN_E_V, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("l, c", [(0.1, 0.5), (0.3, 1e-2), (0.1, 1e-2), (0.1, 1e-6), (0.1, 1e-12)])
    def test_within_h2_of_closed_form_spectrum(self, l, c):
        # the sections where the 2-D panel oracle refused (too few panels
        # across at 0.1 x 0.5, axial cells of 17 (2d) at 0.3 x 1e-2) and the
        # point-value volume oracle refused (h = 25 d at 0.1 x 1e-2, 2.5e5 d
        # at 0.1 x 1e-6); measured at N = 2049 and 8193: raw E_s -3.1e-6 and
        # -2.1e-7 at most, its Richardson value -4.5e-7 at most, E_v -5.1e-5
        # and -3.2e-6 at most, each h^2 bound 16 times tighter at 8193
        cs = CrossSection(l=l, d=c * l)
        e_s, e_v = closed_form_spectrum_energies(cs, GOLDEN_A)
        for n_nodes, bound in ((2049, 1.0), (8193, 1.0 / 16.0)):
            p = sample_wall(GOLDEN_WALL, GOLDEN_L, n_nodes)
            assert abs(e_s_boundary_oracle(p, cs) / e_s - 1.0) <= 5e-6 * bound
            assert abs(e_v_volume_oracle(p, cs) / e_v - 1.0) <= 1e-4 * bound
        extrapolated, _ = richardson_boundary_oracle(sample_wall(GOLDEN_WALL, GOLDEN_L, 2049), cs)
        assert abs(extrapolated / e_s - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "l, d, expected", [(0.1, 0.05, 2.0036953923065e-4), (1e-3, 1e-5, 1.75936972165857e-15),
                           (1e-3, 1e-9, 1.76135417433156e-23)]
    )
    def test_grid_free_e_v_referees_agree(self, l, d, expected):
        # the real-space referee against the closed-form spectrum: 1.8e-13 apart
        cs = CrossSection(l=l, d=d)
        value = grid_free_e_v(cs, GOLDEN_A)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert value == pytest.approx(closed_form_spectrum_energies(cs, GOLDEN_A)[1], rel=1e-12, abs=0.0)

    def test_oracles_and_e_v_exact_give_a_value_or_a_typed_error_over_the_domain(self, tmp_path, capsys):
        # no warning escapes (the suite makes RuntimeWarnings errors).  At l = 6
        # no lag lies past the averaged cells, where the pair function was
        # called on no lags and raised a bare ValueError; at c = 1e-300 the
        # pair integral underflows, which the volume oracle now refuses before
        # any rule runs; at l = 1e300 s/a underflows in the face pair.  At
        # l = 1.7e308, where 2l overflows, the kernel rule warned before the
        # CLI's typed error; E_s returns at c = 1e-300
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, 257)
        path = tmp_path / "wall.csv"
        p.to_csv(path)
        values, printed = 0, 0
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (1e-300, 1e-3, 1.0, 6.0, 1e300, 1.7e308):
                for c in (1.0, 1e-2, 1e-300):
                    if c * l == 0.0:  # d underflows: not a cross-section
                        continue
                    cs = CrossSection(l=l, d=c * l)
                    for oracle in (e_s_boundary_oracle, e_v_volume_oracle):
                        try:
                            value = oracle(p, cs)
                        except WallscaleError:
                            continue
                        assert quad._TINY <= value < math.inf
                        values += 1
                    code = cli.run(["energy", "full", "--profile", str(path), "--l", repr(cs.l), "--d", repr(cs.d),
                                    "--e-v-exact"])
                    assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
                    printed += code == cli.EXIT_OK
            # at the top of the double range the unit spacing h/l is subnormal, and 0.5/h overflowed
            with pytest.raises(QuadratureError, match="not finite"):
                e_v_volume_oracle(p, CrossSection(l=1.7e308, d=1.7e308))
        capsys.readouterr()
        assert time.perf_counter() - start < 5.0
        assert (values, printed) == (12, 6)

    def test_work_counts(self, monkeypatch, standard_wall_profile):
        # counts, unlike seconds, do not depend on the host: E_s needs no
        # section pair integral, and the golden E_v takes F at 60 lag-0
        # nodes, 600 nodes of the cells out to 10 l and 2009 far lags
        counted = []
        pair = magnetostatics._section_pair_green
        monkeypatch.setattr(
            magnetostatics, "_section_pair_green", lambda cs, s: counted.append(s.size) or pair(cs, s)
        )
        e_s_boundary_oracle(standard_wall_profile, GOLDEN_CS)
        assert counted == []
        e_v_volume_oracle(standard_wall_profile, GOLDEN_CS)
        assert sum(counted) <= 2669


class TestFullEnergy:
    def test_uniform_profile_has_no_wall_energy(self):
        p = uniform_bulk_profile()
        br = full_energy(p, GOLDEN_CS)
        assert br.exchange == 0.0
        assert br.e_s == 0.0

    def test_recovery_profile_rescaled_gap(self):
        cs = CrossSection(l=1e-3, d=1e-6)
        lam = RescalingParams.from_cross_section(cs).lam
        wall = ClosedFormWall(alpha=1.0 / (math.pi * lam * lam), beta=1.0, theta=0.0)
        p = sample_wall(wall, 15.0 * SQRT_PI * lam, 4097)
        br = full_energy(p, cs)
        gap = br.rescaled_upper - 16.0 / SQRT_PI
        ln_abs = abs(math.log(cs.c))
        assert gap <= 10.0 / ln_abs + 2.0 * math.sqrt(cs.l * cs.d * ln_abs)
        assert gap > 0.0

    def test_homogeneity_in_cross_section_area(self):
        lam = RescalingParams.from_cross_section(CrossSection(l=1e-3, d=1e-7)).lam
        wall = ClosedFormWall(alpha=1.0 / (math.pi * lam * lam), beta=1.0, theta=0.0)
        p = sample_wall(wall, 15.0 * SQRT_PI * lam, 2049)
        br1 = full_energy(p, CrossSection(l=1e-3, d=1e-7))
        br2 = full_energy(p, CrossSection(l=1e-4, d=1e-8))
        area_factor = 1e-2
        assert br2.exchange == pytest.approx(area_factor * br1.exchange, rel=1e-6)
        assert br2.e_s == pytest.approx(area_factor * br1.e_s, rel=1e-3)
        mu1 = RescalingParams.from_cross_section(CrossSection(l=1e-3, d=1e-7)).mu
        mu2 = RescalingParams.from_cross_section(CrossSection(l=1e-4, d=1e-8)).mu
        rescaled1 = (br1.exchange + br1.e_s) / mu1
        rescaled2 = (br2.exchange + br2.e_s) / mu2
        assert rescaled2 == pytest.approx(rescaled1, rel=1e-3)

    def test_square_section_has_no_rescaled_total(self, standard_wall_profile):
        # lambda = 1/sqrt(c |ln c|) is undefined at c = 1, so there is no rescaled total
        br = full_energy(standard_wall_profile, CrossSection(l=0.1, d=0.1))
        assert br.rescaled_upper is None and br.e_v_exact is None
        assert br.total_upper == br.exchange + br.e_s + br.e_v_bound > 0.0

    @pytest.mark.parametrize("name", ["exchange", "e_s", "e_v_bound", "e_v_exact", "total_upper", "rescaled_upper"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_breakdown_refuses_non_finite_fields(self, name, value):
        # total_upper and total_upper/mu can overflow when every part is finite
        parts = dict(exchange=1.0, e_s=1.0, e_v_bound=0.1, e_v_exact=0.05, total_upper=2.1, rescaled_upper=1.0)
        EnergyBreakdown(**parts)
        with pytest.raises(WallscaleError, match="not finite"):
            EnergyBreakdown(**{**parts, name: value})

    def test_breakdown_invariants(self, standard_wall_profile):
        br = full_energy(standard_wall_profile, GOLDEN_CS, include_e_v_exact=True)
        assert br.exchange >= 0 and br.e_s >= 0 and br.e_v_bound >= 0
        assert br.e_v_exact is not None and br.e_v_exact <= br.e_v_bound
        assert br.total_upper == br.exchange + br.e_s + br.e_v_bound
        with pytest.raises(ValueError):
            EnergyBreakdown(
                exchange=1.0, e_s=1.0, e_v_bound=0.1, e_v_exact=0.2, total_upper=2.1, rescaled_upper=1.0
            )


def _perturbed_profile(base: Profile1D, seed: int, amplitude: float = 0.15) -> Profile1D:
    rng = np.random.default_rng(seed)
    x = base.x
    window = np.exp(-((x / (0.6 * x[-1])) ** 8))
    bump2 = np.zeros_like(x)
    bump3 = np.zeros_like(x)
    for _ in range(3):
        center = rng.uniform(-0.4 * x[-1], 0.4 * x[-1])
        width = rng.uniform(0.5, 2.0)
        bump2 += rng.uniform(-amplitude, amplitude) * np.exp(-(((x - center) / width) ** 2))
        center = rng.uniform(-0.4 * x[-1], 0.4 * x[-1])
        bump3 += rng.uniform(-amplitude, amplitude) * np.exp(-(((x - center) / width) ** 2))
    m = base.m.copy()
    m[:, 1] += window * bump2
    m[:, 2] += window * bump3
    m /= np.linalg.norm(m, axis=1)[:, None]
    m[0] = [-1.0, 0.0, 0.0]
    m[-1] = [1.0, 0.0, 0.0]
    return Profile1D(x, m)


class TestLipschitz:
    def test_identical_profiles(self, standard_wall_profile):
        report = emag_lipschitz_check(standard_wall_profile, standard_wall_profile, GOLDEN_CS)
        assert report.norm_omega == 0.0
        assert report.emag_1 == report.emag_2
        assert report.passed

    def test_rotation_on_square_section(self):
        cs = CrossSection(l=0.05, d=0.05)
        base = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.0), 25.0, 1025)
        rotated = sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.7), 25.0, 1025)
        report = emag_lipschitz_check(base, rotated, cs)
        # equal channel kernels at l = d make the energy rotation-invariant
        assert abs(report.emag_1 - report.emag_2) <= 1e-10
        assert report.passed

    def test_seeded_random_pairs(self):
        base = sample_wall(GOLDEN_WALL, GOLDEN_L, 513)
        for seed in range(20):
            p1 = _perturbed_profile(base, seed=2 * seed)
            p2 = _perturbed_profile(base, seed=2 * seed + 1)
            report = emag_lipschitz_check(p1, p2, GOLDEN_CS)
            assert report.passed, f"seed {seed}: {report}"

    def test_grid_mismatch_rejected(self, standard_wall_profile):
        other = sample_wall(GOLDEN_WALL, GOLDEN_L, 1025)
        with pytest.raises(ValueError):
            emag_lipschitz_check(standard_wall_profile, other, GOLDEN_CS)
