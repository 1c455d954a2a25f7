import math

import numpy as np
import pytest

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
    full_energy,
    i_kernel,
    sample_wall,
    spectrum,
)
from wallscale.errors import ResolutionError, WallscaleError
from wallscale.magnetostatics import e_v_volume_oracle, offset_m1, richardson_boundary_oracle
from wallscale.walls import profile_derivative, transverse_integrals

from conftest import GOLDEN_CS, GOLDEN_WALL, GOLDEN_L, GOLDEN_N, load_golden

SQRT_PI = math.sqrt(math.pi)


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
        assert params.lam * params.mu == pytest.approx(cs.l * cs.d, rel=5e-16)
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
        assert spec.dk == pytest.approx(math.pi / GOLDEN_L, rel=1e-12)
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
        assert e_s_boundary_oracle(p, GOLDEN_CS, (128, 8)) == 0.0

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
        assert abs(value - extrapolated) / extrapolated <= 0.02
        assert raw[0] > raw[1] > raw[2] > 0.0  # O(h) convergence from above

    @pytest.mark.parametrize(
        "theta, raw, extrapolated",
        [
            (
                0.0,
                [0.03573229831577866, 0.030728430060929963, 0.02792842754964718],
                0.024929712782458775,
            ),
            (
                math.pi / 2,
                [0.05723808516150555, 0.051892713600078855, 0.048963964719820036],
                0.0458645071065309,
            ),
        ],
    )
    def test_richardson_oracle_pinned(self, theta, raw, extrapolated):
        # the golden file holds only a 2% tolerance; these pins catch any
        # drift of the oracle itself (m2 faces at theta = 0, m3 at pi/2)
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=theta)
        got, got_raw = richardson_boundary_oracle(sample_wall(wall, GOLDEN_L, GOLDEN_N), GOLDEN_CS)
        assert got_raw == pytest.approx(raw, rel=1e-13)
        assert got == pytest.approx(extrapolated, rel=1e-13)

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
        t2, _ = transverse_integrals(p)
        bound = (4.0 / math.pi) * cs.l * cs.d * cs.c * (abs(math.log(cs.c)) + 3.0) * t2
        value = e_s_spectral(p, cs)
        assert 0.0 < value <= bound

    def test_oracle_resolution_flag(self, standard_wall_profile):
        with pytest.raises(ResolutionError):
            e_s_boundary_oracle(standard_wall_profile, GOLDEN_CS, (16, 2))

    def test_oracle_m3_family_mirrors_m2_on_square_section(self):
        # at l = d the theta = pi/2 wall is the theta = 0 wall reflected, so
        # the z-face family must reproduce the y-face family exactly
        cs = CrossSection(l=0.05, d=0.05)
        p0 = sample_wall(ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=0.0), 26.0, 1025)
        p90 = sample_wall(
            ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 2), 26.0, 1025
        )
        e0 = e_s_boundary_oracle(p0, cs, (256, 16))
        e90 = e_s_boundary_oracle(p90, cs, (256, 16))
        assert e90 == pytest.approx(e0, rel=1e-12)

    def test_thin_film_m3_channel_is_finite(self):
        # m3-carrying wall at c = 1e-4, where the m3 kernel used to fail
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 4)
        value = e_s_spectral(sample_wall(wall, 26.0, 513), CrossSection(l=1e-3, d=1e-7))
        assert math.isfinite(value) and value >= 0.0

    def test_m3_channel_spectral_matches_oracle(self):
        # the theta = pi/2 wall puts all transverse charge on the z-faces,
        # exercising the swap=False kernel channel end to end
        wall = ClosedFormWall(alpha=1.0 / math.pi, beta=1.0, theta=math.pi / 2)
        p = sample_wall(wall, GOLDEN_L, GOLDEN_N)
        extrapolated, _ = richardson_boundary_oracle(p, GOLDEN_CS)
        value = e_s_spectral(p, GOLDEN_CS)
        assert abs(value - extrapolated) / extrapolated <= 0.02


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
        assert e_v_upper_bound(p, cs) == pytest.approx(expected, rel=1e-14)

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
        assert e_v_upper_bound(p, cs) == pytest.approx(expected, rel=1e-14)

    def test_scaling_trend_at_fixed_aspect_ratio(self, standard_wall_profile):
        p = standard_wall_profile
        values = [
            e_v_upper_bound(p, CrossSection(l=l, d=0.1 * l)) for l in (0.1, 0.01, 0.001)
        ]
        # at fixed c and fixed profile the bound scales like l*d^2 ~ l^3
        assert values[0] / values[1] == pytest.approx(1e3, rel=0.05)
        assert values[1] / values[2] == pytest.approx(1e3, rel=0.05)


class TestVolumeSpectral:
    def test_zero_without_volume_charge(self):
        p = uniform_bulk_profile()
        assert e_v_spectral(p, GOLDEN_CS) == 0.0

    def test_against_volume_oracle(self):
        # the real-space oracle carries an O(h) kink error at zero separation,
        # so the coarse comparison uses the 2049-node grid
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, 2049)
        spectral = e_v_spectral(p, GOLDEN_CS)
        oracle = e_v_volume_oracle(p, GOLDEN_CS)
        assert spectral == pytest.approx(oracle, rel=0.05)

    def test_volume_oracle_pinned(self, standard_wall_profile):
        value = e_v_volume_oracle(standard_wall_profile, GOLDEN_CS)
        assert value == pytest.approx(0.000201134408600817, rel=1e-13)

    @pytest.mark.parametrize("n_nodes", [1025, 2049])
    def test_volume_oracle_rejects_spacing_above_half_width(self, n_nodes):
        # h = 0.05 / 0.025 cannot resolve F on the scale l = 1e-3; unchecked,
        # the lag sum returned 2.90e-14 / 1.51e-14 against a spectral 1.756e-15
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, n_nodes)
        with pytest.raises(ResolutionError):
            e_v_volume_oracle(p, CrossSection(l=1e-3, d=1e-5))

    def test_volume_oracle_rejects_spacing_above_half_of_half_width(self):
        # h = 0.508 l: the lag sum is off its own N = 16385 value by 1.45%
        p = sample_wall(GOLDEN_WALL, GOLDEN_L, 1025)
        with pytest.raises(ResolutionError):
            e_v_volume_oracle(p, GOLDEN_CS)

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
