import csv
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from wallscale import (
    CrossSection,
    a_c,
    a_c_scaling_ratio,
    b_c,
    i_kernel,
    lemma32_bounds,
    verify_lemma32,
)
from wallscale import kernels, quad
from wallscale.errors import QuadratureError, WallscaleError
from wallscale.kernels import kernel_batch, volume_kernel_batch

PI_HALF = math.pi / 2.0


def bracket(c: float) -> tuple[float, float]:
    ln_abs = abs(math.log(c))
    return (
        0.5 * c * ln_abs * (1.0 - 5.0 / math.sqrt(ln_abs)),
        0.5 * c * (3.0 - math.log(c)),
    )


def trapezoid_oracle_a1() -> float:
    """Dense composite-trapezoid evaluation of a_c at c=1 over [0, 1e4],
    Richardson-refined once; tail beyond 1e4 is below 2.5e-9."""

    def value(n: int) -> float:
        total = 0.0
        edges = np.linspace(0.0, 1e4, 11)
        for left, right in zip(edges[:-1], edges[1:]):
            t = np.linspace(left, right, n + 1)
            f = np.empty_like(t)
            nz = t > 0
            f[nz] = (np.sin(t[nz]) / t[nz]) ** 2 * (-np.expm1(-2.0 * t[nz]) / (2.0 * t[nz]))
            f[~nz] = 1.0
            total += np.trapezoid(f, t)
        return total

    coarse, fine = value(1_000_000), value(2_000_000)
    return fine + (fine - coarse) / 3.0


class TestAC:
    def test_reference_at_c1(self):
        oracle = trapezoid_oracle_a1()
        assert a_c(1.0) == pytest.approx(oracle, abs=1e-7)

    def test_large_c_approaches_pi_half_from_below(self):
        v = a_c(100.0)
        assert v < PI_HALF
        # deviation is ~1.9% of pi/2 at c=100 and shrinks with c
        assert PI_HALF - v <= 0.02 * PI_HALF
        assert PI_HALF - a_c(1000.0) < PI_HALF - v

    def test_tiny_c_lies_in_two_sided_bracket(self):
        for c in (1e-12, 1e-14):
            lo, hi = bracket(c)
            v = a_c(c)
            assert lo <= v <= hi, (c, lo, v, hi)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            a_c(-1.0)
        with pytest.raises(ValueError):
            a_c(0.0)

    def test_strictly_increasing_on_log_grid(self):
        grid = np.geomspace(1e-12, 1e3, 40)
        values = [a_c(float(c)) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < PI_HALF for v in values)

    def test_complementarity_identity(self):
        # a_c + a_{1/c} = pi/2: summing the two zero-frequency kernels makes
        # (1/y^2 + 1/z^2)/(y^2+z^2) = 1/(y^2 z^2) and the double integral factorizes
        for c in (1.0, 3.7, 0.02):
            assert a_c(c) + a_c(1.0 / c) == pytest.approx(PI_HALF, abs=1e-7)


class TestBC:
    def test_identity_at_c1(self):
        assert b_c(1.0) == a_c(1.0)

    def test_reciprocal_small_c(self):
        assert b_c(0.01) == a_c(100.0)
        assert PI_HALF - b_c(0.01) <= 0.02 * PI_HALF

    def test_reciprocal_large_c(self):
        v = b_c(1e12)
        assert v == a_c(1e-12)
        lo, hi = bracket(1e-12)
        assert lo <= v <= hi


def oracle_i_2d(l: float, d: float, x: float, window: float, step: float = 0.5) -> float:
    """Dense tensor-grid trapezoid of the plane integral
    sin^2(d y) sin^2(l z) / (y^2 (x^2+y^2+z^2)) over [0, window]^2, times 4."""
    n = int(window / step) + 1
    y = np.linspace(0.0, window, n)
    z = np.linspace(0.0, window, n)
    fy = np.empty_like(y)
    fy[1:] = np.sin(d * y[1:]) ** 2 / y[1:] ** 2
    fy[0] = d * d
    fz = np.sin(l * z) ** 2
    wy = np.ones(n)
    wy[0] = wy[-1] = 0.5
    wz = wy
    total = 0.0
    chunk = 512
    for i0 in range(0, n, chunk):
        yy = y[i0 : i0 + chunk]
        denom = x * x + yy[:, None] ** 2 + z[None, :] ** 2
        block = (fy[i0 : i0 + chunk, None] * fz[None, :]) / denom
        total += float(np.einsum("i,ij,j->", wy[i0 : i0 + chunk], block, wz))
    h = y[1] - y[0]
    return 4.0 * total * h * h


class TestIKernel:
    CS = CrossSection(l=0.1, d=0.01)

    def test_zero_frequency_reductions(self):
        pref = 2.0 * math.pi * self.CS.l * self.CS.d
        assert i_kernel(self.CS, True, 0.0) == pref * a_c(self.CS.c)
        assert i_kernel(self.CS, False, 0.0) == pref * b_c(self.CS.c)

    def test_against_2d_tensor_oracle(self):
        # truncation error decays like 1/window; one window-Richardson stage
        # brings the plane-integral oracle to ~0.01 percent
        v2 = oracle_i_2d(0.1, 0.01, 5.0, 2000.0)
        v4 = oracle_i_2d(0.1, 0.01, 5.0, 4000.0)
        oracle = 2.0 * v4 - v2
        assert i_kernel(self.CS, True, 5.0) == pytest.approx(oracle, rel=0.01)

    def test_even_in_frequency(self):
        assert i_kernel(self.CS, True, 3.0) == i_kernel(self.CS, True, -3.0)
        assert i_kernel(self.CS, False, 7.0) == i_kernel(self.CS, False, -7.0)

    def test_nonincreasing_in_frequency(self):
        values = [i_kernel(self.CS, True, x) for x in (0.0, 1.0, 5.0, 20.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(v > 0.0 for v in values)

    def test_m3_channel_never_cheaper(self):
        cs = CrossSection(l=0.1, d=0.05)
        for x in (0.0, 1.0, 5.0):
            assert i_kernel(cs, False, x) >= i_kernel(cs, True, x)


class TestLemma32Bounds:
    def test_degenerate_square_section(self):
        cs = CrossSection(l=1.0, d=1.0)
        b = lemma32_bounds(cs)
        assert b.upper_ii == pytest.approx(3.0 * math.pi)
        assert b.lower_iii == 0.0
        assert b.vacuous

    def test_extreme_ratio_positive_lower_bound(self):
        cs = CrossSection(l=0.1, d=1e-13)
        b = lemma32_bounds(cs)
        assert abs(math.log(cs.c)) > 25.0
        assert b.lower_iii > 0.0
        assert not b.vacuous
        assert b.lower_iii <= b.upper_i
        assert b.lower_iii <= b.upper_ii

    def test_moderate_ratio_vacuous_lower_bound(self):
        cs = CrossSection(l=0.1, d=0.01)
        b = lemma32_bounds(cs)
        assert b.lower_iii < 0.0
        assert b.vacuous
        assert b.upper_i > 0.0 and b.upper_ii > 0.0


class TestVerifyLemma32:
    def test_moderate_section_passes(self):
        cs = CrossSection(l=0.1, d=0.01)
        inv_l = 1.0 / cs.l
        report = verify_lemma32(cs, [0.0, 1.0, -1.0, inv_l, -inv_l])
        assert report.passed
        assert len(report.samples) == 5
        assert report.failures() == []

    def test_square_section_lower_bound_vacuous(self):
        cs = CrossSection(l=1.0, d=1.0)
        report = verify_lemma32(cs, [0.0, 0.4, 2.0])
        assert report.passed
        assert report.bounds.vacuous

    def test_extreme_section_lower_bound_active(self):
        cs = CrossSection(l=0.05, d=5e-13)
        report = verify_lemma32(cs, [0.0, 10.0, -10.0])
        assert not report.bounds.vacuous
        for s in report.samples:
            assert s.lower_margin is not None and s.lower_margin >= 0.0
        assert report.passed

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma32(CrossSection(l=1.0, d=0.5), [])


class TestScalingRatio:
    def test_deviation_from_half_decreases(self):
        ratios = [a_c_scaling_ratio(c) for c in (1e-4, 1e-8, 1e-12)]
        devs = [abs(r - 0.5) for r in ratios]
        assert devs[0] > devs[1] > devs[2]

    def test_transported_bounds_at_1e12(self):
        r = a_c_scaling_ratio(1e-12)
        ln_abs = abs(math.log(1e-12))
        assert r <= (3.0 + ln_abs) / (2.0 * ln_abs)
        assert r >= 0.5 * (1.0 - 5.0 / math.sqrt(ln_abs))

    def test_domain(self):
        with pytest.raises(ValueError):
            a_c_scaling_ratio(1.5)


class TestCrossSection:
    def test_aspect_ratio_consistency(self):
        cs = CrossSection(l=0.3, d=0.12)
        assert cs.c == cs.d / cs.l

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CrossSection(l=0.1, d=0.2)
        with pytest.raises(ValueError):
            CrossSection(l=0.1, d=0.0)

    def test_underflowing_aspect_ratio_raises_typed_error(self):
        # d/l = 1e-448 rounds to 0.0: a_c raised a bare ValueError for it, and
        # RescalingParams a math-domain one that rate_sweep logged with a traceback
        with pytest.raises(WallscaleError, match="underflows"):
            CrossSection(l=1e150, d=1e-298)

    def test_subnormal_aspect_ratio_constructs_and_kernels_refuse_it(self):
        cs = CrossSection(l=1.0, d=5e-324)
        assert cs.c == 5e-324
        with pytest.raises(QuadratureError):
            kernel_batch(cs, False, [1.0])
        with pytest.raises(QuadratureError):
            volume_kernel_batch(cs, [1.0])


class TestClosedFormRange:
    @pytest.mark.parametrize("c", [1e4, 1e5, 1e6, 1e7])
    def test_a_c_returns_at_large_aspect_ratio(self, c):
        # pi/2 - a_c = a_{1/c} must sit in the small-c bracket
        lo, hi = bracket(1.0 / c)
        assert lo <= PI_HALF - a_c(c) <= hi

    @pytest.mark.parametrize("k", [0.0, 1.0, 100.0])
    def test_thin_m3_channel_returns(self, k):
        v = i_kernel(CrossSection(l=1e-3, d=1e-7), False, k)
        assert math.isfinite(v) and v > 0.0


def load_kernel_refs() -> list[tuple[float, float, bool, float, float]]:
    """(l, d, swap, k, I) rows written by scripts/make_kernel_refs.py."""
    with open(Path(__file__).parent / "data" / "kernel_refs.csv") as fh:
        return [
            (float(r["l"]), float(r["d"]), r["swap"] == "True", float(r["k"]), float(r["value"]))
            for r in csv.DictReader(fh)
        ]


def load_volume_kernel_refs() -> list[tuple[float, float, float, float]]:
    """(l, d, k, K) rows written by scripts/make_kernel_refs.py."""
    with open(Path(__file__).parent / "data" / "volume_kernel_refs.csv") as fh:
        return [
            (float(r["l"]), float(r["d"]), float(r["k"]), float(r["value"]))
            for r in csv.DictReader(fh)
        ]


class TestKernelBatch:
    def test_matches_mpmath_references(self):
        rows = load_kernel_refs()
        assert len(rows) >= 150
        rel_errors = []
        for l, d, swap, k, ref in rows:
            cs = CrossSection(l=l, d=d)
            value = i_kernel(cs, swap, k)
            _, (error,) = kernel_batch(cs, swap, [k])
            true_error = abs(value - ref)
            assert true_error <= 1e-14 * ref, (l, d, swap, k, value, ref)
            assert true_error <= error, (l, d, swap, k, true_error, error)
            rel_errors.append(true_error / ref)
        # a truncated rule constant would bias every row by a few 1e-15
        assert float(np.median(rel_errors)) <= 5e-16

    @pytest.mark.parametrize("cs", [CrossSection(l=0.1, d=0.05), CrossSection(l=1e-3, d=1e-9)])
    @pytest.mark.parametrize("swap", [True, False])
    def test_batch_size_and_order_do_not_change_values(self, cs, swap):
        rng = np.random.default_rng(7)
        ks = np.concatenate([[0.0, -0.0], rng.normal(0.0, 30.0, 45), np.geomspace(1e-6, 1e7, 12)])
        single = np.array([kernel_batch(cs, swap, [k])[0][0] for k in ks])
        for size in (2, 7, 16, 17, ks.size):
            order = rng.permutation(ks.size)
            for start in range(0, ks.size, size):
                idx = order[start : start + size]
                values, _ = kernel_batch(cs, swap, ks[idx])
                assert np.array_equal(values, single[idx])

    @pytest.mark.parametrize(
        "l, d, swap, k, ref",
        [
            # 30-digit references from reference() in scripts/make_kernel_refs.py;
            # on the three thin m3-channel rows the Kronrod rule is 1.3e-14,
            # 9.5e-15 and 8.9e-15 off, as its K0(k u) - K0(k r) cancels ln(k u)
            (0.4067686476293595, 4.837358055803282e-13, False, 0.0020795732687521455, 1.942027840281081e-12),
            (0.0011185454495727409, 3.4662411431705776e-13, False, 0.011144045005592497, 3.8265919420704145e-15),
            (0.10835373627039399, 2.394409334246475e-09, False, 4.748250500363349e-08, 2.560601379621015e-09),
            (0.001, 1e-05, True, 449.9775016873594, 1.8346199481580501e-09),
            (1.0, 1.0, True, 0.35319983720268044, 4.406982981132753),
        ],
    )
    def test_series_branch_matches_mpmath(self, l, d, swap, k, ref):
        (value,), (error,) = kernel_batch(CrossSection(l=l, d=d), swap, [k])
        assert abs(value - ref) <= 1e-15 * ref
        assert abs(value - ref) <= error

    @pytest.mark.parametrize("d", [1e-160, 1e-200, 1e-290])
    def test_rule_on_a_very_thin_m3_channel(self, d):
        # I(l, d, k) = I(0)(1 - O(k d)) here; forming 4 d^2 in the rule's
        # sqrt(u^2 + 4 d^2) - u underflowed and gave 6e-12 I(0) at d = 1e-200
        values, _ = kernel_batch(CrossSection(l=1.0, d=d), False, [0.0, 2.0, 100.0])
        assert np.all(np.abs(values / values[0] - 1.0) <= 1e-13)

    def test_rule_nodes_whose_k_u_underflows(self):
        # k u underflows to 0 at the rule's smallest nodes (u down to 1e-24):
        # ln(k u) divided by zero, warned and gave an infinite kernel value;
        # it is ln k + ln u, under the suite's error::RuntimeWarning
        (value,), (error,) = kernel_batch(CrossSection(l=1e300, d=1e-12), True, [1e-300])
        with mpmath.workdps(40):
            w, s, k = mpmath.mpf(1e-12), mpmath.mpf(1e300), mpmath.mpf(1e-300)

            def f(u):
                return (2 * w - u) * (mpmath.besselk(0, k * u) - mpmath.besselk(0, k * mpmath.hypot(u, 2 * s)))

            ref = float(mpmath.pi / 2 * mpmath.quad(f, [0, w * 2.0**-39, w * 2.0**-19, 2 * w]))
        assert abs(value - ref) <= 1e-15 * ref
        assert error <= 1e-8 * value

    def test_error_estimate_enforces_tolerance(self, monkeypatch):
        cs = CrossSection(l=0.1, d=0.05)
        _, (error,) = kernel_batch(cs, True, [3.0])
        value = i_kernel(cs, True, 3.0)
        assert error <= 1e-9 * value
        monkeypatch.setattr(quad, "_RULE_TOL", 1e-15)
        with pytest.raises(QuadratureError):
            i_kernel(cs, True, 3.0)

    def test_rejects_nonfinite_frequency(self):
        with pytest.raises(ValueError):
            kernel_batch(CrossSection(l=0.1, d=0.05), True, [1.0, math.inf])

    def test_far_branch_does_not_overflow(self):
        # k^2 overflows above |k| ~ 1e154, so the far forms must square 1/k
        cs = CrossSection(l=1.0, d=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,), _ = kernel_batch(cs, False, [1e200])
            assert value == pytest.approx(4.934802200544679e-200, rel=1e-15, abs=0.0)
            with pytest.raises(QuadratureError, match="normal range"):
                volume_kernel_batch(cs, [1e200])

    def test_rule_at_subnormal_node_arguments(self):
        # k u is subnormal at the rule's lowest nodes, where 1/(k u) overflows
        cs = CrossSection(l=1e300, d=1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,), (error,) = kernel_batch(cs, True, [1e-300])
        assert 0.0 < value <= 2.0 * math.pi * cs.l * cs.d * a_c(cs.c)
        assert error <= 1e-8 * value

    @pytest.mark.parametrize("l, d, k", [(1e300, 1e-5, 1e-300), (1e300, 1e300, 1.0)])
    def test_rule_on_a_very_wide_section_raises_typed_error(self, l, d, k):
        # the rule's weights (2w - u) du overflowed with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="double range"):
                kernel_batch(CrossSection(l=l, d=d), False, [k])

    def test_far_asymptote_on_a_very_wide_section_raises_before_it_overflows(self):
        # pi w/k overflowed with three RuntimeWarnings before the w > 1e150 check
        with pytest.raises(QuadratureError, match="double range"):
            i_kernel(CrossSection(l=1e175, d=1e175), True, 1e-172)

    @pytest.mark.parametrize("l, d, k", [(1e300, 1e-3, 1e-3), (1e300, 1.0, 1e3), (1e100, 1e51, 1e-60)])
    def test_volume_rule_on_a_very_wide_section_raises_typed_error(self, l, d, k):
        # K ~ l^2 d^2 leaves the double range, and the l channel's rule weights overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="double range"):
                volume_kernel_batch(CrossSection(l=l, d=d), [k])

    def test_volume_rule_at_the_edge_of_the_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,), (error,) = volume_kernel_batch(CrossSection(l=1e150, d=1e-3), [1.0])
        assert math.isfinite(value) and 0.0 < error <= 1e-8 * value

    def test_volume_matches_mpmath_references(self):
        rows = load_volume_kernel_refs()
        assert len(rows) >= 12
        for l, d, k, ref in rows:
            (value,), (error,) = volume_kernel_batch(CrossSection(l=l, d=d), [k])
            true_error = abs(value - ref)
            assert true_error <= 1e-15 * ref, (l, d, k, value, ref)
            assert true_error <= error, (l, d, k, true_error, error)

    @pytest.mark.parametrize("cs", [CrossSection(l=0.1, d=0.05), CrossSection(l=0.05, d=0.05)])
    def test_volume_kernel_completes_the_demag_trace(self, cs):
        # K k^2 + I(l,d,k) + I(d,l,k) = pi^2 l d; the sum cancels where K k^2
        # is small, so only frequencies carrying 1% of the trace are checked
        ks = np.geomspace(5.0, 5000.0, 61)
        volume, _ = volume_kernel_batch(cs, ks)
        trace = math.pi**2 * cs.l * cs.d
        total = volume * ks**2 + kernel_batch(cs, False, ks)[0] + kernel_batch(cs, True, ks)[0]
        checked = volume * ks**2 >= 0.01 * trace
        assert checked.sum() >= 40
        assert np.all(np.abs(total[checked] - trace) <= 1e-12 * trace)

    @pytest.mark.parametrize("cs", [CrossSection(l=0.1, d=0.05), CrossSection(l=1e-3, d=1e-9)])
    def test_volume_batch_size_and_order_do_not_change_values(self, cs):
        rng = np.random.default_rng(11)
        ks = np.concatenate([rng.normal(0.0, 30.0, 40), np.geomspace(1e-6, 1e12, 14)])
        single = np.array([volume_kernel_batch(cs, [k])[0][0] for k in ks])
        for size in (2, 16, 17, ks.size):
            order = rng.permutation(ks.size)
            for start in range(0, ks.size, size):
                idx = order[start : start + size]
                values, _ = volume_kernel_batch(cs, ks[idx])
                assert np.array_equal(values, single[idx])

    def test_volume_error_estimate_enforces_tolerance(self, monkeypatch):
        cs = CrossSection(l=0.1, d=0.05)
        (value,), (error,) = volume_kernel_batch(cs, [3.0])
        assert error <= 1e-9 * value
        monkeypatch.setattr(quad, "_RULE_TOL", 1e-15)
        with pytest.raises(QuadratureError):
            volume_kernel_batch(cs, [3.0])

    def test_estimates_keep_headroom_under_the_rule_tolerance(self):
        # quad._RULE_TOL = 1e-9 holds every rule; both kernels estimate at most
        # 3.3e-11 of their values here, on 60 frequencies from 1e-8/l to 1e8/l
        for l in (1e-3, 1.0, 100.0):
            for c in (1.0, 1e-2, 1e-6, 1e-12, 1e-100):
                cs = CrossSection(l=l, d=c * l)
                ks = np.geomspace(1e-8, 1e8, 60) / l
                for values, errors in (kernel_batch(cs, False, ks), kernel_batch(cs, True, ks),
                                       volume_kernel_batch(cs, ks)):
                    assert np.all(errors <= 1e-10 * values), (l, c)

    @pytest.mark.parametrize("cs, most", [(CrossSection(l=0.1, d=0.05), 630), (CrossSection(l=1.0, d=1e-12), 1215)])
    def test_surface_rule_node_gate(self, monkeypatch, cs, most):
        # GK15 nodes per channel of the kernel rule: 630 and 615 on the golden
        # section, 1,215 and 615 at c = 1e-12; counts do not depend on the machine
        sizes = []
        surface_rule = kernels._surface_rule

        def counted(w, s):
            rule = surface_rule(w, s)
            sizes.append(rule[0].size)
            return rule

        monkeypatch.setattr(kernels, "_surface_rule", counted)
        kernel_batch(cs, False, [3.0])
        kernel_batch(cs, True, [3.0])
        volume_kernel_batch(cs, [3.0])
        assert len(sizes) == 4 and max(sizes) <= most

    @pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-214])
    def test_values_below_normal_range_raise(self, c):
        # at l = 1e-3, I(d,l,.) ~ d^2 |ln c| and K ~ l^2 d^2 leave the normal
        # double range near c = 1e-152, where the rule's _ROUNDING term
        # underflows too and every error estimate read 0
        cs = CrossSection(l=1e-3, d=c * 1e-3)
        for ks in ([0.0], [1.0], [1e-3, 1e6]):
            with pytest.raises(QuadratureError, match="normal range"):
                kernel_batch(cs, True, ks)
        with pytest.raises(QuadratureError, match="normal range"):
            volume_kernel_batch(cs, [1.0])
        assert kernel_batch(cs, False, [0.0, 1.0])[0].min() >= np.finfo(float).tiny

    def test_values_just_inside_normal_range_return(self):
        cs = CrossSection(l=1e-3, d=1e-153)
        values, errors = kernel_batch(cs, True, [0.0, 1.0, 100.0])
        assert np.all(values >= np.finfo(float).tiny)
        assert np.all((errors > 0.0) & (errors <= 1e-8 * values))

    @pytest.mark.parametrize("cs", [CrossSection(l=0.1, d=0.05), CrossSection(l=1.0, d=1e-6)])
    def test_volume_kernel_log_slope_at_tiny_frequency(self, cs):
        # K = -2 pi l^2 d^2 ln k + const + O(k^2): (J_l + J_d)/k^2 must not
        # lose K to an underflowing k^2 (k^2 is 1e-600 at k = 1e-300)
        values, errors = volume_kernel_batch(cs, [1e-300, 1e-200])
        slope = (values[0] - values[1]) / (100.0 * math.log(10.0))
        assert slope == pytest.approx(2.0 * math.pi * cs.l**2 * cs.d**2, rel=1e-13, abs=0.0)
        assert np.all(errors <= 1e-8 * values)

    @pytest.mark.parametrize("k", [math.inf, math.nan, 0.0])
    def test_volume_rejects_nonfinite_or_zero_frequency(self, k):
        with pytest.raises(ValueError):
            volume_kernel_batch(CrossSection(l=0.1, d=0.05), [1.0, k])


# (z, dz): the H series with L = log1p(dz/z) for z + dz <= 2, from 1e-20
# (subnormal z counts as the smallest normal one); L minus the trapezoid rule
# for z >= 2, with its far form K0(z) - K0(z + dz) where dz > z; and the sum
# of both pieces for rows across 2, from just below it to far above
H_GAP_ROWS = [
    (1.0, 1e-20), (0.5, 1e-12), (1e-3, 1e-11), (0.3, 3e-9), (1e-3, 1e-3), (1e-10, 1.0),
    (1e-304, 1.0), (0.2, 1.7), (1.5e-300, 1.9), (1.8, 0.2),
    (0.3, 5.0), (0.9, 1.2), (1e-8, 30.0), (1.99, 0.02), (0.5, 1.6),
    (1.0, 0.04), (1.5, 0.01), (700.0, 1e-3), (50.0, 1.0), (1.0, 3.0), (3.0, 10.0), (2.0, 1e-12),
    (1e-310, 1.5), (5e-320, 3.0), (2e-315, 1e-3),
]

# (z, dz) for K0(z) - K0(z + dz): just above the old switch from a K1 rule
# to the direct difference, dz (z + 1) = 0.05 z, and at single nodes where
# that difference lost up to 1e-13; the split at 1 and z + dz = 2 exactly;
# dz from 1e-14 z to 1e3, with (2, 16) where a trapezoid step of 1/4 was
# 2.6e-15 off; and subnormal z, which the direct difference took to 3e-12
K0_GAP_ROWS = [
    *((z, 0.0505 * z / (z + 1.0)) for z in (0.05, 0.2, 0.5, 0.9, 1.0, 1.5, 2.0)),
    (666.19, 0.314), (700.0, 1e-3), (700.0, 1.0), (2.0, 1e-12), (1.5, 0.5), (0.75, 1.25),
    (1.0, 1e-14), (0.999, 0.002), (3.0, 3e-14), (2.0, 16.0), (1.2, 5.0), (0.3, 10.0), (1e-20, 1e3),
    (2e-315, 1e-3), (1e-310, 1.5), (5e-320, 3.0),
]


class TestK0Gap:
    def test_h_gap_matches_mpmath(self):
        # H(t) = K0(t) + ln t; the volume kernel's rule integrates H(k r) - H(k u)
        z, dz = np.array(H_GAP_ROWS).T
        gaps = kernels._k0_gap(1.0, z, dz, True)  # under the suite's error::RuntimeWarning
        for (zi, dzi), gap in zip(H_GAP_ROWS, gaps):
            with mpmath.workdps(50 + max(0, int(-2.0 * math.log10(zi + dzi)))):
                a, b = mpmath.mpf(zi), mpmath.mpf(zi) + mpmath.mpf(dzi)
                ref = float(mpmath.besselk(0, b) + mpmath.log(b) - mpmath.besselk(0, a) - mpmath.log(a))
            assert abs(gap - ref) <= 2e-15 * ref, (zi, dzi, gap, ref)

    def test_k0_gap_matches_mpmath(self):
        # the surface kernel's rule integrates K0(k u) - K0(k r)
        z, dz = np.array(K0_GAP_ROWS).T
        gaps = kernels._k0_gap(1.0, z, dz)
        for (zi, dzi), gap in zip(K0_GAP_ROWS, gaps):
            with mpmath.workdps(50):
                a, b = mpmath.mpf(zi), mpmath.mpf(zi) + mpmath.mpf(dzi)
                ref = float(mpmath.besselk(0, a) - mpmath.besselk(0, b))
            assert abs(gap - ref) <= 2e-15 * ref, (zi, dzi, gap, ref)
