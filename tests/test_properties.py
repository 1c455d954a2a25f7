"""Property tests of the kernels and the ansatz energy on drawn inputs.

derandomize=True fixes the examples, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wallscale import CrossSection, KernelCache, a_c, b_c, verify_lemma32
from wallscale.kernels import kernel_batch, volume_kernel_batch
from wallscale.magnetostatics import RescalingParams

from conftest import ansatz_energy, sampled_ansatz_energy

FIXED = settings(derandomize=True, database=None, deadline=None)

log10_c = st.floats(min_value=-300.0, max_value=300.0)


def section(log_l: float, log_c: float) -> CrossSection:
    l = 10.0**log_l
    return CrossSection(l=l, d=l * 10.0**log_c)


sections = st.builds(
    section, st.floats(min_value=-3.0, max_value=0.0), st.floats(min_value=-8.0, max_value=0.0)
)
# c in [1e-12, 1], the range of the rate sweep
thin_sections = st.builds(
    section, st.floats(min_value=-3.0, max_value=0.0), st.floats(min_value=-12.0, max_value=0.0)
)
# frequencies k l, of either sign
scaled_frequencies = st.builds(
    lambda e, sign: sign * 10.0**e, st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([-1.0, 1.0])
)


@FIXED
@given(log10_c, log10_c)
def test_a_c_is_monotone(e1, e2):
    lo, hi = sorted((10.0**e1, 10.0**e2))
    assert a_c(lo) <= a_c(hi)


@FIXED
@given(log10_c)
def test_a_c_and_b_c_sum_to_pi_half(e):
    c = 10.0**e
    assert abs(a_c(c) + b_c(c) - 0.5 * math.pi) <= 1e-15


@FIXED
@given(sections, scaled_frequencies, st.booleans())
def test_kernels_are_even(cs, kl, swap):
    k = kl / cs.l
    values, errors = kernel_batch(cs, swap, [k, -k])
    assert values[0] == values[1] and errors[0] == errors[1]
    volume, _ = volume_kernel_batch(cs, [k, -k])
    assert volume[0] == volume[1]


@FIXED
@given(sections, scaled_frequencies)
def test_trace_identity(cs, kl):
    # k^2 K + I(l,d,k) + I(d,l,k) = pi^2 l d; 400 drawn inputs stay within 5.4e-15
    k = kl / cs.l
    (volume,), _ = volume_kernel_batch(cs, [k])
    (i_ld,), _ = kernel_batch(cs, False, [k])
    (i_dl,), _ = kernel_batch(cs, True, [k])
    trace = math.pi**2 * cs.l * cs.d
    assert abs(k * k * volume + i_ld + i_dl - trace) <= 1e-13 * trace


@FIXED
@given(thin_sections, st.booleans())
def test_kernel_is_nonincreasing_in_frequency(cs, swap):
    # d/dk [K0(k u) - K0(k r)] = [(k r) K1(k r) - (k u) K1(k u)]/k <= 0 for
    # r >= u, as t K1(t) decreases (DLMF 10.29.4), so I decreases in |k|
    rho = math.hypot(2.0 * cs.l, 2.0 * cs.d)
    values, _ = kernel_batch(cs, swap, np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 91) / rho]))
    assert np.all(np.diff(values) <= 1e-14 * values[0])


@FIXED
@given(
    st.floats(min_value=-4.0, max_value=1.0),
    st.floats(min_value=-14.0, max_value=0.0),
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4),
    st.lists(st.floats(min_value=-6.0, max_value=3.0), max_size=4),
)
def test_lemma32_bounds_hold(log_l, log_c, near, far):
    # x l in [-3, 3] and 10^[-6, 3]; a 400-section scan found no failure
    cs = section(log_l, log_c)
    xs = [t / cs.l for t in near] + [10.0**e / cs.l for e in far]
    assert verify_lemma32(cs, xs).passed


@settings(FIXED, max_examples=20)
@given(st.floats(min_value=-12.0, max_value=-2.0), st.floats(min_value=0.5, max_value=2.0))
def test_closed_form_ansatz_energy_bounds_sampled_value(log_c, factor):
    # the sampled exchange is h^2 low, so the exact energy lies above the grid value
    cs = CrossSection(l=1e-3, d=1e-3 * 10.0**log_c)
    s = factor * RescalingParams.from_cross_section(cs).lam
    assert ansatz_energy(cs, s) >= sampled_ansatz_energy(cs, s, 4097, KernelCache(cs))
