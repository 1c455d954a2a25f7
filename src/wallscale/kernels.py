"""Magnetostatic kernel functions for a rectangular film cross-section.

The central object is the surface kernel

    I(l, d, x) = 2*pi*l*d * int_0^inf sinc^2(t) * g(2*(d/l)*sqrt(t^2 + l^2 x^2)) dt,

with g(u) = (1 - exp(-u))/u, together with its aspect-ratio specialisations

    a_c = int_0^inf sinc^2(t) * g(2 t / c) dt,        b_c = a_{1/c} = pi/2 - a_c,

and the explicit two-sided closed-form bounds on I(d, l, x).  The kernel
weights the transverse magnetization spectra in the surface-charge energy.

a_c = arctan c + (c/4) ln(1 + 1/c^2) - ln(1 + c^2)/(4c) in closed form.  For
x != 0, I is the Fourier transform of one face pair's 1/r interaction
(DLMF 10.32), with (w, s) = (d, l) for I(d, l, x) and (l, d) for I(l, d, x),

    I = (pi/2) int_0^{2w} (2w - u) [K0(|x| u) - K0(|x| sqrt(u^2 + 4 s^2))] du.

Over the whole cross-section the same transform gives the volume kernel
K = (pi/2) int_0^{2l} int_0^{2d} (2l - u)(2d - v) K0(|x| sqrt(u^2 + v^2)) dv du,
which weights the spectrum of d m1/dx.  By the trace of the demagnetizing
tensor x^2 K = J(l, d, x) + J(d, l, x), J = I(0) - I, so one per-channel
evaluation (_channel) gives both kernels for many x at once: the closed forms
at x = 0, an asymptotic form far out, and at every other x one trapezoid rule
in t, u = 2w sigma(t) with sigma the logistic function, whose |T_h - T_2h|
gives the error estimate, on gaps of K0 from its series and a trapezoid rule
(_k0_gap): no Bessel library call, no scipy.
Each value is returned only when that estimate is within quad._RULE_TOL =
1e-9 of it and it is a finite normal double (quad._check_rule); otherwise
the call raises QuadratureError.

Every function here is pure and reentrant; sweep drivers may call them
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, WallscaleError
from .quad import _TINY, _check_rule

__all__ = [
    "CrossSection",
    "KernelBoundTriple",
    "Lemma32Sample",
    "Lemma32Report",
    "a_c",
    "b_c",
    "i_kernel",
    "kernel_batch",
    "volume_kernel_batch",
    "lemma32_bounds",
    "verify_lemma32",
    "a_c_scaling_ratio",
]

_STEP = 3.0 / 16.0  # the rule's step h in t: dyadic, so that every node t is exact
_REACH = 48.0  # the rule's nodes reach e^-48 past both ends of (0, 2w); at e^-42 the head left out was 1e-15
_TERMS = 12  # terms of the H series in _series_gap; the K0 gap takes 9
_FAR = 20.0  # see the asymptotic branch of _channel
_ROUNDING = 1e-14  # relative rounding error claimed for every value
_BLOCK = 16  # frequencies per block; bounds the (block x nodes) temporaries
_N = np.arange(1, _TERMS + 1)  # series term index n
_PSI = np.cumsum(1.0 / _N) - np.euler_gamma  # psi(n + 1)
_V2 = (2.0 / 9.0 * np.arange(28)) ** 2  # squared trapezoid nodes of _trapezoid
_WEIGHTS = 2.0 / 9.0 * np.exp(-_V2) * np.where(_V2 == 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class CrossSection:
    """Half-width l and half-thickness d of the film cross-section.

    The standing assumption 0 < d <= l holds throughout, so the aspect ratio
    c = d/l lies in (0, 1]: a ratio that underflows to 0 raises WallscaleError.
    """

    l: float
    d: float
    c: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l) and math.isfinite(self.d)):
            raise ValueError("cross-section dimensions must be finite")
        if not (0.0 < self.d <= self.l):
            raise ValueError(f"require 0 < d <= l, got l={self.l!r}, d={self.d!r}")
        object.__setattr__(self, "c", self.d / self.l)
        if self.c == 0.0:
            raise WallscaleError(f"aspect ratio d/l underflows to 0 at l={self.l!r}, d={self.d!r}")


@dataclass(frozen=True)
class KernelBoundTriple:
    """Closed-form bounds on I(d, l, x) for one cross-section.

    upper_i   = 2*pi*l*d*a_c          (valid for all x)
    upper_ii  = pi*l*d*c*(3 - ln c)   (valid for all x)
    lower_iii = pi*l*d*c*|ln c|*(1 - 5/sqrt(|ln c|))   (valid for |x| <= 1/l)

    lower_iii is reported as-is even when it is negative; `vacuous` flags that
    case rather than clamping the formula.
    """

    upper_i: float
    upper_ii: float
    lower_iii: float
    vacuous: bool


def a_c(c: float) -> float:
    """Surface-charge kernel coefficient (c/2) int sinc^2(t) (1-e^{-2t/c})/t dt.

    Strictly increasing in c, with range (0, pi/2).  For c < 1 the value is
    bracketed by (c|ln c|/2)(1 - 5/sqrt(|ln c|)) and (c/2)(3 - ln c).
    Exact to rounding in closed form.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"aspect ratio must be positive and finite, got {c!r}")
    if c > 1.0:
        return math.pi / 2.0 - a_c(1.0 / c)
    # log form, free of overflow and cancellation down to c ~ 1e-300 (last -> c/4)
    c2 = c * c
    last = math.log1p(c2) / (4.0 * c) if c2 > 1e-16 else 0.25 * c
    return math.atan(c) + 0.25 * c * (math.log1p(c2) - 2.0 * math.log(c)) - last


def b_c(c: float) -> float:
    """Complementary kernel coefficient a_{1/c} = pi/2 - a_c, evaluated as
    a_{1/c} for c >= 1 so that small values do not cancel against pi/2."""
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"aspect ratio must be positive and finite, got {c!r}")
    return math.pi / 2.0 - a_c(c) if c < 1.0 else a_c(1.0 / c)


def _trapezoid(z, dz=None):
    """K0(z) - K0(z + dz), or K0(z) without dz, for z >= 1 (a float or an
    array like dz): v = sqrt(2z) sinh(t/2) in K0(z) = int_0^inf e^(-z cosh t)
    dt (DLMF 10.32.9) gives sqrt(2/z) e^-z int_0^inf e^(-v^2) [1 - e^(-dz (1
    + v^2/z))] / sqrt(1 + v^2/(2z)) dv, by the trapezoid rule on v = 0, 2/9,
    ..., 6: within 1e-15 for dz <= z, as e^(a^2 (1 + dz/z) - 2 pi a/h), a =
    sqrt(2z) (Trefethen and Weideman, SIAM Rev. 56 (2014) 385)."""
    inv = 1.0 / z
    total = 0.0
    for v2, weight in zip(_V2, _WEIGHTS):
        term = weight / np.sqrt(1.0 + 0.5 * v2 * inv)
        total = total + (term if dz is None else -term * np.expm1(-(1.0 + v2 * inv) * dz))
    return np.sqrt(2.0 * inv) * np.exp(-z) * total


def _rule_gap(z, dz: np.ndarray, complement: bool) -> np.ndarray:
    """_k0_gap for z >= 1 (a float or an array like dz) by _trapezoid; where
    dz > z as K0(z) - K0(z + dz), which cancels nothing: K0(2z) <= 0.27 K0(z)."""
    near, far = np.flatnonzero(dz <= z), np.flatnonzero(dz > z)
    z_near, z_far = (z, z) if np.ndim(z) == 0 else (z[near], z[far])
    gap = np.empty(dz.size)
    gap[near] = _trapezoid(z_near, dz[near])
    if far.size:
        gap[far] = _trapezoid(z_far) - _trapezoid(z_far + dz[far])
    return np.log1p(dz / z) - gap if complement else gap


def _series_gap(k: np.ndarray, u: np.ndarray, du: np.ndarray, complement: bool) -> np.ndarray:
    """_k0_gap for z = k u and z + dz = k (u + du) <= 2 by the series K0(z) =
    sum_n b^2n/(n!)^2 (psi(n+1) - ln b), b = z/2 (DLMF 10.31.2): the H gap is
    sum_n a^2n/(n!)^2 [(psi(n+1) - ln a)(1 - q^2n) - L q^2n], a = (z + dz)/2,
    q = z/(z + dz), L = log1p(dz/z), 1 - q^2n = (1 - q^2) sum_{j<n} q^2j, and
    the K0 gap is L minus it.  The ratios come from u and du, ln a is ln k +
    ln((u + du)/2), and with complement the first coefficient is a^2/k^2, so
    that neither z, z + dz nor k^2 need be a normal double.
    """
    end, least = u + du, 1e-300 * du
    log_ratio = np.log1p(du / np.maximum(u, least))  # L
    deep = np.flatnonzero(u < least)  # du/u would overflow; ln(u + du) - ln u loses nothing there
    log_ratio[deep] = np.log(end[deep]) - np.log(u[deep])
    q2 = (u / end) ** 2
    shrink = (du / end) * ((u + end) / end)  # 1 - q^2
    log_shrink = (np.log(k) + np.log(0.5 * end)) * shrink
    a2 = (0.5 * k * end) ** 2
    coef = 0.25 * end**2 if complement else a2.copy()  # a^2/(1!)^2, over k^2 with complement
    power, geometric, h_gap = np.ones(u.size), np.zeros(u.size), np.zeros(u.size)
    term, tail = np.empty(u.size), np.empty(u.size)
    # term by term, in place: most of a kernel evaluation; the K0 gap's 10th
    # term is below 3e-18 of it for z + dz <= 1
    for n, psi in zip(_N[: _TERMS if complement else 9], _PSI):
        if n > 1:
            coef *= a2
            coef /= n * n  # a^2n/(n!)^2
        geometric += power  # sum_{j<n} q^2j
        power *= q2  # q^2n
        np.multiply(shrink, psi, out=term)
        term -= log_shrink
        term *= geometric
        term -= np.multiply(log_ratio, power, out=tail)
        term *= coef
        h_gap += term
    return h_gap if complement else log_ratio - h_gap


def _k0_gap(k: np.ndarray | float, u: np.ndarray, du: np.ndarray, complement: bool = False) -> np.ndarray:
    """K0(z) - K0(z + dz), or with complement [H(z + dz) - H(z)]/k^2 where
    H(t) = K0(t) + ln t, at z = k u > 0, dz = k du >= 0 (k broadcasting
    against u and du, all finite), without cancellation: by _series_gap
    below a split, 2 for the H gap and 1 for the K0 gap (its L - H gap loses
    up to 3e-15 near 2), by _rule_gap above it, and as the sum of the pieces
    (z, split - z) and (split, the rest) across it.  The series works from
    k, u and du apart, so z and z + dz may have underflowed to subnormals or
    to 0, and k^2 with them.
    """
    shape = np.broadcast(k, u, du).shape
    k, u, du = (np.broadcast_to(a, shape).ravel() for a in (k, u, du))
    z, dz = k * u, k * du
    gap = np.zeros(u.size)

    def rule(rows, z, dz):  # the H gap over k^2 by 1/k: k >= 2/(u + du) here, but k^2 overflows above 1e154
        return _rule_gap(z, dz, complement) * ((1.0 / k[rows]) ** 2 if complement else 1.0)

    split = 2.0 if complement else 1.0
    rows = np.flatnonzero(z >= split)
    if rows.size:
        gap[rows] = rule(rows, z[rows], dz[rows])
    rows = np.flatnonzero(z < split)
    zn, dn, kn, un = z[rows], dz[rows], k[rows], u[rows]
    over = zn + dn > split
    head = du[rows]
    head[over] = split / kn[over] - un[over]
    gap[rows] = _series_gap(kn, un, head, complement)
    if np.any(over):
        gap[rows[over]] += rule(rows[over], split, (dn - (split - zn))[over])
    return gap.reshape(shape)


def _channel(cs: CrossSection, swap: bool, k: np.ndarray, complement: bool) -> tuple[np.ndarray, np.ndarray]:
    """(values, errors) at every k >= 0 of the flat array k of the surface
    kernel I = (pi/2) int_0^{2w} (2w - u) [K0(k u) - K0(k r)] du, r = hypot(u,
    2s), for I(l, d, k) (swap=False) or I(d, l, k) (swap=True); with
    complement, of J/k^2 at k > 0, where J = I(0) - I = (pi/2) int_0^{2w}
    (2w - u) [H(k r) - H(k u)] du with H(t) = K0(t) + ln t.

    k = 0 takes the closed forms 2*pi*l*d*a_c and 2*pi*l*d*b_c, very large k
    a closed asymptotic form, and every other k one trapezoid rule: u = 2w
    sigma(t), sigma the logistic function, maps (-inf, inf) onto (0, 2w), and
    (2w - u) du = (2w)^2 sigma(t) sigma(-t)^2 dt.  The integrand, _k0_gap, is
    analytic in a strip about the real t axis, whose nearest singularities,
    r = 0, lie about pi/2 off it, so the rule converges like exp(-pi^2/h)
    (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).  Its nodes t_j =
    _REACH/2 - j h, h = _STEP, run from where sigma(-t)^2 = e^-_REACH down
    to e^-_REACH below the smaller scale min(2w, 2s), or to the smallest
    normal double, and depend on the section alone, not on k or the batch.
    The error is |T_h - T_2h|, plus a bound on the head [0, u_b] below the
    bottom node, pi w u_b (gap(u_b) + 1) for I as K0(a) - K0(b) <= ln(b/a),
    and pi w u_b gap(u_b) for J/k^2 as H increases, plus the _ROUNDING
    term; rows are summed one by one, so that batches are bitwise
    consistent.  Raises QuadratureError for w > 1e150
    or, at k > 0, a subnormal w or s or an s with 2s past the double range.
    """
    w, s = (cs.d, cs.l) if swap else (cs.l, cs.d)
    values, errors = np.empty(k.size), np.zeros(k.size)
    i0 = 2.0 * math.pi * cs.l * cs.d * (a_c(cs.c) if swap else b_c(cs.c))
    values[k == 0.0] = i0
    if w > 1e150:  # before the far asymptote, whose pi w/k overflows there
        raise QuadratureError(f"{cs} is outside the double range of the kernel rule")
    live = np.flatnonzero(k > 0.0)
    kn = k[live]
    with np.errstate(over="ignore"):  # k s overflows on the widest sections, in the far branch
        # far out the integral is (pi/2)(pi w/k - 1/k^2) up to a relative e^-40
        far = (kn * w >= _FAR) & (kn * s >= _FAR + 0.5 * np.maximum(0.0, np.log(kn) + math.log(w)))
    inv = 1.0 / kn[far]  # squaring k itself overflows above |k| ~ 1e154
    asymptote = 0.5 * math.pi * (math.pi * w * inv - inv**2)
    values[live[far]] = (i0 - asymptote) * inv**2 if complement else asymptote
    near = live[~far]
    if near.size:
        if min(w, s) < _TINY or 2.0 * s == math.inf:
            raise QuadratureError(f"{cs} is outside the double range of the kernel rule")
        # 2w e^t as (2w e^-shift) e^(t + shift), shift = ln 2w in sixteenths, so that t + shift is
        # exact and no subnormal e^t costs u its digits; u stays normal down to the bottom node
        shift = round(16.0 * math.log(2.0 * w)) / 16.0
        bottom = max(math.log(min(w, s)) - math.log(w) - _REACH, math.log(_TINY) + 1.0 - shift)
        j = np.arange(math.floor((0.5 * _REACH - bottom) / _STEP) + 1)
        t = 0.5 * _REACH - _STEP * j
        tail = 1.0 / (1.0 + np.exp(t))  # sigma(-t) = 1 - sigma(t)
        u = (2.0 * w * math.exp(-shift)) * np.exp(t + shift) * tail  # 2w sigma(t)
        weight = (math.pi * _STEP * w) * u * tail**2  # (pi/2) (2w)^2 sigma sigma(-t)^2 h
        alternate = np.where(j % 2, weight, -weight)  # T_h - T_2h
        du = 2.0 * s * (s / (np.hypot(0.5 * u, s) + 0.5 * u))  # r - u = 4 s^2/(r + u), no s^2 to underflow
        for start in range(0, near.size, _BLOCK):
            idx = near[start : start + _BLOCK]
            gaps = _k0_gap(k[idx, None], u, du, complement)
            values[idx] = (gaps * weight).sum(axis=1)
            head = math.pi * w * u[-1] * (gaps[:, -1] + (0.0 if complement else 1.0))
            errors[idx] = np.abs((gaps * alternate).sum(axis=1)) + head
    errors += _ROUNDING * np.abs(values)
    return values, errors


def kernel_batch(cs: CrossSection, swap: bool, ks) -> tuple[np.ndarray, np.ndarray]:
    """Surface kernel I(l, d, k) (swap=False) or I(d, l, k) (swap=True) at
    every frequency in ks, as (values, errors) shaped like ks (see _channel).
    Raises ValueError for a non-finite frequency, QuadratureError for w >
    1e150, a section outside the rule's double range, a value that is not
    finite or is below the smallest normal double, or an error estimate not
    within quad._RULE_TOL.
    """
    k = np.abs(np.asarray(ks, dtype=float)).ravel()
    if not np.all(np.isfinite(k)):
        raise ValueError("frequencies must be finite")
    values, errors = _channel(cs, swap, k, False)
    _check_rule("kernel value", values, errors, lambda i: f"k={k[i]:.17g}")
    return values.reshape(np.shape(ks)), errors.reshape(np.shape(ks))


def volume_kernel_batch(cs: CrossSection, ks) -> tuple[np.ndarray, np.ndarray]:
    """Volume kernel K(l, d, k) at every frequency in ks, returned as
    (values, errors) shaped like ks.

    By the trace of the demagnetizing tensor, k^2 K + I(l,d,k) + I(d,l,k) =
    pi^2 l d = I(l,d,0) + I(d,l,0), so K = (J(l,d,k) + J(d,l,k))/k^2 with
    J = I(0) - I, each taken by _channel from the same asymptotic form and
    trapezoid rule as I, and the errors summed.  Raises ValueError
    for a zero or non-finite frequency (K diverges like -ln|k|), and
    QuadratureError for l or l d above 1e150 (K ~ l^2 d^2 leaves the double
    range), a section outside the rule's double range, a value below the
    smallest normal double or an error estimate not within quad._RULE_TOL.
    """
    k = np.abs(np.asarray(ks, dtype=float)).ravel()
    if not np.all(np.isfinite(k) & (k > 0.0)):
        raise ValueError("frequencies must be finite and nonzero")
    if max(cs.l, cs.l * cs.d) > 1e150:
        raise QuadratureError(f"{cs} is outside the double range of the kernel rule")
    values, errors = (a + b for a, b in zip(_channel(cs, False, k, True), _channel(cs, True, k, True)))
    _check_rule("kernel value", values, errors, lambda i: f"k={k[i]:.17g}")
    return values.reshape(np.shape(ks)), errors.reshape(np.shape(ks))


def i_kernel(cs: CrossSection, swap: bool, x: float) -> float:
    """Surface-charge kernel I at frequency x.

    swap=False computes I(l, d, x) (weights the third magnetization
    component); swap=True computes I(d, l, x) (weights the second).  The
    kernel is even in x, nonnegative, and finite for all x including 0.
    """
    values, _ = kernel_batch(cs, swap, x)
    return float(values)


def lemma32_bounds(cs: CrossSection) -> KernelBoundTriple:
    """Evaluate the three closed-form bound expressions on I(d, l, x).

    All three are pure arithmetic; the (i) expression is 2*pi*l*d*a_c with
    the closed-form a_c.
    """
    pld = math.pi * cs.l * cs.d
    c = cs.c
    upper_i = 2.0 * pld * a_c(c)
    upper_ii = pld * c * (3.0 - math.log(c))
    ln_abs = abs(math.log(c))
    if ln_abs == 0.0:
        lower_iii = 0.0
    else:
        lower_iii = pld * c * ln_abs * (1.0 - 5.0 / math.sqrt(ln_abs))
    return KernelBoundTriple(
        upper_i=upper_i,
        upper_ii=upper_ii,
        lower_iii=lower_iii,
        vacuous=lower_iii <= 0.0,
    )


@dataclass(frozen=True)
class Lemma32Sample:
    """Margins of the kernel bounds at one frequency sample.

    Margins are `bound - value` for the upper bounds and `value - bound` for
    the lower one, so a nonnegative margin means the inequality holds.
    lower_margin is None outside |x| <= 1/l where the lower bound is not
    claimed.
    """

    x: float
    kernel_value: float
    upper_i_margin: float
    upper_ii_margin: float
    lower_margin: float | None
    budget: float
    passed: bool


@dataclass(frozen=True)
class Lemma32Report:
    cross_section: CrossSection
    bounds: KernelBoundTriple
    samples: tuple[Lemma32Sample, ...]
    passed: bool

    def failures(self) -> list[Lemma32Sample]:
        return [s for s in self.samples if not s.passed]


def verify_lemma32(cs: CrossSection, x_samples: list[float]) -> Lemma32Report:
    """Check the two-sided kernel bounds against the kernel at given samples.

    Each sample must satisfy I(d,l,x) <= upper_i and <= upper_ii; samples with
    |x| <= 1/l must additionally satisfy I(d,l,x) >= lower_iii.  Violations
    beyond the kernel error budget mark the sample (and the report) as
    failed.
    """
    if len(x_samples) == 0:
        raise ValueError("x_samples must be nonempty")
    bounds = lemma32_bounds(cs)
    values, errors = kernel_batch(cs, True, x_samples)
    samples = []
    all_ok = True
    for x, value, error in zip(x_samples, values.tolist(), errors.tolist()):
        budget = 10.0 * (error + _ROUNDING * bounds.upper_i) + 1e-14 * bounds.upper_ii
        m_i = bounds.upper_i - value
        m_ii = bounds.upper_ii - value
        ok = m_i >= -budget and m_ii >= -budget
        m_lo: float | None = None
        if abs(x) <= 1.0 / cs.l:
            m_lo = value - bounds.lower_iii
            ok = ok and m_lo >= -budget
        all_ok = all_ok and ok
        samples.append(
            Lemma32Sample(
                x=x,
                kernel_value=value,
                upper_i_margin=m_i,
                upper_ii_margin=m_ii,
                lower_margin=m_lo,
                budget=budget,
                passed=ok,
            )
        )
    return Lemma32Report(
        cross_section=cs, bounds=bounds, samples=tuple(samples), passed=all_ok
    )


def a_c_scaling_ratio(c: float) -> float:
    """a_c / (c |ln c|), which tends to 1/2 as c -> 0."""
    if not (0.0 < c < 1.0):
        raise ValueError(f"require 0 < c < 1, got {c!r}")
    return a_c(c) / (c * abs(math.log(c)))
