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
which weights the spectrum of d m1/dx.  kernel_batch and volume_kernel_batch
evaluate them for many x at once with one fixed graded Gauss-Kronrod rule,
whose embedded Gauss rule gives an error estimate.  Every kernel value is
returned only when that estimate is within 1e-8 of the value (_REL_TOL)
and the value is a normal double; otherwise the call raises QuadratureError.

Every function here is pure and reentrant; sweep drivers may call them
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import k0, k1

from .errors import QuadratureError
from .quad import _WG, _WGK, _XGK

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

# quad's 15-point Kronrod rule and its embedded 7-point Gauss-Legendre rule
# (zero weight at the Kronrod-only nodes), mirrored from [0, 1] onto [-1, 1]
_GK_NODES = np.concatenate([np.negative(_XGK), _XGK[-2::-1]])
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = _WG + _WG[-2::-1]

# Panels [2w/2^(j+1), 2w/2^j] down to _FLOOR*min(w, s) keep the log endpoint, the
# scales s and 1/|x| a panel width away: Gauss is good to ~1e-11, Kronrod to rounding.
_FLOOR = 1e-12
_ZERO_FREQUENCY = 1e-9  # |x| max(w, s) below this: I(x) = I(0) to rounding
_FAR = 20.0  # see the asymptotic branches of kernel_batch and volume_kernel_batch
_CORNER_PANELS = 24  # halvings of the volume rule's corner toward the origin
_ROUNDING = 1e-14  # relative rounding error claimed for every value
_REL_TOL = 1e-8  # bound on every returned value's error estimate, relative to the value
_BLOCK = 16  # frequencies per block; bounds the (block x nodes) temporaries


@dataclass(frozen=True)
class CrossSection:
    """Half-width l and half-thickness d of the film cross-section.

    The standing assumption 0 < d <= l holds throughout, so the aspect ratio
    c = d/l lies in (0, 1].
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


def _k0_gap(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """K0(z) - K0(z + dz) for z > 0, dz >= 0, without cancellation.

    Where dz (1 + 1/z) < 0.05 the direct difference would lose digits, and
    the gap is the integral of K1 over [z, z + dz] by 7-point Gauss-Legendre.
    """
    gap = k0(z) - k0(z + dz)
    near = np.flatnonzero(dz * (1.0 + 1.0 / z) < 0.05)
    if near.size:
        zn, h = z.ravel()[near, None], 0.5 * dz.ravel()[near, None]
        nodes = zn + h * (1.0 + _GK_NODES[1::2])
        gap.ravel()[near] = (h * k1(nodes) * _GK_GAUSS[1::2]).sum(axis=1)
    return gap


def _gk_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes, Kronrod weights and Kronrod-minus-Gauss weights on the
    panels between consecutive edges, each shaped (panels, 15)."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.abs(edges[:-1] - edges[1:])[:, None]
    return mid + half * _GK_NODES, half * _GK_WEIGHTS, half * (_GK_WEIGHTS - _GK_GAUSS)


def _graded_rule(k, values, rows, integrand, kronrod, excess, shape):
    """(values, errors) reshaped to shape, with values[rows] filled by pi/2
    times a panel rule and every error carrying the _ROUNDING term.

    integrand(kb) gives the integrand at the nodes for a column kb of
    frequencies, and the integral below the rule's floor; each array in
    excess holds Kronrod-minus-Gauss weights shaped (panels, nodes per
    panel).  Blocks of _BLOCK frequencies bound the temporaries; each row is
    reduced on its own, so a batch gives bitwise the values of its
    frequencies one at a time.  Raises QuadratureError when a value is
    subnormal or zero, or its error is not within _REL_TOL of it.
    """
    errors = np.zeros(k.size)
    for start in range(0, rows.size, _BLOCK):
        idx = rows[start : start + _BLOCK]
        f, sliver = integrand(k[idx][:, None])
        values[idx] = 0.5 * math.pi * ((f * kronrod).sum(axis=1) + sliver)
        panels = f.reshape(idx.size, *excess[0].shape)
        errors[idx] = 0.5 * math.pi * sum(np.abs((panels * e).sum(axis=2)).sum(axis=1) for e in excess)
    errors += _ROUNDING * np.abs(values)
    small = np.abs(values) < np.finfo(float).tiny  # where the _ROUNDING term underflows too
    bad = np.flatnonzero(small | ~(errors <= _REL_TOL * np.abs(values)))
    if bad.size:
        i = bad[0]
        what = "below the normal range" if small[i] else f"with error {errors[i]:.3e} above tolerance"
        raise QuadratureError(f"kernel value {values[i]:.3e} {what} at k={k[i]:.17g}")
    return values.reshape(shape), errors.reshape(shape)


def kernel_batch(cs: CrossSection, swap: bool, ks) -> tuple[np.ndarray, np.ndarray]:
    """Surface kernel I(l, d, k) (swap=False) or I(d, l, k) (swap=True) at
    every frequency in ks, returned as (values, errors) shaped like ks.

    k = 0 takes the closed forms 2*pi*l*d*a_c and 2*pi*l*d*b_c, very large
    |k| a closed asymptotic form, all other k the Kronrod rule on panels
    halving toward u = 0, with the error from its embedded Gauss rule (see
    _graded_rule: batches are bitwise consistent).  Raises ValueError for a
    non-finite frequency, QuadratureError when a value is below the smallest
    normal double or an error estimate is not within _REL_TOL of its value.
    """
    k = np.abs(np.asarray(ks, dtype=float)).ravel()
    if not np.all(np.isfinite(k)):
        raise ValueError("frequencies must be finite")
    w, s = (cs.d, cs.l) if swap else (cs.l, cs.d)
    values = np.empty(k.size)
    zero = k * max(w, s) < _ZERO_FREQUENCY
    values[zero] = 2.0 * math.pi * cs.l * cs.d * (a_c(cs.c) if swap else b_c(cs.c))
    nonzero = np.flatnonzero(~zero)
    kn = k[nonzero]
    # far out the integral is (pi/2)(pi w/k - 1/k^2) up to a relative e^-40
    far = (kn * w >= _FAR) & (kn * s >= _FAR + 0.5 * np.maximum(0.0, np.log(kn) + math.log(w)))
    inv = 1.0 / kn[far]  # squaring k itself overflows above |k| ~ 1e154
    values[nonzero[far]] = 0.5 * math.pi * (math.pi * w * inv - inv**2)
    near = nonzero[~far]
    if near.size and _FLOOR * min(w, s) < np.finfo(float).tiny:
        raise QuadratureError(f"{cs} is too thin for the kernel rule in double precision")
    panels = math.ceil(math.log2(2.0 * w) - math.log2(min(w, s)) - math.log2(_FLOOR))
    edges = np.ldexp(2.0 * w, -np.arange(panels + 1))
    u, kronrod, excess = _gk_panels(edges)
    u = u.ravel()
    du = 4.0 * s * s / (np.hypot(u, 2.0 * s) + u)  # sqrt(u^2 + 4 s^2) - u
    kronrod = kronrod.ravel() * (2.0 * w - u)
    excess = excess * (2.0 * w - u).reshape(excess.shape)
    floor = edges[-1]

    def integrand(kb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # int_0^floor (2w - u) [K0(k u) - K0(k r)] du to leading order in floor
        sliver = 2.0 * w * floor * (
            1.0 - np.euler_gamma - np.log(0.5 * kb * floor) - k0(kb * math.hypot(floor, 2.0 * s))
        )
        return _k0_gap(kb * u, kb * du), sliver[:, 0]

    return _graded_rule(k, values, near, integrand, kronrod, (excess,), np.shape(ks))


def volume_kernel_batch(cs: CrossSection, ks) -> tuple[np.ndarray, np.ndarray]:
    """Volume kernel K(l, d, k) at every frequency in ks, returned as
    (values, errors) shaped like ks.

    |k| d >= _FAR takes the quarter-plane form (pi/2)(2 pi l d/k^2 -
    pi (l + d)/k^3 + 2/k^4), short by a relative e^(-2|k|d)/(2|k|d).  Other k
    take the Kronrod rule (see _graded_rule) on outer panels x doubling from
    2d up to 2l and halving from 2d toward 0 times one panel t in [0, 1]:
    with y = min(x, 2d) t, (u, v) = (x, y) covers the strip [2d, 2l] x [0, 2d]
    and, with its mirror (y, x), the corner [0, 2d]^2 as two Duffy triangles.
    The error sums the Gauss estimates of both directions.  Raises ValueError
    for a zero or non-finite frequency (K diverges like -ln|k|).
    """
    k = np.abs(np.asarray(ks, dtype=float)).ravel()
    if not np.all(np.isfinite(k) & (k > 0.0)):
        raise ValueError("frequencies must be finite and nonzero")
    l, d = cs.l, cs.d
    values = np.empty(k.size)
    far = k * d >= _FAR
    inv = 1.0 / k[far]  # squaring k itself overflows above |k| ~ 1e154
    values[far] = 0.5 * math.pi * (2.0 * math.pi * l * d - math.pi * (l + d) * inv + 2.0 * inv**2) * inv**2
    floor = math.ldexp(2.0 * d, -_CORNER_PANELS)
    if floor < np.finfo(float).tiny and not np.all(far):
        raise QuadratureError(f"{cs} is too thin for the kernel rule in double precision")
    doublings = math.ceil(math.log2(l / d))
    edges = np.append(2.0 * l, np.ldexp(2.0 * d, np.arange(doublings - 1, -_CORNER_PANELS - 1, -1)))
    x, w_x, e_x = (a[:, :, None] for a in _gk_panels(edges))
    t, w_t, e_t = (a[0] for a in _gk_panels(np.array([1.0, 0.0])))
    side = np.minimum(x, 2.0 * d)
    y = side * t
    mirror = np.where(x < 2.0 * d, (2.0 * l - y) * (2.0 * d - x), 0.0)
    poly = side * ((2.0 * l - x) * (2.0 * d - y) + mirror)
    r = np.hypot(x, y).ravel()
    kronrod = (w_x * w_t * poly).ravel()
    excess = tuple((a * b * poly).reshape(x.shape[0], -1) for a, b in ((e_x, w_t), (w_x, e_t)))
    log_mean = 0.5 * (math.log(2.0) - 3.0 + 0.5 * math.pi)  # mean of ln|(u, v)| on [0, 1]^2

    def integrand(kb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the square [0, floor]^2 with K0(z) = -ln(z/2) - gamma, to leading order
        sliver = 4.0 * l * d * floor**2 * (-np.euler_gamma - np.log(0.5 * kb * floor) - log_mean)
        return k0(kb * r), sliver[:, 0]

    return _graded_rule(k, values, np.flatnonzero(~far), integrand, kronrod, excess, np.shape(ks))


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
