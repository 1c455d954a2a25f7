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
evaluate them for many x at once with quad's 15-point Gauss-Kronrod table on
graded panels, whose embedded Gauss rule gives an error estimate.  Where
|x| hypot(2w, 2s) <= 1, kernel_batch instead sums the K0 ascending series
(DLMF 10.31.2) on moments that do not depend on x, taken once per call on
the same panels, and makes no Bessel function call.  Every kernel value is
returned only when its error estimate is within 1e-8 of the value
(_REL_TOL) and the value is a finite normal double (quad._check_rule);
otherwise the call raises QuadratureError.  scipy.special is imported by
the first Kronrod-rule row (see k0), not with the module.

Every function here is pure and reentrant; sweep drivers may call them
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError
from .quad import _GK_GAUSS, _GK_NODES, _TINY, _check_rule, _gk_panels, _halving_edges

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

# Panels [2w/2^(j+1), 2w/2^j] down to _FLOOR*min(w, s) keep the log endpoint, the
# scales s and 1/|x| a panel width away: Gauss is good to ~1e-11, Kronrod to rounding.
_FLOOR = 1e-12
_SERIES_EDGE = 1.0  # |x| hypot(2w, 2s) up to this: I from the K0 ascending series
_TERMS = 12  # series terms; the first one left out is at most 2.1e-28 of I(0) at the edge
_FAR = 20.0  # see the asymptotic branches of kernel_batch and volume_kernel_batch
_CORNER_PANELS = 24  # halvings of the volume rule's corner toward the origin
_ROUNDING = 1e-14  # relative rounding error claimed for every value
_REL_TOL = 1e-8  # bound on every returned value's error estimate, relative to the value
_BLOCK = 16  # frequencies per block; bounds the (block x nodes) temporaries
_N = np.arange(1, _TERMS + 1)  # series term index n
_PSI = np.cumsum(1.0 / _N) - np.euler_gamma  # psi(n + 1)


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


def k0(z: np.ndarray) -> np.ndarray:
    """scipy.special.k0; scipy.special (24 MB) is imported by the first
    Kronrod-rule row, not with the package."""
    from scipy.special import k0 as bessel_k0

    return bessel_k0(z)


def k1(z: np.ndarray) -> np.ndarray:
    """scipy.special.k1, imported on first use as for k0."""
    from scipy.special import k1 as bessel_k1

    return bessel_k1(z)


def _k0_gap(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """K0(z) - K0(z + dz) for z > 0, dz >= 0, without cancellation.

    Where z + dz <= 0.1 both K0 carry the large -ln(z/2) I0(z), and the
    series K0(z) = sum_n b^2n/(n!)^2 (psi(n+1) - ln b), b = z/2 (DLMF
    10.31.2), gives the gap as L I0(2a) + sum_n a^2n (-expm1(-2nL)) (ln b -
    psi(n+1))/(n!)^2, a = (z + dz)/2, L = ln(a/b) = log1p(dz/z).  Elsewhere,
    where dz (1 + 1/z) < 0.05, the direct difference would lose digits, and
    the gap is the integral of K1 over [z, z + dz] by 7-point Gauss-Legendre.
    """
    end = z + dz
    gap = k0(z) - k0(end)
    series = (end <= 0.1) & (z >= _TINY)  # normal z: dz/z stays finite
    near = np.flatnonzero((dz * (z + 1.0) < 0.05 * z) & ~series)  # times z: 1/z overflows for subnormal z
    if near.size:
        zn, h = z.ravel()[near, None], 0.5 * dz.ravel()[near, None]
        nodes = zn + h * (1.0 + _GK_NODES[1::2])
        gap.ravel()[near] = (h * k1(nodes) * _GK_GAUSS[1::2]).sum(axis=1)
    rows = np.flatnonzero(series)
    if rows.size:
        zn = z.ravel()[rows, None]
        log_ratio = np.log1p(dz.ravel()[rows, None] / zn)  # L
        terms = np.cumprod(0.25 * end.ravel()[rows, None] ** 2 / _N**2, axis=1)  # a^2n/(n!)^2
        gap.ravel()[rows] = log_ratio[:, 0] * (1.0 + terms.sum(axis=1)) - (
            terms * np.expm1(-2.0 * _N * log_ratio) * (np.log(0.5 * zn) - _PSI)).sum(axis=1)
    return gap


def _graded_rule(k, values, errors, rows, integrand, kronrod, excess, shape):
    """(values, errors) reshaped to shape, with values[rows] filled by pi/2
    times a panel rule and every error carrying the _ROUNDING term.

    integrand(kb) gives the integrand at the nodes for a column kb of
    frequencies, and the integral below the rule's floor; each array in
    excess holds Kronrod-minus-Gauss weights shaped (panels, nodes per
    panel); errors outside rows are kept as passed in.  Blocks of _BLOCK
    frequencies bound the temporaries; each row is reduced on its own, so a
    batch gives bitwise the values of its frequencies one at a time.  Raises
    QuadratureError when any value is not a finite normal double, or its
    error is not within _REL_TOL of it (quad._check_rule).
    """
    for start in range(0, rows.size, _BLOCK):
        idx = rows[start : start + _BLOCK]
        f, sliver = integrand(k[idx][:, None])
        values[idx] = 0.5 * math.pi * ((f * kronrod).sum(axis=1) + sliver)
        panels = f.reshape(idx.size, *excess[0].shape)
        errors[idx] = 0.5 * math.pi * sum(np.abs((panels * e).sum(axis=2)).sum(axis=1) for e in excess)
    errors += _ROUNDING * np.abs(values)
    _check_rule("kernel value", values, errors, _REL_TOL, lambda i: f"k={k[i]:.17g}")
    return values.reshape(shape), errors.reshape(shape)


def _surface_rule(w: float, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(u, kronrod, excess, floor): GK15 nodes on the panels [2w/2^(j+1), 2w/2^j]
    down to floor, with Kronrod and Kronrod-minus-Gauss weights times 2w - u."""
    edges = _halving_edges(2.0 * w, _FLOOR * min(w, s))
    u, kronrod, excess = _gk_panels(edges)
    u = u.ravel()
    kronrod = kronrod.ravel() * (2.0 * w - u)
    excess = excess * (2.0 * w - u).reshape(excess.shape)
    return u, kronrod, excess, edges[-1]


def _series_moments(w, s, rho, u, kronrod, excess, floor):
    """(P, Q, dP, dQ) for n = 1.._TERMS: the k-free moments of the K0 series
    of I, P_n = int (2w - u) D_n du and Q_n = int (2w - u) [D_n ln(r/rho) +
    (u/rho)^2n ln(r/u)] du with r = hypot(u, 2s) and D_n = (r^2n - u^2n) /
    rho^2n, on the rule's panels plus the sliver below its floor, and the
    absolute per-panel Kronrod-minus-Gauss sums of each.  kronrod and excess
    carry the factor 2w - u.
    """
    x2, y2, r_rho = (u / rho) ** 2, (2.0 * s / rho) ** 2, np.hypot(u, 2.0 * s) / rho
    big = np.maximum(u, 2.0 * s)
    # ln(r/u) from the smaller squared ratio: (2s/u)^2 overflows on thin sections
    ln_r_u = np.log(big) - np.log(u) + 0.5 * np.log1p((np.minimum(u, 2.0 * s) / big) ** 2)
    power = np.ones((_TERMS + 1, u.size))  # (u/rho)^2n
    d = np.zeros_like(power)
    r2 = r_rho**2
    for n in _N:
        # D_n = (r/rho)^2 D_(n-1) + (2s/rho)^2 (u/rho)^(2n-2): no term cancels
        d[n] = r2 * d[n - 1] + y2 * power[n - 1]
        power[n] = power[n - 1] * x2
    rows = np.concatenate([d[1:], d[1:] * np.log(r_rho) + power[1:] * ln_r_u])
    sliver = 2.0 * w * floor * y2**_N  # D_n(0) = (2s/rho)^2n
    moments = rows @ kronrod + np.concatenate([sliver, sliver * math.log(2.0 * s / rho)])
    deltas = np.abs((rows.reshape(2 * _TERMS, *excess.shape) * excess).sum(axis=2)).sum(axis=1)
    return moments[:_TERMS], moments[_TERMS:], deltas[:_TERMS], deltas[_TERMS:]


def kernel_batch(cs: CrossSection, swap: bool, ks) -> tuple[np.ndarray, np.ndarray]:
    """Surface kernel I(l, d, k) (swap=False) or I(d, l, k) (swap=True) at
    every frequency in ks, returned as (values, errors) shaped like ks.

    k = 0 takes the closed forms 2*pi*l*d*a_c and 2*pi*l*d*b_c.  Other k
    with |k| rho <= _SERIES_EDGE, rho = hypot(2w, 2s), take the K0
    ascending series (DLMF 10.31.2) summed to _TERMS terms,

        I = I(0) + (pi/2) sum_n kappa^2n/(n!)^2 [(ln kappa - psi(n+1)) P_n + Q_n],

    kappa = |k| rho/2, on moments P_n, Q_n that do not depend on k (see
    _series_moments); their error is the moments' Gauss estimates times the
    coefficients plus the last term.  Very large |k| takes a closed
    asymptotic form, all other k the Kronrod rule on panels halving toward
    u = 0, with the error from its embedded Gauss rule (see _graded_rule:
    batches are bitwise consistent).  Raises ValueError for a non-finite
    frequency, QuadratureError for w > 1e150, when a value is below the
    smallest normal double or an error estimate is not within _REL_TOL.
    """
    k = np.abs(np.asarray(ks, dtype=float)).ravel()
    if not np.all(np.isfinite(k)):
        raise ValueError("frequencies must be finite")
    w, s = (cs.d, cs.l) if swap else (cs.l, cs.d)
    rho = math.hypot(2.0 * w, 2.0 * s)
    values = np.empty(k.size)
    errors = np.zeros(k.size)
    i0 = 2.0 * math.pi * cs.l * cs.d * (a_c(cs.c) if swap else b_c(cs.c))
    values[k == 0.0] = i0
    with np.errstate(over="ignore"):  # a product that overflows lies past the series edge, in the far branch
        series = np.flatnonzero((k > 0.0) & (k * rho <= _SERIES_EDGE))
        rest = np.flatnonzero(k * rho > _SERIES_EDGE)
        kn = k[rest]
        # far out the integral is (pi/2)(pi w/k - 1/k^2) up to a relative e^-40
        far = (kn * w >= _FAR) & (kn * s >= _FAR + 0.5 * np.maximum(0.0, np.log(kn) + math.log(w)))
    inv = 1.0 / kn[far]  # squaring k itself overflows above |k| ~ 1e154
    values[rest[far]] = 0.5 * math.pi * (math.pi * w * inv - inv**2)
    near = rest[~far]
    # the rule's floor must be normal, and its weights (2w - u) du (sum 2 w^2, times logs below 1e3) finite
    if w > 1e150 or (near.size or series.size) and _FLOOR * min(w, s) < _TINY:
        raise QuadratureError(f"{cs} is outside the double range of the kernel rule")
    u, kronrod, excess, floor = _surface_rule(w, s)
    du = 2.0 * s * (2.0 * s / (np.hypot(u, 2.0 * s) + u))  # sqrt(u^2 + 4 s^2) - u, no s^2 to underflow

    if series.size:
        p, q, dp, dq = _series_moments(w, s, rho, u, kronrod, excess, floor)
        kb = k[series][:, None]
        log_kappa = np.log(kb) + math.log(0.5 * rho) - _PSI  # ln kappa - psi(n+1), exact for tiny k
        coef = np.cumprod((0.5 * rho * kb) ** 2 / _N**2, axis=1)  # kappa^2n / (n!)^2
        terms = coef * (log_kappa * p + q)
        values[series] = i0 + 0.5 * math.pi * terms.sum(axis=1)
        errors[series] = 0.5 * math.pi * ((coef * (np.abs(log_kappa) * dp + dq)).sum(axis=1) + np.abs(terms[:, -1]))

    def integrand(kb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # int_0^floor (2w - u) [K0(k u) - K0(k r)] du to leading order in floor
        sliver = 2.0 * w * floor * (
            1.0 - np.euler_gamma - np.log(0.5 * kb * floor) - k0(kb * math.hypot(floor, 2.0 * s))
        )
        return _k0_gap(kb * u, kb * du), sliver[:, 0]

    return _graded_rule(k, values, errors, near, integrand, kronrod, (excess,), np.shape(ks))


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
    for a zero or non-finite frequency (K diverges like -ln|k|), and
    QuadratureError for l or l d above 1e150 or a section too thin for it.
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
    # the rule's floor must be normal, its weights (up to 8 l^2 d^2) and mirror term (4 l^2) finite
    if max(l, l * d) > 1e150 or floor < _TINY and not np.all(far):
        raise QuadratureError(f"{cs} is outside the double range of the kernel rule")
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

    return _graded_rule(k, values, np.zeros(k.size), np.flatnonzero(~far), integrand, kronrod, excess, np.shape(ks))


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
