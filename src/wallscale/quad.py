"""Deterministic adaptive quadrature for smooth, oscillatory integrands.

Every adaptive integral uses one Gauss-Kronrod rule, GK15 (_gk15), and no
scipy.  Finite intervals are bisected globally, the panel of largest estimate
first.  Semi-infinite integrals over [a, inf) are split at a + 60; the head
is integrated that way and the tail by fixed GK15 panels of length pi,
matching sin^2-type oscillations, whose partial sums are extrapolated to
infinity (Neville in the reciprocal endpoint) for envelopes decaying as
slowly as 1/t^2.
The module also holds the two fixed-rule tables: GK15 (_gk_panels) for the
adaptive panels and, on panels halving to a floor (_halving_edges), the kernel
rule (both kernels), the section pair function and the lag-cell averages of
the real-space oracles, and 16-point Gauss-Laguerre for the spectral E_v's k = 0 cell average.
_check_rule holds every value it is given (both kernels, the ansatz surface,
the pair function, the cell averages, the energies) to a finite normal double
whose error estimate, 0.0 where none is formed, is within the one _RULE_TOL.

All routines are pure functions of their inputs: identical calls produce
bit-identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteIntegrandError,
    QuadratureError,
    SubdivisionLimitError,
    TailNonconvergenceError,
)

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
    "integrate_finite",
    "integrate_semi_infinite",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrators.

    abs_tol / rel_tol: the returned error estimate must satisfy
        error_estimate <= max(abs_tol, rel_tol * |value|)
    or the call raises.  At least one of the two must be positive.

    max_subdivisions bounds the adaptive refinement; exhausting it is an
    error, never a silent truncation.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int


def _tolerance_bound(cfg: QuadratureConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1]: QUADPACK's
# qk15 table to 33 digits, so every constant is the correctly rounded double
# (a 15-digit table left the Kronrod weights summing to 2 - 6e-15).
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
# the same rule mirrored from [0, 1] onto [-1, 1], with the Gauss weights
# zero at the Kronrod-only nodes; every GK15 rule of the package uses these
_GK_NODES = np.concatenate([np.negative(_XGK), _XGK[-2::-1]])
_GK_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = _WG + _WG[-2::-1]
# 16-point Gauss-Laguerre: sum w f(t) ~ int_0^inf f(t) e^-t dt, the weights summing to 1
_LAGUERRE16_NODES, _LAGUERRE16_WEIGHTS = np.polynomial.laguerre.laggauss(16)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
_RULE_TOL = 1e-9  # bound on every _check_rule error estimate, relative to its value

# abscissa offset past which a semi-infinite tail takes the panel scheme
_SEMI_INFINITE_SPLIT = 60.0
_PANEL = math.pi
_TAIL_BASE_PANELS = 8
_TAIL_MAX_DOUBLINGS = 12
_TAIL_MAX_ORDER = 8


def _gk_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 nodes, Kronrod weights and Kronrod-minus-Gauss weights on the
    panels between consecutive edges, each shaped (panels, 15)."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.abs(edges[:-1] - edges[1:])[:, None]
    return mid + half * _GK_NODES, half * _GK_WEIGHTS, half * (_GK_WEIGHTS - _GK_GAUSS)


def _halving_edges(top: float, floor: float) -> np.ndarray:
    """Edges top/2^j down to the first at or below floor, counted by a
    difference of logs: the quotient top/floor overflows on thin sections;
    with floor >= top the one edge top."""
    panels = max(0, math.ceil(math.log2(top) - math.log2(floor)))
    return np.ldexp(top, -np.arange(panels + 1))


def _check_rule(name: str, values, errors, where: Callable[[int], str]) -> None:
    """Raise QuadratureError at the first of values (array or scalar) that is not a
    finite normal double, or whose error is not within _RULE_TOL of it, located by where(i)."""
    size = abs(values)
    ok = (size >= _TINY) & (size < math.inf) & (errors <= _RULE_TOL * size)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):  # a scalar's .all() costs 2 us
        i = int(np.argmin(ok))  # the first failure
        value, error, size = (np.ravel(a)[i] for a in (values, errors, size))
        what = "below the normal range" if size < _TINY else "not finite" if not size < math.inf else (
            f"with error {error:.3e} above tolerance")
        raise QuadratureError(f"{name} {value:.3e} {what} at {where(i)}")


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(Kronrod value, |Kronrod - Gauss|) of f on [a, b]; NonFiniteIntegrandError at a non-finite node."""
    nodes, kronrod, excess = (x[0] for x in _gk_panels(np.array([a, b])))
    # toward a singular end other than 0 rounding moves the nodes, so that both rules see the same wrong
    # samples: a least gap of 1 ulp (of the larger end) let 10 of 518 errors on (u - a)^-p and ln|u - a|
    # exceed their estimates, 4 ulps none, and 16 ulps keep ln(u - 1) on [1, 2] at rel_tol 1e-13
    gap = 16.0 * math.ulp(max(abs(a), abs(b)))
    if not (nodes[0] - a >= gap and b - nodes[-1] >= gap):
        raise QuadratureError(f"panel [{a!r}, {b!r}] too narrow: GK15 nodes within 16 ulps of its ends")
    fx = np.array([f(t) for t in nodes.tolist()])
    if not np.isfinite(fx).all():
        i = int(np.argmin(np.isfinite(fx)))
        raise NonFiniteIntegrandError(f"integrand returned {float(fx[i])!r} at t={float(nodes[i])!r}")
    return float(fx @ kronrod), abs(float(fx @ excess))


def integrate_finite(
    f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> QuadratureResult:
    """Integrate f over [a, b] by global adaptive bisection of GK15 panels:
    the panel with the largest Kronrod-minus-Gauss estimate is halved until
    the estimates sum to within max(abs_tol, rel_tol |value|).  GK15 never
    evaluates the endpoints, and its estimate bounds the true error of
    integrable singularities at 0, such as ln u and u^-1/2 on [0, 1]; at
    any other end the spacing of doubles limits the accuracy (a panel too
    narrow raises), so substitute to move the singularity to 0.

    Raises:
        SubdivisionLimitError: max_subdivisions panels reached first.
        NonFiniteIntegrandError: NaN/inf at a node.
        QuadratureError: a panel whose nodes lie within 16 ulps of its ends.
    """
    if not (a < b):
        raise ValueError(f"require a < b, got a={a!r}, b={b!r}")
    value, err = _gk15(f, a, b)
    panels = [(-err, a, b, value)]  # a heap: the largest estimate first, the leftmost among equals
    while err > _tolerance_bound(cfg, value):
        if len(panels) >= cfg.max_subdivisions:
            raise SubdivisionLimitError(
                f"subdivision budget {cfg.max_subdivisions} exhausted on [{a}, {b}] (error estimate {err:.3e})"
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            part, part_err = _gk15(f, left, right)
            heapq.heappush(panels, (-part_err, left, right, part))
        value, err = math.fsum(p[3] for p in panels), -math.fsum(p[0] for p in panels)
    return QuadratureResult(value=value, error_estimate=err, subdivisions_used=len(panels))


def _tail_extrapolation(
    f: Callable[[float], float], b: float, abs_budget: float
) -> tuple[float, float, int]:
    """Integral of f over [b, infinity) by panel sums plus Neville extrapolation.

    Partial sums S(T_k) at endpoints T_k = b + n*pi (n doubling) behave like
    S(inf) - c1/T - c2/T^2 - ... for the decaying envelopes in scope, so
    polynomial extrapolation in 1/T_k converges to the full integral.
    """
    total = 0.0
    panel_err = 0.0
    count = 0
    xs: list[float] = []
    sums: list[float] = []
    prev_diag = None
    err = math.inf
    for k in range(_TAIL_MAX_DOUBLINGS + 1):
        target = _TAIL_BASE_PANELS * (2**k)
        while count < target:
            v, e = _gk15(f, b + count * _PANEL, b + (count + 1) * _PANEL)
            total += v
            panel_err += e
            count += 1
        xs.append(1.0 / (b + count * _PANEL))
        sums.append(total)
        if len(sums) < 2:
            continue
        plain_step = abs(sums[-1] - sums[-2])
        if plain_step <= 0.05 * abs_budget and plain_step <= 1e-14 * abs(total) + 1e-300:
            # integrand decays fast enough that the plain sum already converged
            return total, plain_step + panel_err, count
        m = min(len(sums), _TAIL_MAX_ORDER)
        x = xs[-m:]
        t = list(sums[-m:])
        for j in range(1, m):
            for i in range(m - 1, j - 1, -1):
                t[i] = t[i] + (t[i] - t[i - 1]) * (0.0 - x[i]) / (x[i] - x[i - j])
        diag = t[-1]
        err = abs(t[-1] - t[-2])
        if prev_diag is not None:
            err = max(err, abs(diag - prev_diag))
        err += panel_err
        if err <= abs_budget:
            return diag, err, count
        prev_diag = diag
    raise TailNonconvergenceError(
        f"tail error estimate {err:.3e} not within budget {abs_budget:.3e} "
        f"after {count} panels from t={b}"
    )


def integrate_semi_infinite(
    f: Callable[[float], float], a: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> QuadratureResult:
    """Integrate f over [a, infinity).

    The integrand must decay at least like 1/t^2.  The finite part up to
    ``a + _SEMI_INFINITE_SPLIT`` is integrated adaptively; the remainder by
    the extrapolated panel scheme.

    Raises:
        TailNonconvergenceError: tail estimate not shrinking under refinement.
        (plus the integrate_finite error modes for the head)
    """
    split = a + _SEMI_INFINITE_SPLIT
    head = integrate_finite(f, a, split, replace(cfg, abs_tol=0.5 * cfg.abs_tol, rel_tol=0.5 * cfg.rel_tol))
    tail_budget = 0.5 * _tolerance_bound(cfg, head.value)
    tail_value, tail_err, panels = _tail_extrapolation(f, split, tail_budget)
    value = head.value + tail_value
    err = head.error_estimate + tail_err
    if err > _tolerance_bound(cfg, value):
        raise TailNonconvergenceError(
            f"combined error {err:.3e} above tolerance for integral from {a}"
        )
    return QuadratureResult(
        value=value,
        error_estimate=err,
        subdivisions_used=head.subdivisions_used + panels,
    )
