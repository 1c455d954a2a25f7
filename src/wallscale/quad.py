"""Deterministic adaptive quadrature for smooth, oscillatory integrands.

Finite intervals go to QUADPACK (adaptive 21-point Gauss-Kronrod, scipy's
``quad``).  Semi-infinite integrals over [a, inf) are split at a + 60; the
head is handled by QUADPACK and the tail by fixed Gauss-Kronrod panels of
length pi, matching sin^2-type oscillations, whose partial sums are
extrapolated to infinity (Neville in the reciprocal endpoint) for envelopes
decaying as slowly as 1/t^2.  The public API and the real-space volume oracle
use these integrators; the kernels share only the GK15 table below.

All routines are pure functions of their inputs: identical calls produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad as _scipy_quad

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


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    def wrapped(t: float) -> float:
        v = f(t)
        if not math.isfinite(v):
            raise NonFiniteIntegrandError(f"integrand returned {v!r} at t={t!r}")
        return v

    return wrapped


def _tolerance_bound(cfg: QuadratureConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def integrate_finite(
    f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> QuadratureResult:
    """Integrate f over [a, b] adaptively.

    Integrable endpoint singularities are tolerated (QUADPACK never evaluates
    the endpoints); the integrand must be finite at every interior node.

    Raises:
        SubdivisionLimitError: adaptive budget exhausted.
        NonFiniteIntegrandError: NaN/inf at an interior node.
        QuadratureError: converged estimate still above tolerance.
    """
    if not (a < b):
        raise ValueError(f"require a < b, got a={a!r}, b={b!r}")
    out = _scipy_quad(
        _checked(f),
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, err, info = out[0], out[1], out[2]
    if len(out) > 3:
        if info["last"] >= cfg.max_subdivisions:
            raise SubdivisionLimitError(
                f"subdivision budget {cfg.max_subdivisions} exhausted on [{a}, {b}]: {out[3]}"
            )
        if err > _tolerance_bound(cfg, value):
            raise QuadratureError(f"quadrature on [{a}, {b}] did not converge: {out[3]}")
    if err > _tolerance_bound(cfg, value):
        raise QuadratureError(
            f"error estimate {err:.3e} exceeds tolerance on [{a}, {b}] (value {value:.6e})"
        )
    return QuadratureResult(value=value, error_estimate=err, subdivisions_used=info["last"])


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

# abscissa offset past which a semi-infinite tail takes the panel scheme
_SEMI_INFINITE_SPLIT = 60.0
_PANEL = math.pi
_TAIL_BASE_PANELS = 8
_TAIL_MAX_DOUBLINGS = 12
_TAIL_MAX_ORDER = 8


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        f1 = f(c - x)
        f2 = f(c + x)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * h, abs(resk - resg) * h


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
            if not math.isfinite(v):
                raise NonFiniteIntegrandError(f"non-finite tail panel at t~{b + count * _PANEL}")
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
    head_cfg = QuadratureConfig(
        abs_tol=0.5 * cfg.abs_tol,
        rel_tol=0.5 * cfg.rel_tol,
        max_subdivisions=cfg.max_subdivisions,
    )
    head = integrate_finite(f, a, split, head_cfg)
    tail_budget = 0.5 * max(cfg.abs_tol, cfg.rel_tol * abs(head.value))
    fc = _checked(f)
    tail_value, tail_err, panels = _tail_extrapolation(fc, split, tail_budget)
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
