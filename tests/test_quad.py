import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from wallscale import (
    NonFiniteIntegrandError,
    QuadratureConfig,
    SubdivisionLimitError,
    integrate_finite,
    integrate_semi_infinite,
    quad,
)
from wallscale.errors import QuadratureError
from wallscale.quad import _check_rule, _gk15, _gk_panels

PI_HALF = math.pi / 2.0


def sinc_sq(t: float) -> float:
    if t == 0.0:
        return 1.0
    return (math.sin(t) / t) ** 2


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-10)


def test_sine_over_half_period():
    res = integrate_finite(math.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate <= max(1e-10, 1e-8 * 2.0)


def test_constant():
    res = integrate_finite(lambda t: 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_bad_interval():
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 1.0, 1.0)


def test_partial_plus_tail_gives_pi_half():
    partial = integrate_finite(sinc_sq, 0.0, 50.0)
    tail = integrate_semi_infinite(sinc_sq, 50.0)
    assert partial.value + tail.value == pytest.approx(PI_HALF, abs=1e-8)


def test_semi_infinite_sinc_sq():
    res = integrate_semi_infinite(sinc_sq, 0.0)
    assert res.value == pytest.approx(PI_HALF, abs=1e-8)
    assert res.error_estimate <= max(1e-10, 1e-8 * res.value)


def test_semi_infinite_lorentzian_weighted():
    res = integrate_semi_infinite(lambda t: math.sin(t) ** 2 / (t * t + 1.0), 0.0)
    target = (math.pi / 4.0) * (1.0 - math.exp(-2.0))
    assert res.value == pytest.approx(target, abs=1e-8)


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda t: math.exp(-t), 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_linearity_on_random_polynomials():
    rng = np.random.default_rng(42)
    for _ in range(10):
        pc = rng.uniform(-2.0, 2.0, size=4)
        qc = rng.uniform(-2.0, 2.0, size=4)
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)
        p = np.polynomial.Polynomial(pc)
        q = np.polynomial.Polynomial(qc)
        combined = integrate_finite(lambda t: alpha * p(t) + beta * q(t), 0.0, 1.0)
        separate_p = integrate_finite(lambda t: float(p(t)), 0.0, 1.0)
        separate_q = integrate_finite(lambda t: float(q(t)), 0.0, 1.0)
        expected = alpha * separate_p.value + beta * separate_q.value
        budget = (
            combined.error_estimate
            + abs(alpha) * separate_p.error_estimate
            + abs(beta) * separate_q.error_estimate
            + 1e-14
        )
        assert abs(combined.value - expected) <= budget


def test_refinement_monotonicity():
    # halving abs_tol never worsens the achieved error against a closed form
    exact = 2.0
    prev_err = math.inf
    tol = 1e-4
    while tol >= 1e-12:
        cfg = QuadratureConfig(abs_tol=tol, rel_tol=0.0)
        res = integrate_finite(math.sin, 0.0, math.pi, cfg)
        err = abs(res.value - exact)
        assert err <= prev_err + 1e-15
        prev_err = err
        tol /= 2.0


def test_determinism():
    a = integrate_semi_infinite(sinc_sq, 0.0)
    b = integrate_semi_infinite(sinc_sq, 0.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions_used == b.subdivisions_used


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteIntegrandError):
        integrate_finite(lambda t: 1.0 / (t - 0.5) if t != 0.5 else math.inf, 0.0, 1.0)


def test_subdivision_budget_exhaustion():
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
    with pytest.raises(SubdivisionLimitError):
        integrate_finite(lambda t: math.sin(50.0 * t) * math.cos(31.0 * t), 0.0, 60.0, cfg)


def test_error_contract_on_success():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7)
    res = integrate_semi_infinite(sinc_sq, 0.0, cfg)
    assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


def test_tail_nonconvergence_raises():
    from wallscale import TailNonconvergenceError

    # decays slower than 1/t^2, violating the precondition: the tail error
    # estimate stops shrinking and the call must fail loudly
    with pytest.raises(TailNonconvergenceError):
        integrate_semi_infinite(lambda t: 1.0 / (1.0 + t) ** 1.2, 0.0)


@pytest.mark.parametrize("f, exact", [(math.log, -1.0), (lambda u: u**-0.5, 2.0)], ids=["log", "inverse_sqrt"])
@pytest.mark.parametrize("cfg", [quad.DEFAULT_CONFIG, QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)], ids=["default", "rel1e-13"])
def test_endpoint_singularity_error_within_estimate_within_tolerance(f, exact, cfg):
    # GK15 never evaluates the endpoint; bisection toward it shrinks the one
    # singular panel, and its Kronrod-minus-Gauss estimate bounds the error
    res = integrate_finite(f, 0.0, 1.0, cfg)
    assert abs(res.value - exact) <= res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


def test_panel_too_narrow_for_its_nodes_raises_before_an_end_is_evaluated():
    # toward a singular end other than 0 the panels shrink until their outer
    # nodes round onto the end, where (1 - u)^-1/2 raised ZeroDivisionError
    ends = []

    def f(u):
        if u in (0.0, 1.0):
            ends.append(u)
        return (1.0 - u) ** -0.5

    with pytest.raises(QuadratureError, match="too narrow"):
        integrate_finite(f, 0.0, 1.0, QuadratureConfig(abs_tol=0.0, rel_tol=1e-13))
    assert ends == []


@pytest.mark.parametrize("f", [lambda u: (u - 1.0) ** -0.5, lambda u: (2.0 - u) ** -0.5], ids=["left", "right"])
@pytest.mark.parametrize(
    "cfg, raises",
    [(quad.DEFAULT_CONFIG, True), (QuadratureConfig(abs_tol=0.0, rel_tol=1e-13), True),
     (QuadratureConfig(abs_tol=0.0, rel_tol=1e-6), False)],
    ids=["default", "rel1e-13", "rel1e-6"],
)
def test_singular_end_other_than_zero_error_within_estimate_or_typed_error(f, cfg, raises):
    # toward u = 1 the narrowest panels were a few hundred ulps wide, rounding
    # moved their nodes, and at the default tolerance the value 1.999999985137997
    # was off by 1.49e-8 against an estimate of 2.72e-9
    if raises:
        with pytest.raises(QuadratureError, match="too narrow"):
            integrate_finite(f, 1.0, 2.0, cfg)
    else:
        res = integrate_finite(f, 1.0, 2.0, cfg)
        assert abs(res.value - 2.0) <= res.error_estimate <= cfg.rel_tol * res.value


def test_gk15_panel_weights_are_exact_on_monomials():
    # Kronrod weights integrate degree <= 22 exactly; the Kronrod-minus-Gauss
    # weights annihilate degree <= 13, where the embedded Gauss rule is exact;
    # on panels inside [-1, 1] every monomial and integral is at most 1
    edges = np.sort(np.random.default_rng(7).uniform(-1.0, 1.0, 12))
    nodes, kronrod, excess = _gk_panels(edges)
    for p in range(23):
        exact = (edges[1:] ** (p + 1) - edges[:-1] ** (p + 1)) / (p + 1)
        assert np.all(np.abs((nodes**p * kronrod).sum(axis=1) - exact) <= 1e-15)
        if p <= 13:
            assert np.all(np.abs((nodes**p * excess).sum(axis=1)) <= 1e-15)


def test_gk15_is_the_one_panel_sum():
    def f(t):
        return t * t * t - 2.0 * t + 0.5

    nodes, kronrod, excess = (a[0] for a in _gk_panels(np.array([0.3, 1.7])))
    fx = f(nodes)
    assert _gk15(f, 0.3, 1.7) == (fx @ kronrod, abs(fx @ excess))


PHYSICS_MODULES = ["kernels", "walls", "minimize", "magnetostatics", "lab", "cli"]


@pytest.mark.parametrize(
    "value, error, what",
    [
        (0.0, 0.0, "below the normal range"),
        (1e-310, 0.0, "below the normal range"),
        (math.nan, 0.0, "not finite"),
        (math.inf, 0.0, "not finite"),
        (2.0, 2.1e-8, "above tolerance"),
    ],
    ids=["zero", "subnormal", "nan", "inf", "error"],
)
def test_check_rule_raises_at_the_first_bad_value(monkeypatch, value, error, what):
    monkeypatch.setattr(quad, "_RULE_TOL", 1e-8)
    values, errors = np.array([1.0, value, 0.0]), np.array([0.0, error, 0.0])
    with pytest.raises(QuadratureError, match=f"^v .* {what} at i=1$"):
        _check_rule("v", values, errors, lambda i: f"i={i}")
    with pytest.raises(QuadratureError, match=what):
        _check_rule("v", value, error, lambda i: "here")


def test_check_rule_passes_normal_values_within_tolerance(monkeypatch):
    monkeypatch.setattr(quad, "_RULE_TOL", 1e-8)
    assert _check_rule("v", np.array([1.0, -1e-300, 1e300]), np.array([1e-8, 0.0, 1e292]), str) is None
    assert _check_rule("v", 2.0, 2e-8, str) is None


@pytest.mark.parametrize("name", PHYSICS_MODULES)
def test_physics_modules_bind_no_adaptive_integrator(name):
    # adaptive quadrature serves quad's public API only; the physics stack
    # shares nothing with it but the fixed-rule tables
    forbidden = (quad.integrate_finite, quad.integrate_semi_infinite, quad.QuadratureConfig, scipy_quad)
    module = importlib.import_module(f"wallscale.{name}")
    bound = [key for key, value in vars(module).items() if any(value is f for f in forbidden)]
    assert bound == []


@pytest.mark.parametrize("name", PHYSICS_MODULES)
def test_physics_modules_bind_no_scipy_optimizer(name):
    # the ansatz scale search is Newton on closed-form derivatives
    module = importlib.import_module(f"wallscale.{name}")
    bound = [
        key for key, value in vars(module).items()
        if getattr(inspect.getmodule(value), "__name__", "").startswith("scipy.optimize")
    ]
    assert bound == []


def test_package_import_loads_no_scipy_integrate_or_optimize():
    # the package imports no scipy module, and no kernel loads one: the rate
    # sweep on the criterion-8 grid, the ansatz search on wide films, the
    # descent and a kernel call load none of them; a fresh interpreter shows it
    code = """
import sys, wallscale, wallscale.cli
from wallscale import CrossSection, arc_profile, kernels, minimize_full_ansatz, minimize_reduced, rate_sweep
def loaded():
    return sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') if m in sys.modules)
print(loaded())
assert all(r.passed for r in rate_sweep([CrossSection(1e-3, c * 1e-3) for c in (1e-2, 1e-4, 1e-6)]))
for l in (1.0, 100.0):
    minimize_full_ansatz(CrossSection(l, 1e-2 * l))
minimize_reduced(arc_profile(20.0, 65), 1.0)
print(loaded())
kernels.kernel_batch(CrossSection(1.0, 1e-2), True, [3.0])
print(loaded())
"""
    assert _fresh_interpreter(code).split("\n")[:3] == ["[]", "[]", "[]"]


def test_crosscheck_operation_loads_no_scipy():
    # the oracle path: the Lipschitz check, the Richardson E_s oracle and
    # spectral and real-space E_v on a perturbed golden wall at N = 2049 load
    # no scipy module at all (importing scipy.special alone adds about 25 MB of
    # resident memory)
    code = """
import sys
import numpy as np
from wallscale import ClosedFormWall, CrossSection, Profile1D, emag_lipschitz_check, e_v_spectral, sample_wall
from wallscale.magnetostatics import e_v_volume_oracle, richardson_boundary_oracle
cs = CrossSection(0.1, 0.05)
base = sample_wall(ClosedFormWall(alpha=1.0 / np.pi, beta=1.0, theta=0.0), 26.0, 2049)
m = base.m.copy()
m[:, 1] += 0.1 * np.exp(-((base.x - 2.0) ** 2))
m[:, 2] -= 0.1 * np.exp(-((base.x + 1.0) ** 2))
m /= np.linalg.norm(m, axis=1)[:, None]
wall = Profile1D(base.x, m)
assert emag_lipschitz_check(wall, base, cs).passed
richardson_boundary_oracle(wall, cs)
assert abs(e_v_spectral(wall, cs) / e_v_volume_oracle(wall, cs) - 1.0) < 0.05
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    assert _fresh_interpreter(code).split("\n")[0] == "[]"


def test_adaptive_integrators_load_no_scipy():
    # both criterion-1 identities run on quad's own GK15 rule, with no
    # QUADPACK call, so a fresh interpreter loads no scipy module at all
    code = """
import math, sys
from wallscale import integrate_semi_infinite
integrate_semi_infinite(lambda t: (math.sin(t) / t) ** 2 if t != 0.0 else 1.0, 0.0)
integrate_semi_infinite(lambda t: math.sin(t) ** 2 / (t * t + 1.0), 0.0)
print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))
"""
    assert _fresh_interpreter(code).split("\n")[0] == "[]"


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run by a new Python process on this source tree."""
    src = str(Path(quad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
