import math

import numpy as np
import pytest

from wallscale import (
    NonFiniteIntegrandError,
    QuadratureConfig,
    SubdivisionLimitError,
    integrate_finite,
    integrate_semi_infinite,
)

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
