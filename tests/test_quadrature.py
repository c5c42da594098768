import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from hardyops import (
    ConvergenceError,
    DomainError,
    KernelTriple,
    QuadResult,
    gamma_negative_half_integral_check,
    integrate_semiinfinite,
    make_params,
    riesz_time_integral,
    schur_weight_integral,
    sphere_area,
)
from hardyops.quadrature import gamma_reflection_oracle

mpmath.mp.dps = 30


def test_integrator_exponential():
    res = integrate_semiinfinite(lambda t: np.exp(-t), 1e-10)
    assert isinstance(res, QuadResult)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.evaluations > 0
    assert res.abs_error_estimate <= 1e-10


def test_integrator_algebraic_tail():
    res = integrate_semiinfinite(lambda t: 1.0 / (1.0 + t * t), 1e-9)
    assert res.value == pytest.approx(0.5 * math.pi, abs=1e-8)


def test_integrator_with_kink_matches_scipy():
    def f(t):
        return np.exp(-t) * np.abs(t - 1.0)

    res = integrate_semiinfinite(f, 1e-10, kinks=(1.0,))
    head, _ = sp_integrate.quad(lambda t: math.exp(-t) * abs(t - 1.0), 0, 50.0,
                                points=[1.0])
    tail, _ = sp_integrate.quad(lambda t: math.exp(-t) * abs(t - 1.0), 50.0, np.inf)
    assert res.value == pytest.approx(head + tail, abs=1e-9)


def test_integrator_gaussian_spike_off_origin():
    res = integrate_semiinfinite(
        lambda t: np.exp(-((t - 20.0) ** 2)), 1e-10, kinks=(20.0,)
    )
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_integrator_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.exp(-t), 0.0)
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.exp(-t), float("inf"))


def test_integrator_rejects_non_finite_integrand():
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.full_like(t, np.nan), 1e-8)


def test_integrator_rejects_non_decaying_tail():
    with pytest.raises(ConvergenceError):
        integrate_semiinfinite(lambda t: np.ones_like(t), 1e-8)


def test_integrator_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError):
        integrate_semiinfinite(lambda t: 1.0 / (1.0 + t * t), 1e-18)


def test_riesz_time_anchor_sixteen_sevenths():
    params = make_params(3, 1.0, 0.0)
    value = riesz_time_integral(1.0, KernelTriple(1.0, 1.0, 1.0), params)
    assert value == pytest.approx(16.0 / 7.0, rel=1e-10)


def test_riesz_time_integral_geometry_independent_at_zero_coupling(rng):
    # With delta = 0 the time integral reduces to a pure power of the
    # distance; stripping that power must leave the same number for
    # every admissible geometry.
    params = make_params(3, 1.0, 0.0)
    s = 1.0
    reference = None
    for _ in range(8):
        rx, ry = 10.0 ** rng.uniform(-1, 1, 2)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1 - mu)) + 1e-300
        value = riesz_time_integral(s, KernelTriple(rx, ry, rxy), params)
        stripped = value * rxy ** (3.0 - 0.5 * s)
        if reference is None:
            reference = stripped
        assert stripped == pytest.approx(reference, rel=1e-8)


def test_riesz_time_integral_against_mpmath(params_half_critical):
    params = params_half_critical
    s = 1.0
    d, alpha, delta = params.d, params.alpha, params.delta
    for rx, ry, rxy in [(1.0, 2.0, 2.5), (0.2, 1.0, 1.1), (3.0, 3.0, 0.5)]:
        lcx = mpmath.log(mpmath.mpf(rxy) / rx)
        lcy = mpmath.log(mpmath.mpf(rxy) / ry)

        def integrand(t):
            lt = mpmath.log(t)
            le = (s / 2 - 1) * lt + min(mpmath.mpf(0), (-d / mpmath.mpf(alpha) - 1) * lt)
            le += delta * max(mpmath.mpf(0), lcx + lt / alpha)
            le += delta * max(mpmath.mpf(0), lcy + lt / alpha)
            return mpmath.e**le

        kinks = sorted({1.0, (rx / rxy) ** alpha, (ry / rxy) ** alpha})
        expected = mpmath.quad(integrand, [0] + kinks + [mpmath.inf])
        expected = float(rxy ** (0.5 * alpha * s - d) * expected)
        value = riesz_time_integral(s, KernelTriple(rx, ry, rxy), params)
        assert value == pytest.approx(expected, rel=1e-7)


def test_riesz_time_integral_rejects_exponent_outside_window(params_critical):
    with pytest.raises(DomainError):
        riesz_time_integral(2.5, KernelTriple(1.0, 1.0, 1.0), params_critical)
    with pytest.raises(DomainError):
        riesz_time_integral(-0.5, KernelTriple(1.0, 1.0, 1.0), params_critical)


def test_gamma_integral_matches_reflection_oracle():
    for s in (0.5, 1.0, 1.5):
        measured = gamma_negative_half_integral_check(s)
        assert measured == pytest.approx(gamma_reflection_oracle(s), rel=1e-9)


def test_gamma_oracle_against_mpmath(rng):
    for s in np.concatenate([[0.5, 1.0, 1.5], rng.uniform(0.1, 1.9, 10)]):
        s = float(s)
        expected = float(mpmath.gamma(mpmath.mpf(-s) / 2))
        assert gamma_reflection_oracle(s) == pytest.approx(expected, rel=1e-12)
        assert expected < 0.0  # gamma(-s/2) is negative throughout (0, 2)


def test_gamma_integral_domain():
    with pytest.raises(DomainError):
        gamma_negative_half_integral_check(0.0)
    with pytest.raises(DomainError):
        gamma_negative_half_integral_check(2.0)


def test_schur_anchor_six_pi():
    res = schur_weight_integral(1.0, 0.0, 3)
    assert not res.divergent
    assert res.value == pytest.approx(6.0 * math.pi, rel=1e-10)


def test_schur_closed_form(rng):
    # An independent route: adaptive quadrature of the radial integrand
    # r^{d-1} / (r^beta (r v 1)^d) ((r v 1)/(r ^ 1))^{delta_+}, split at
    # the kink r = 1.  In u = ln r both halves decay exponentially, which
    # QUADPACK resolves even where the exponents in r approach -1.
    for _ in range(10):
        d = int(rng.integers(2, 6))
        delta_plus = float(rng.uniform(0.0, 0.4 * d))
        beta = float(rng.uniform(delta_plus + 0.05, d - delta_plus - 0.05))
        res = schur_weight_integral(beta, delta_plus, d)

        def radial_du(u):
            # The integrand times dr/du = r at r = e^u, assembled in logs:
            # ln(r v 1) = max(u, 0) and ln((r v 1)/(r ^ 1)) = |u|.
            return math.exp(d * u - beta * u - d * max(u, 0.0) + delta_plus * abs(u))

        inner, _ = sp_integrate.quad(radial_du, -math.inf, 0.0, epsabs=0.0, epsrel=1e-13)
        outer, _ = sp_integrate.quad(radial_du, 0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        assert not res.divergent
        assert res.value == pytest.approx(sphere_area(d) * (inner + outer), rel=1e-10)


def test_schur_divergence_flag_exact():
    d = 3
    for beta in np.linspace(-0.5, 3.5, 9):
        for delta_plus in (0.0, 0.4, 1.0):
            res = schur_weight_integral(float(beta), delta_plus, d)
            finite = delta_plus < beta < d - delta_plus
            assert res.divergent == (not finite)
            if res.divergent:
                assert res.value == math.inf


def test_schur_rejects_non_finite_inputs():
    with pytest.raises(DomainError):
        schur_weight_integral(float("inf"), 0.0, 3)
    with pytest.raises(DomainError):
        schur_weight_integral(1.0, float("nan"), 3)
