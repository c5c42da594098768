import math

import mpmath
import numpy as np
import pytest

from hardyops import (
    ConvergenceError,
    DomainError,
    HardyParams,
    a_star,
    a_star_star,
    hardy_constant,
    log_gamma,
    make_params,
    psi,
    psi_inv,
    sphere_area,
)

mpmath.mp.dps = 40


def _mp_hardy(d, alpha):
    num = mpmath.gamma((d + alpha) / mpmath.mpf(4))
    den = mpmath.gamma((d - alpha) / mpmath.mpf(4))
    return float(mpmath.mpf(2) ** alpha * (num / den) ** 2)


def test_log_gamma_against_mpmath(rng):
    xs = np.concatenate([10.0 ** rng.uniform(-3, 3, 40), [0.5, 1.0, 2.0, 7.5]])
    for x in xs:
        expected = float(mpmath.loggamma(mpmath.mpf(float(x))))
        assert log_gamma(float(x)) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_sphere_area_closed_forms():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    for d in (2, 3, 4, 5, 8):
        expected = float(2 * mpmath.pi ** (d / mpmath.mpf(2)) / mpmath.gamma(d / mpmath.mpf(2)))
        assert sphere_area(d) == pytest.approx(expected, rel=1e-13)


def test_hardy_constant_against_mpmath():
    for d, alpha in [(2, 0.5), (3, 0.7), (3, 1.0), (4, 1.9), (5, 1.1), (3, 2.0)]:
        assert hardy_constant(d, alpha) == pytest.approx(_mp_hardy(d, alpha), rel=1e-13)


def test_hardy_constant_exact_values():
    assert hardy_constant(3, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert hardy_constant(3, 2.0) == pytest.approx(0.25, rel=1e-14)


def test_critical_couplings():
    assert a_star(3, 1.0) == -hardy_constant(3, 1.0)
    assert a_star_star(3, 1.0) == pytest.approx(-0.5, rel=1e-14)
    # identity a_**^2 = hardy_constant(d, 2 alpha)
    for d, alpha in [(3, 1.0), (5, 2.0), (4, 1.5), (2, 0.9)]:
        val = a_star_star(d, alpha)
        assert val < 0.0
        assert val * val == pytest.approx(hardy_constant(d, 2.0 * alpha), rel=1e-13)


def test_a_star_star_ordering():
    # strictly between the critical coupling and zero whenever defined
    for d, alpha in [(2, 0.5), (3, 1.0), (5, 1.0), (5, 2.0)]:
        assert a_star(d, alpha) < a_star_star(d, alpha) < 0.0


def test_a_star_star_requires_alpha_below_half_dimension():
    with pytest.raises(DomainError):
        a_star_star(3, 1.5)
    with pytest.raises(DomainError):
        a_star_star(2, 1.0)


def test_psi_exact_points():
    assert psi(3, 1.0, 0.0) == 0.0
    assert psi(3, 1.0, 1.0) == a_star(3, 1.0)
    assert psi(3, 1.0, 0.5) == pytest.approx(-0.5, rel=1e-13)


def test_psi_strictly_decreasing():
    for d, alpha in [(2, 0.5), (3, 1.0), (3, 1.5), (5, 1.0)]:
        hi = 0.5 * (d - alpha)
        sigmas = np.linspace(-alpha + 0.02 * alpha, hi, 60)
        values = [psi(d, alpha, float(s)) for s in sigmas]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_psi_blows_up_near_left_edge():
    assert psi(3, 1.0, -0.999) > 1e2
    assert psi(3, 1.0, -0.999999) > 1e5


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        psi(3, 1.0, -1.0)
    with pytest.raises(DomainError):
        psi(3, 1.0, 1.0000001)
    with pytest.raises(DomainError):
        psi(3, 2.0, 0.5)  # alpha at the stable-order boundary
    with pytest.raises(DomainError):
        psi(1, 0.5, 0.1)
    with pytest.raises(DomainError):
        psi(3.0, 1.0, 0.5)  # non-integer dimension


def test_psi_inv_roundtrip():
    for d, alpha in [(2, 0.5), (3, 1.0), (3, 1.5), (5, 1.0)]:
        hi = 0.5 * (d - alpha)
        for sigma in np.linspace(-alpha + 0.01 * alpha, hi, 40):
            sigma = float(sigma)
            back = psi_inv(d, alpha, psi(d, alpha, sigma))
            assert abs(back - sigma) <= 1e-10


def test_psi_inv_exact_endpoints():
    assert psi_inv(3, 1.0, a_star(3, 1.0)) == 1.0
    assert psi_inv(3, 1.0, 0.0) == 0.0


def test_psi_inv_large_target_sits_near_left_edge():
    delta = psi_inv(3, 1.0, 1e6)
    assert -1.0 < delta < -0.999
    assert psi(3, 1.0, delta) == pytest.approx(1e6, rel=1e-6)


def test_psi_inv_unrepresentable_target_raises():
    with pytest.raises(ConvergenceError):
        psi_inv(3, 1.0, 1e300)


def test_psi_inv_domain_errors():
    with pytest.raises(DomainError):
        psi_inv(3, 1.0, a_star(3, 1.0) - 1e-6)
    with pytest.raises(DomainError):
        psi_inv(3, 1.0, float("nan"))


def test_make_params_fields():
    params = make_params(3, 1.0, -0.3)
    assert isinstance(params, HardyParams)
    assert params.d == 3 and params.alpha == 1.0 and params.a == -0.3
    assert params.a_star == a_star(3, 1.0)
    assert params.a_star_star == a_star_star(3, 1.0)
    assert psi(3, 1.0, params.delta) == pytest.approx(-0.3, abs=1e-10)
    assert params.delta_plus == max(params.delta, 0.0)


def test_make_params_zero_coupling_is_exact():
    params = make_params(3, 1.0, 0.0)
    assert params.delta == 0.0
    assert params.delta_plus == 0.0


def test_make_params_second_coupling_absent_at_large_alpha():
    params = make_params(3, 1.5, -0.1)
    assert params.a_star_star is None


def test_make_params_is_frozen():
    params = make_params(3, 1.0, 0.0)
    with pytest.raises(AttributeError):
        params.a = 1.0


def test_make_params_rejects_bad_inputs():
    with pytest.raises(DomainError):
        make_params(3, 2.0, 0.0)  # alpha must stay below the stable order
    with pytest.raises(DomainError):
        make_params(3, 1.0, a_star(3, 1.0) - 0.01)
    with pytest.raises(DomainError):
        make_params(1, 0.5, 0.0)
    with pytest.raises(DomainError):
        make_params(2, -0.5, 0.0)
