import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_jacobi

from hardyops import (
    ConvergenceError,
    DomainError,
    HardyParams,
    a_star,
    a_star_star,
    hardy_constant,
    kernels,
    log_abs_gamma,
    log_gamma,
    make_params,
    psi,
    psi_inv,
    sphere_area,
)
from hardyops import specfun
from hardyops.specfun import gauss_jacobi

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


@settings(max_examples=3000, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False))
def test_log_gamma_is_bitwise_gammaln_on_positive_doubles(x):
    # log_gamma is the Cephes routine gammaln runs, so the doubles agree,
    # including the overflow to inf at both ends of the range.
    assert log_gamma(x) == gammaln(x)


@pytest.mark.parametrize("point", [1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305])
def test_log_gamma_is_bitwise_gammaln_at_its_branch_points(point):
    for x in (math.nextafter(point, 0.0), point, math.nextafter(point, math.inf)):
        assert log_gamma(x) == gammaln(x)


def test_log_gamma_rejects_nonpositive_and_nonfinite_arguments():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_gamma(x)


def _mp_log_abs_gamma(x, y):
    return mpmath.loggamma(mpmath.mpc(float(x), float(y))).real


def test_log_abs_gamma_against_mpmath(rng):
    # The strip the near-field symbol uses: x = (d -+ alpha)/4 and y = tau/2
    # up to the Nyquist frequency of a 4096-node grid on the default box.
    xs = np.concatenate([rng.uniform(0.02, 3.0, 600), np.linspace(0.02, 3.0, 60)])
    ys = np.concatenate([rng.uniform(0.0, 600.0, 300), rng.uniform(0.0, 20.0, 300),
                         np.linspace(0.0, 600.0, 60)])
    vals = log_abs_gamma(xs, ys)
    scaled = specfun._scaled_log_abs_gamma(xs, ys)
    for x, y, val, sc in zip(xs, ys, vals, scaled):
        exact = _mp_log_abs_gamma(x, y)
        # Without its decay term -pi |y| / 2 the value is within 1e-14; the
        # returned value adds the rounding of that term, up to two ulps.
        assert abs(sc - float(exact + mpmath.pi * abs(y) / 2)) <= 1e-14
        assert abs(val - float(exact)) <= 1e-14 + 2.0 * math.ulp(float(exact))


def test_log_abs_gamma_on_the_real_axis_is_log_gamma():
    xs = np.geomspace(1e-3, 60.0, 400)
    vals = log_abs_gamma(xs, 0.0)
    for x, val in zip(xs, vals):
        assert val == pytest.approx(log_gamma(float(x)), rel=3e-14, abs=1e-14)


@settings(max_examples=400, deadline=None)
@given(
    x=st.floats(min_value=1e-3, max_value=3.0),
    y=st.floats(min_value=-600.0, max_value=600.0),
)
def test_log_abs_gamma_recurrence_and_conjugate_symmetry(x, y):
    at_z = log_abs_gamma(x, y)
    assert log_abs_gamma(x, -y) == at_z
    at_next = log_abs_gamma(x + 1.0, y)
    # Both values carry the rounding of their decay term -pi |y| / 2.
    slack = 2e-14 + math.ulp(at_z) + math.ulp(at_next)
    assert abs(at_next - at_z - math.log(math.hypot(x, y))) <= slack


def test_log_abs_gamma_broadcasts_and_keeps_scalars_scalar():
    assert isinstance(log_abs_gamma(1.5, 2.0), float)
    grid = log_abs_gamma(np.array([[0.5], [1.5]]), np.array([0.0, 1.0, 2.0]))
    assert grid.shape == (2, 3)
    assert grid[1, 2] == log_abs_gamma(1.5, 2.0)


@pytest.mark.parametrize("x,y", [(0.0, 0.0), (-1.0, 0.0), (-2.5, 1.0), (0.0, 3.0),
                                 (math.nan, 1.0), (1.0, math.inf), (math.inf, 0.0)])
def test_log_abs_gamma_rejects_poles_and_nonfinite_input(x, y):
    with pytest.raises(DomainError):
        log_abs_gamma(x, y)
    with pytest.raises(DomainError):
        log_abs_gamma(np.array([1.0, x]), np.array([0.5, y]))


def _requested_rules():
    """Every (n, a, b) rule the package requests for d = 2, ..., 10: the
    chord-table rules of ``operators._chord_power_integrals`` and the
    angular-average rule of ``kernels.angular_average``."""
    rules = {(24, 0.0, 0.0)}
    for d in range(2, 11):
        beta = 0.5 * (d - 3)
        rules |= {(64, beta, beta), (64, 0.0, beta), (64, beta, 0.0),
                  (kernels.ANGULAR_NODES, beta, beta)}
    return sorted(rules)


def _mp_weights(n, a, b, nodes):
    """Gauss-Jacobi weights at the exact roots next to the given nodes,
    from the closed weight formula with mpmath's Jacobi polynomials."""
    with mpmath.workdps(32):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        scale = (2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                 / (mpmath.gamma(n + a + b + 1) * mpmath.gamma(n + 1)))
        weights = []
        for x in nodes:
            x = mpmath.mpf(float(x))
            for _ in range(3):
                slope = (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x)
                x -= mpmath.jacobi(n, a, b, x) / slope
            slope = (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x)
            weights.append(float(scale / ((1 - x * x) * slope * slope)))
    return np.array(weights)


@pytest.mark.parametrize("n,a,b", _requested_rules())
def test_gauss_jacobi_matches_scipy_nodes_and_mpmath_weights(n, a, b):
    x, w = gauss_jacobi(n, a, b)
    ref_x, ref_w = roots_jacobi(n, a, b)
    assert np.max(np.abs(x - ref_x)) <= 3.4e-16
    # scipy's own weights are off by up to 6.5e-12 on these rules.
    assert np.max(np.abs(w / _mp_weights(n, a, b, x) - 1.0)) <= 2e-13
    assert np.max(np.abs(w / ref_w - 1.0)) <= 7e-12
    if a == b:
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_jacobi_handles_a_plus_b_of_minus_one():
    # d = 2 rules have a + b = -1, where the general recurrence
    # coefficient is 0/0; the rule still integrates x^k exactly.
    x, w = gauss_jacobi(12, 0.0, -0.5)
    for k in range(2 * 12):
        exact = float(mpmath.quad(lambda t: t**k * (1 + t) ** -0.5, [-1, 1]))
        assert float(np.dot(w, x**k)) == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_gauss_jacobi_rejects_bad_arguments():
    for n, a, b in [(0, 0.0, 0.0), (2.0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, math.nan),
                    (4, math.inf, 0.0)]:
        with pytest.raises(DomainError):
            gauss_jacobi(n, a, b)


def test_gauss_jacobi_is_memoized_and_read_only():
    x, w = gauss_jacobi(16, 0.5, 0.5)
    assert gauss_jacobi(16, 0.5, 0.5)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


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


def test_infinite_coupling_is_a_domain_error():
    # +inf would pass the a >= a_star test and fail to bracket (a
    # convergence error); it is an invalid input, like nan and -inf.
    for a in (math.inf, -math.inf):
        with pytest.raises(DomainError):
            psi_inv(3, 1.0, a)
        with pytest.raises(DomainError):
            make_params(3, 1.0, a)


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
