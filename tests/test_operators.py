import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from hardyops import operators
from hardyops import (
    ConstructionError,
    DomainError,
    PotentialSpec,
    SpectralOperator,
    a_star,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    heat_kernel_matrix,
    integrate_semiinfinite,
    jump_profile,
    make_params,
    psi,
)
from hardyops.specfun import gauss_jacobi
from hardyops.verify import DEFAULT_GRID_N, DEFAULT_R_MAX, DEFAULT_R_MIN, REFINE_FACTOR


# ---------------------------------------------------------------------------
# grid

def test_log_grid_shape_and_spacing():
    g = build_log_grid(3, 1e-2, 1e2, 101)
    assert g.n == 101
    assert g.r_min == pytest.approx(1e-2)
    assert g.r_max == pytest.approx(1e2)
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert np.all(g.weights > 0)


def test_log_grid_gaussian_mass(small_grid, medium_grid):
    # sum f^2 w approximates the full-space squared norm of the radial
    # Gaussian, pi^{3/2} in dimension three.
    exact = math.pi ** 1.5
    for grid, tol in ((small_grid, 1e-5), (medium_grid, 1e-8)):
        f = np.exp(-grid.nodes ** 2 / 2.0)
        mass = float(np.sum(f * f * grid.weights))
        assert mass == pytest.approx(exact, rel=tol)


def test_log_grid_validation():
    with pytest.raises(DomainError):
        build_log_grid(3, 0.0, 1.0, 64)
    with pytest.raises(DomainError):
        build_log_grid(3, 1.0, 0.5, 64)
    with pytest.raises(DomainError):
        build_log_grid(3, 1e-2, float("inf"), 64)
    with pytest.raises(DomainError):
        build_log_grid(3, 1e-2, 1e2, 1)
    with pytest.raises(DomainError):
        build_log_grid(1, 1e-2, 1e2, 64)


def test_log_grid_weights_must_be_positive_normal_doubles():
    # On the default box the weight |S^{d-1}| h r^d / 2 at r_min is the
    # smallest; it leaves the normal doubles from d = 92 on.  A weight that
    # overflows at r_max is rejected too.
    grid = build_log_grid(91, DEFAULT_R_MIN, DEFAULT_R_MAX, DEFAULT_GRID_N)
    assert grid.weights.min() >= np.finfo(float).tiny
    for d, r_max in ((92, DEFAULT_R_MAX), (100, DEFAULT_R_MAX), (343, DEFAULT_R_MAX), (3, 1e200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=f"normal doubles at d={d} on \\[0.001, "):
                build_log_grid(d, DEFAULT_R_MIN, r_max, DEFAULT_GRID_N)


def test_jump_constant_overflow_is_a_domain_error():
    # Gamma((d+alpha)/2) overflows at d = 343, alpha = 1.9, one dimension
    # before the sphere area's Gamma(d/2) does.
    with pytest.raises(DomainError, match=r"d=343, alpha=1.9: Gamma\(\(d\+alpha\)/2\) overflows"):
        jump_profile(1.0, 343, 1.9)
    grid = build_log_grid(343, 0.9, 1.1, 64)
    with pytest.raises(DomainError, match="jump kernel constant"):
        build_fractional_laplacian(grid, 1.9)

# ---------------------------------------------------------------------------
# free operator

def test_free_operator_matches_mellin_symbol(medium_grid):
    # Applying the free operator to a power r^{-sigma} must reproduce
    # the symbol action on the interior half of the grid; the boundary
    # layer is wider for slowly decaying powers, hence the graded
    # tolerances.
    op = build_fractional_laplacian(medium_grid, 1.0)
    r = medium_grid.nodes
    quarter = medium_grid.n // 4
    for sigma, tol in ((0.3, 4e-2), (0.5, 2e-2), (0.7, 1e-2)):
        out = apply_function(op, lambda lam: lam, r ** -sigma)
        predicted = -psi(3, 1.0, sigma) * r ** -(sigma + 1.0)
        rel = np.abs(out - predicted) / np.abs(predicted)
        assert float(np.max(rel[quarter:-quarter])) < tol


def test_free_operator_positive_spectrum(medium_grid):
    op = build_fractional_laplacian(medium_grid, 1.0)
    assert np.all(op.eigenvalues >= 0.0)
    assert np.all(np.diff(op.eigenvalues) >= 0.0)


def test_operator_holds_only_its_spectrum():
    assert [f.name for f in dataclasses.fields(SpectralOperator)] == [
        "grid", "eigenvalues", "modes"]


def test_modes_weighted_orthonormal(medium_grid):
    op = build_fractional_laplacian(medium_grid, 1.0)
    gram = op.modes.T @ (medium_grid.weights[:, None] * op.modes)
    assert np.max(np.abs(gram - np.eye(medium_grid.n))) < 1e-10


def test_coupled_operator_is_free_plus_exact_diagonal(small_grid):
    from hardyops.operators import _symmetric_free_matrix

    params = make_params(3, 1.0, -0.25)
    free_mat = _symmetric_free_matrix(small_grid, 1.0)
    coupled_mat = free_mat + np.diag(params.a * small_grid.nodes ** -1.0)
    lam = np.linalg.eigvalsh(coupled_mat)
    op = build_hardy_operator(small_grid, params)
    clamped = np.maximum(lam, 0.0)
    assert np.max(np.abs(op.eigenvalues - clamped)) < 1e-9 * max(abs(lam[-1]), 1.0)


def test_critical_operator_annihilates_its_scaling_profile(medium_grid):
    # At the critical coupling the profile r^{-(d-alpha)/2} sits at the
    # bottom of the spectrum; the operator must send it to nearly zero
    # in the interior, measured against the natural r^{-2} scale of the
    # separate terms.
    params = make_params(3, 1.0, a_star(3, 1.0))
    op = build_hardy_operator(medium_grid, params)
    r = medium_grid.nodes
    out = apply_function(op, lambda lam: lam, r ** -1.0)
    quarter = medium_grid.n // 4
    scaled = np.abs(out) * r ** 2
    assert float(np.max(scaled[quarter:-quarter])) < 1e-9
    assert op.eigenvalues[0] >= 0.0


def test_grid_dimension_mismatch_rejected(small_grid):
    params = make_params(5, 1.0, 0.0)
    with pytest.raises(DomainError):
        build_hardy_operator(small_grid, params)


# ---------------------------------------------------------------------------
# semigroup

def test_heat_kernel_symmetry_and_semigroup(small_grid):
    op = build_fractional_laplacian(small_grid, 1.0)
    k1 = heat_kernel_matrix(op, 0.4)
    k2 = heat_kernel_matrix(op, 0.6)
    k_sum = heat_kernel_matrix(op, 1.0)
    assert np.array_equal(k1, k1.T)
    composed = k1 @ (small_grid.weights[:, None] * k2)
    num = np.linalg.norm(composed - k_sum)
    assert num / np.linalg.norm(k_sum) < 1e-8


def test_heat_kernel_time_validation(small_grid):
    op = build_fractional_laplacian(small_grid, 1.0)
    with pytest.raises(DomainError):
        heat_kernel_matrix(op, -0.1)
    with pytest.raises(DomainError):
        heat_kernel_matrix(op, float("inf"))
    k0 = heat_kernel_matrix(op, 0.0)
    ident = k0 @ (small_grid.weights[:, None] * k0) - k0
    assert np.max(np.abs(ident)) < 1e-8 * np.max(np.abs(k0))


def duhamel_check(grid, params, t: float, n_panels: int = 64) -> float:
    """Relative defect of the Duhamel identity at time t.

    Compares exp(-t T) - exp(-t L) against
    a * int_0^t exp(-(t-s) T) r^{-alpha} exp(-s L) ds
    (T the free operator, L the coupled one), with the time integral
    done by Simpson's rule on n_panels panels (an even number).  Returns
    the Frobenius norm of the mismatch relative to the left-hand side;
    exact up to quadrature error in s, so the value reflects time
    resolution only.
    """
    free = build_fractional_laplacian(grid, params.alpha)
    coupled = build_hardy_operator(grid, params)
    sqw = np.sqrt(grid.weights)
    q_free = free.modes * sqw[:, None]
    q_coup = coupled.modes * sqw[:, None]
    lam_f = free.eigenvalues
    lam_c = coupled.eigenvalues

    lhs = (q_free * np.exp(-t * lam_f)) @ q_free.T
    lhs -= (q_coup * np.exp(-t * lam_c)) @ q_coup.T

    bridge = q_free.T @ (grid.nodes[:, None] ** -params.alpha * q_coup)
    s_nodes = np.linspace(0.0, t, n_panels + 1)
    coef = np.ones(n_panels + 1)
    coef[1:-1:2] = 4.0
    coef[2:-1:2] = 2.0
    coef *= t / n_panels / 3.0
    z_mat = np.zeros_like(bridge)
    for s_k, c_k in zip(s_nodes, coef):
        z_mat += c_k * (
            np.exp(-(t - s_k) * lam_f)[:, None]
            * bridge
            * np.exp(-s_k * lam_c)[None, :]
        )
    rhs = params.a * (q_free @ z_mat @ q_coup.T)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def test_duhamel_identity_small_defect(small_grid):
    params = make_params(3, 1.0, a_star(3, 1.0) / 2)
    defect = duhamel_check(small_grid, params, 1.0)
    assert defect < 1e-3
    finer = duhamel_check(small_grid, params, 1.0, n_panels=128)
    assert finer < defect


# ---------------------------------------------------------------------------
# spectral calculus

def apply_function(op, phi, f) -> np.ndarray:
    """Apply phi(operator) to the radial vector f through the eigensystem.

    phi maps the eigenvalue array to an array of the same shape; any
    other shape raises DomainError.  On eigenvalues clamped to zero a
    non-finite phi value is replaced by zero, projecting onto the
    positive subspace, which is the right convention for negative powers
    of operators with a critical zero mode.  Non-finite phi on a strictly
    positive eigenvalue raises DomainError.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.grid.n,):
        raise DomainError(
            f"vector length {f.shape} does not match grid size {op.grid.n}"
        )
    lam = op.eigenvalues
    with np.errstate(all="ignore"):
        vals = np.asarray(phi(lam), dtype=float)
    if vals.shape != lam.shape:
        raise DomainError(
            f"phi returned shape {vals.shape} for eigenvalues of shape {lam.shape}"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad & (lam > 0.0)):
        raise DomainError("phi is not finite on a positive eigenvalue")
    vals = np.where(bad, 0.0, vals)
    coeff = op.modes.T @ (op.grid.weights * f)
    return op.modes @ (vals * coeff)


def test_apply_function_identity_and_positive_projection(medium_grid, rng):
    params = make_params(3, 1.0, a_star(3, 1.0))
    op = build_hardy_operator(medium_grid, params)
    f = rng.standard_normal(medium_grid.n)
    # phi(x) = x reproduces plain application
    direct = op.modes @ (op.eigenvalues * (op.modes.T @ (medium_grid.weights * f)))
    assert np.allclose(apply_function(op, lambda lam: lam, f), direct, atol=1e-12)
    # negative powers drop the clamped-zero modes instead of blowing up
    out = apply_function(op, lambda lam: lam ** -0.5, f)
    assert np.all(np.isfinite(out))


def test_apply_function_rejects_bad_phi(medium_grid, rng):
    op = build_fractional_laplacian(medium_grid, 1.0)
    f = rng.standard_normal(medium_grid.n)
    with pytest.raises(DomainError):
        apply_function(op, lambda lam: np.full_like(lam, np.nan), f)
    with pytest.raises(DomainError):
        apply_function(op, lambda lam: lam, f[:-1])
    # phi must map the eigenvalue array to an array of the same shape
    with pytest.raises(DomainError):
        apply_function(op, lambda lam: 1.0, f)
    with pytest.raises(DomainError):
        apply_function(op, lambda lam: lam[:-1], f)


def test_inverse_power_from_heat_integral(small_grid):
    # lam^{-s/2} = (1/Gamma(s/2)) int_0^inf exp(-lam t) t^{s/2-1} dt,
    # checked on individual eigenvalues with the decay scale seeded so
    # the integrator finds the mass for stiff modes.
    op = build_fractional_laplacian(small_grid, 1.0)
    lam_subset = op.eigenvalues[[1, 5, 50, 150, 255]]
    for s in (0.5, 1.0, 1.5):
        for lam in lam_subset:
            lam = float(lam)
            res = integrate_semiinfinite(
                lambda t: np.exp(-lam * t) * t ** (s / 2 - 1.0),
                1e-12,
                kinks=[[1.0 / lam]],
            )
            got = res.value[0] / math.gamma(s / 2)
            assert got == pytest.approx(lam ** (-s / 2), rel=1e-9)


def test_inverse_power_heat_route_full_vector(small_grid, rng):
    op = build_fractional_laplacian(small_grid, 1.0)
    s = 1.0
    f = rng.standard_normal(small_grid.n)
    direct = apply_function(
        op, lambda lam: np.where(lam > 0, lam ** (-s / 2), 0.0), f
    )
    vals = np.zeros_like(op.eigenvalues)
    for i, lam in enumerate(op.eigenvalues):
        lam = float(lam)
        if lam <= 0.0:
            continue
        res = integrate_semiinfinite(
            lambda t: np.exp(-lam * t) * t ** (s / 2 - 1.0),
            1e-10,
            kinks=[[1.0 / lam]],
        )
        vals[i] = res.value[0] / math.gamma(s / 2)
    coeff = op.modes.T @ (small_grid.weights * f)
    heat_route = op.modes @ (vals * coeff)
    rel = np.linalg.norm(heat_route - direct) / np.linalg.norm(direct)
    assert rel < 1e-10


# ---------------------------------------------------------------------------
# sandwiched potentials

def test_potential_operator_accepts_sandwiched_profile(small_grid):
    crit = a_star(3, 1.0)
    pot = PotentialSpec(
        profile=lambda r: crit * r ** -1.0 * 0.5 * (1.0 + np.exp(-r)),
        a=crit,
        a_tilde=crit / 2,
    )
    op = build_potential_operator(small_grid, 1.0, pot)
    assert np.all(op.eigenvalues >= 0.0)


def test_potential_operator_rejects_escaping_profile(small_grid):
    crit = a_star(3, 1.0)
    pot = PotentialSpec(
        profile=lambda r: np.full_like(r, 1.0),
        a=crit,
        a_tilde=crit / 2,
    )
    with pytest.raises(ConstructionError):
        build_potential_operator(small_grid, 1.0, pot)


def test_potential_operator_rejects_bad_couplings(small_grid):
    crit = a_star(3, 1.0)
    with pytest.raises(DomainError):
        build_potential_operator(
            small_grid, 1.0,
            PotentialSpec(profile=lambda r: 0.0 * r, a=0.5, a_tilde=0.0),
        )
    with pytest.raises(DomainError):
        build_potential_operator(
            small_grid, 1.0,
            PotentialSpec(profile=lambda r: 2 * crit * r ** -1.0,
                          a=2 * crit, a_tilde=0.0),
        )


# ---------------------------------------------------------------------------
# jump profile

def test_jump_profile_positive_symmetric():
    s = np.array([0.01, 0.3, 1.0, 5.0, 40.0])
    k = jump_profile(s, 3, 1.0)
    assert np.all(k > 0)
    assert np.allclose(jump_profile(-s, 3, 1.0), k, rtol=1e-14)
    assert isinstance(jump_profile(1.0, 3, 1.0), float)


def test_jump_profile_singular_head():
    # kappa(s) s^{1+alpha} tends to a constant as s -> 0
    for d, alpha in ((3, 1.0), (4, 1.2)):
        s = np.array([1e-4, 1e-3, 1e-2])
        head = jump_profile(s, d, alpha) * s ** (1.0 + alpha)
        assert np.max(np.abs(head / head[0] - 1.0)) < 1e-3


def test_jump_profile_rejects_zero():
    with pytest.raises(DomainError):
        jump_profile(0.0, 3, 1.0)


@pytest.mark.parametrize("s,d,alpha", [
    (1.0, 3, -1.0), (1.0, 2, -0.5), (1.0, 3, 2.0), (1.0, 1, 0.5), (1.0, 2.0, 1.0),
    (math.nan, 4, 1.0), (np.array([0.5, math.nan]), 2, 1.0),
    (1e-170, 4, 1.0), (1e-170, 3, 1.0), (1e-170, 2, 1e-6), (1e-140, 5, 1.9),
])
def test_jump_profile_rejects_bad_input(s, d, alpha):
    # Orders and dimensions outside 0 < alpha < min(2, d), NaN, and
    # separations so small that kappa overflows double precision.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError):
            jump_profile(s, d, alpha)


def test_jump_profile_scales_down_to_tiny_separations():
    # kappa ~ s^(-1-alpha) near zero: at s = 1e-46 it is about 6e133, finite,
    # though xi^-e_pow alone overflows there on the chord panels.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = jump_profile(1e-46, 5, 1.9)
    assert math.isfinite(tiny)
    assert tiny == pytest.approx(jump_profile(1e-40, 5, 1.9) * 1e-6**-2.9, rel=1e-6)


@pytest.mark.parametrize("d", [150, 200])
def test_jump_profile_in_high_dimensions_at_the_default_step(d):
    h = math.log(1e6) / 1023
    kappa = jump_profile(h * np.arange(1, 9), d, 1.0)
    assert np.all(np.isfinite(kappa) & (kappa > 0.0))


@pytest.mark.parametrize("d,alpha", [(2, 1.0), (4, 1.3), (5, 1.9)])
def test_jump_profile_alone_equals_the_lag_batch(d, alpha):
    # Off d = 3 the chord table's dots and panel sums used to round by the
    # batch around each lag.  Every lag of the default grid, alone, must
    # read what it reads in the batch _lag_weights evaluates.
    grid = build_log_grid(d, DEFAULT_R_MIN, DEFAULT_R_MAX, DEFAULT_GRID_N)
    h = operators._log_step(grid)
    lags = np.arange(1, grid.n)
    batch = jump_profile(h * lags, d, alpha)
    assert [jump_profile(h * k, d, alpha) for k in lags.tolist()] == batch.tolist()


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("d", [2, 4, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.9])
def test_chord_integrals_match_adaptive_quadrature(d, alpha):
    # The integrals behind the kappa table, on both sides of s ~ 0.46 where
    # the graded panels take over from the single symmetric rule.
    from scipy.integrate import quad

    beta, e_pow = 0.5 * (d - 3), 0.5 * (d + alpha)
    s = np.array([1e-4, 0.05, 0.3, 0.45, 0.5, 2.0, 30.0])
    xm = (2.0 * np.sinh(0.5 * s)) ** 2
    table = operators._chord_power_integrals(xm, 4.0, e_pow, beta)
    for x, value in zip(xm, table):
        ref, _ = quad(lambda xi: xi**-e_pow, x, x + 4.0, weight="alg",
                      wvar=(beta, beta), epsabs=0.0, epsrel=1e-13, limit=500)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
def test_kappa_table_matches_the_closed_form_in_three_dimensions(alpha):
    s = np.geomspace(1e-8, 100.0, 60)
    table = operators._kappa_table(s, 3, alpha)
    assert np.allclose(table, jump_profile(s, 3, alpha), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
def test_three_dimensional_closed_form_against_mpmath(alpha):
    # Both sides of s = ln 2, where log(1 - exp(-s)) changes form.
    import mpmath

    c = operators._jump_normalization(3, alpha) * 4.0 * math.pi**2 * 2.0 / (1.0 + alpha)
    s = np.array([1e-8, 1e-5, 0.01, 0.5, math.log(2.0), 0.8, 3.0, 12.0, 40.0])
    with mpmath.workdps(60):
        ref = [c * float((2 * mpmath.sinh(mpmath.mpf(x) / 2)) ** (-1 - alpha)
                         - (2 * mpmath.cosh(mpmath.mpf(x) / 2)) ** (-1 - alpha)) for x in s]
    assert np.allclose(jump_profile(s, 3, alpha), ref, rtol=5e-15, atol=0.0)


# ---------------------------------------------------------------------------
# near-field symbol

SYMBOL_ALPHAS = (0.5, 1.0, 1.5, 1.9, 1.99)


def _symbol_log_steps():
    """Log steps of the default grid, of the default ladder's rungs and of
    the default box at n = 4096."""
    steps = [math.log(DEFAULT_R_MAX / (DEFAULT_R_MIN * REFINE_FACTOR ** (-k))) / (DEFAULT_GRID_N - 1)
             for k in range(4)]
    return steps + [math.log(DEFAULT_R_MAX / DEFAULT_R_MIN) / 4095]


def _mp_mellin_symbol(tau, d, alpha):
    """|S^{d-1}| (2^alpha |Gamma((d+alpha)/4 + i tau/2)|^2
    / |Gamma((d-alpha)/4 + i tau/2)|^2 - H) in mpmath."""
    a = mpmath.mpf(alpha)
    y = mpmath.mpf(float(tau)) / 2
    hardy = 2**a * (mpmath.gamma((d + a) / 4) / mpmath.gamma((d - a) / 4)) ** 2
    ratio = 2**a * abs(mpmath.gamma((d + a) / 4 + 1j * y) / mpmath.gamma((d - a) / 4 + 1j * y)) ** 2
    area = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
    return area * (ratio - hardy)


@pytest.mark.parametrize("alpha", SYMBOL_ALPHAS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_near_field_symbol_is_the_mellin_symbol(d, alpha):
    with mpmath.workdps(30):
        for h in _symbol_log_steps():
            taus = operators._COLLOCATION_THETAS / h
            vals = operators._near_field_symbol(h, d, alpha)
            for tau, val in zip(taus, vals):
                assert val == pytest.approx(float(_mp_mellin_symbol(tau, d, alpha)), rel=1e-13, abs=0.0)


def _symbol_by_quadrature(taus, d, alpha):
    """int_0^inf 2 kappa(s) (1 - cos(tau s)) ds for every tau.

    On [0, 1] a Gauss-Jacobi rule in the weight s^{1-alpha} absorbs the
    |s|^{-1-alpha} head of kappa against the s^2 zero of 1 - cos; on
    [1, 80] Gauss-Legendre panels, past which kappa is below 1e-42.
    1 - cos is taken as 2 sin^2, which keeps its digits at small s.
    """
    x, w = gauss_jacobi(80, 0.0, 1.0 - alpha)
    s_head = 0.5 * (1.0 + x)
    w_head = 0.5 ** (2.0 - alpha) * w * s_head ** (alpha - 1.0)
    xg, wg = gauss_jacobi(20, 0.0, 0.0)
    edges = np.linspace(1.0, 80.0, 81)
    half = 0.5 * np.diff(edges)[:, None]
    s = np.concatenate([s_head, (edges[:-1, None] + half * (1.0 + xg)).ravel()])
    weights = np.concatenate([w_head, (half * wg).ravel()])
    return 2.0 * np.sin(0.5 * np.outer(taus, s)) ** 2 @ (2.0 * jump_profile(s, d, alpha) * weights)


@pytest.mark.parametrize("alpha", SYMBOL_ALPHAS)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_jump_profile_integrates_to_the_mellin_symbol(d, alpha):
    # The normalization of the chord table off d = 3 (d = 3 checks the
    # quadrature on the closed form), and its far tail: lags of a box
    # [1e-300, 1e300] evaluate without a floating-point warning, and past
    # |s| = 700 they are exactly zero.
    taus = np.array([0.3, 1.0, 3.0, 10.0])
    with mpmath.workdps(30):
        ref = np.array([float(_mp_mellin_symbol(tau, d, alpha)) for tau in taus])
    assert np.allclose(_symbol_by_quadrature(taus, d, alpha), ref, rtol=5e-11, atol=0.0)

    s = (math.log(1e300) - math.log(1e-300)) * np.arange(1, 4096) / 4095
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kappa = jump_profile(s, d, alpha)
    assert np.all(kappa[s <= 100.0] > 0.0)
    assert np.all(kappa[s >= 700.0] == 0.0)
    assert np.all(np.diff(kappa) <= 0.0)


@pytest.mark.parametrize("d,alpha", [(2, 0.5), (3, 1.0), (4, 1.5), (5, 1.99)])
def test_lag_weights_reproduce_the_symbol_at_the_collocation_frequencies(d, alpha):
    grid = build_log_grid(d, DEFAULT_R_MIN, DEFAULT_R_MAX, DEFAULT_GRID_N)
    h = operators._log_step(grid)
    thetas = operators._COLLOCATION_THETAS
    lags = np.arange(1, grid.n)
    lag_sum = 2.0 * (1.0 - np.cos(np.outer(thetas, lags))) @ operators._lag_weights(grid, alpha)
    assert np.allclose(lag_sum, h * operators._near_field_symbol(h, d, alpha), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# assembly and Gram-form products


@pytest.mark.parametrize("d,alpha", [(3, 1.0), (2, 0.7), (5, 1.9)])
def test_free_matrix_is_bitwise_symmetric_and_matches_the_gather_formula(d, alpha):
    grid = build_log_grid(d, 1e-2, 1e2, 160)
    s_mat = operators._symmetric_free_matrix(grid, alpha)
    assert np.array_equal(s_mat, s_mat.T)

    # The n x n index gather the Toeplitz assembly replaced.
    n, r, w = grid.n, grid.nodes, grid.weights
    lookup = np.concatenate([[0.0], operators._lag_weights(grid, alpha)])
    c_end = np.ones(n)
    c_end[0] = c_end[-1] = 0.5
    jump = lookup[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])] * np.outer(c_end, c_end)
    mg = np.diag(jump.sum(axis=1)) - jump
    ground = r ** (-0.5 * (d - alpha))
    denom = np.outer(ground * np.sqrt(w), ground * np.sqrt(w))
    ref = mg / denom + np.diag(operators.hardy_constant(d, alpha) * r**-alpha)
    ref = 0.5 * (ref + ref.T)
    # The assembly cancels the ground state against the weights before it
    # rounds, so it differs from the gather formula in the last bits only.
    assert np.all(np.abs(s_mat - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("t", [0.0, 0.05, 1.0, 40.0])
def test_heat_kernel_is_a_bitwise_symmetric_gram_product(small_grid, params_half_critical, t):
    op = build_hardy_operator(small_grid, params_half_critical)
    kernel = heat_kernel_matrix(op, t)
    assert np.array_equal(kernel, kernel.T)
    ref = (op.modes * np.exp(-t * op.eigenvalues)) @ op.modes.T
    assert np.max(np.abs(kernel - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_log_translated_grids_share_bitwise_lag_weights():
    # The lag weights depend on the grid through its log step alone, and
    # the step is computed from the endpoints, so grids that are translates
    # in log coordinates get the same weights bit for bit.  Their free
    # matrices then differ only by the dilation factor 10^-alpha.
    alpha = 1.37
    low = build_log_grid(3, 1e-2, 1e2, 256)
    high = build_log_grid(3, 1e-1, 1e3, 256)
    assert operators._log_step(low) == operators._log_step(high)
    assert np.array_equal(operators._lag_weights(low, alpha), operators._lag_weights(high, alpha))
    s_low = operators._symmetric_free_matrix(low, alpha)
    s_high = operators._symmetric_free_matrix(high, alpha)
    assert np.allclose(s_high * 10.0**alpha, s_low, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# lean eigensystem builds


def _dense_sum_eigensystem(grid, alpha, diagonal):
    """Reference eigensystem of free + np.diag(diagonal), formed densely;
    the builds add the diagonal in place and must match it bit for bit."""
    s_mat = operators._symmetric_free_matrix(grid, alpha) + np.diag(diagonal)
    lam, q_mat = np.linalg.eigh(s_mat)
    return np.maximum(lam, 0.0), q_mat / np.sqrt(grid.weights)[:, None]


@pytest.mark.parametrize("scale", [1.0, 0.5, 0.0, -2.0])
def test_hardy_build_is_bitwise_the_dense_sum_formula(scale):
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    params = make_params(3, 1.0, scale * a_star(3, 1.0))
    op = build_hardy_operator(grid, params)
    lam, modes = _dense_sum_eigensystem(grid, 1.0, params.a * grid.nodes**-1.0)
    assert np.array_equal(op.eigenvalues, lam)
    assert np.array_equal(op.modes, modes)


def test_potential_build_is_bitwise_the_dense_sum_formula():
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    lower, upper = a_star(3, 1.0), 0.5 * a_star(3, 1.0)

    def profile(r):
        return r**-1.0 * (lower * np.exp(-r) + upper * (1.0 - np.exp(-r)))

    op = build_potential_operator(grid, 1.0, PotentialSpec(profile, lower, upper))
    lam, modes = _dense_sum_eigensystem(grid, 1.0, profile(grid.nodes))
    assert np.array_equal(op.eigenvalues, lam)
    assert np.array_equal(op.modes, modes)
