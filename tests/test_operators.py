import math

import numpy as np
import pytest

from hardyops import operators
from hardyops import (
    ConstructionError,
    DomainError,
    PotentialSpec,
    a_star,
    apply_function,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    duhamel_check,
    heat_kernel_matrix,
    integrate_semiinfinite,
    jump_profile,
    make_params,
    psi,
)


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
    assert op.coupling == 0.0


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


def test_eigensystem_cached_per_grid(small_grid):
    op1 = build_fractional_laplacian(small_grid, 1.0)
    op2 = build_fractional_laplacian(small_grid, 1.0)
    assert op1.eigenvalues is op2.eigenvalues
    assert op1.modes is op2.modes


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


def test_duhamel_identity_small_defect(small_grid):
    params = make_params(3, 1.0, a_star(3, 1.0) / 2)
    defect = duhamel_check(small_grid, params, 1.0)
    assert defect < 1e-3
    finer = duhamel_check(small_grid, params, 1.0, n_panels=128)
    assert finer < defect


# ---------------------------------------------------------------------------
# spectral calculus

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
                kinks=(1.0 / lam,),
            )
            got = res.value / math.gamma(s / 2)
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
            kinks=(1.0 / lam,),
        )
        vals[i] = res.value / math.gamma(s / 2)
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
    assert op.coupling is None
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


def test_cached_hardy_build_assembles_nothing(params_half_critical, monkeypatch):
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    first = build_hardy_operator(grid, params_half_critical)

    def no_assembly(*args):
        raise AssertionError("a cached eigensystem should need no matrix")

    monkeypatch.setattr(operators, "_symmetric_free_matrix", no_assembly)
    monkeypatch.setattr(operators.np.linalg, "eigh", no_assembly)
    second = build_hardy_operator(grid, params_half_critical)
    assert second.eigenvalues is first.eigenvalues
    assert second.modes is first.modes
