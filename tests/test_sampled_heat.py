"""The heat checks compute only the kernel entries and averages they read.

``heat_kernel_matrix(op, t, pairs)`` returns the sampled entries K[i, j] as
row products of B = modes exp(-t lam / 2); they must agree with the full
Gram matrix within the rounding bound of a length-n dot product.  The
profile averages of all sampled pairs come from one ``angular_average``
call on array radii; they must agree with a per-pair loop of scalar calls
within the rounding bound of the 48-node Gauss-Jacobi sum.
"""

import math

import numpy as np
import pytest

from hardyops import verify
from hardyops.errors import DomainError
from hardyops.kernels import (
    ANGULAR_NODES,
    KernelTriple,
    angular_average,
    hardy_heat_profile,
    l_envelope,
    m_envelope,
    poisson_radial_average,
)
from hardyops.operators import (
    PotentialSpec,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    heat_kernel_matrix,
)
from hardyops.specfun import a_star, make_params
from hardyops.verify import difference_envelope_check, heat_sandwich_by_time

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# sampled kernel entries


def _assert_sampled_entries_match(op, t, pairs):
    sampled = heat_kernel_matrix(op, t, pairs)
    full = heat_kernel_matrix(op, t)
    b_mat = op.modes * np.exp(-0.5 * t * op.eigenvalues)
    i, j = pairs[:, 0], pairs[:, 1]
    # Each of the two is a length-n dot product of the same rows of B.
    bound = op.modes.shape[1] * EPS * np.sum(np.abs(b_mat[i] * b_mat[j]), axis=1)
    assert sampled.shape == (len(pairs),)
    assert np.all(np.abs(sampled - full[i, j]) <= bound)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_sampled_entries_match_the_full_kernel(d, alpha):
    grid = build_log_grid(d, 1e-2, 1e2, 96)
    op = build_hardy_operator(grid, make_params(d, alpha, 0.5 * a_star(d, alpha)))
    rng = np.random.default_rng(d * 10 + int(10 * alpha))
    pairs = rng.integers(0, grid.n, size=(150, 2))
    pairs[:20, 1] = pairs[:20, 0]  # diagonal entries
    pairs[20] = (0, grid.n - 1)
    for t in (0.0, 1e-3, 0.7, 40.0):
        _assert_sampled_entries_match(op, t, pairs)


def test_sampled_entries_of_free_and_potential_operators():
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    crit = a_star(3, 1.0)
    pot = PotentialSpec(
        profile=lambda r: crit * r ** -1.0 * 0.5 * (1.0 + np.exp(-r)), a=crit, a_tilde=crit / 2.0
    )
    pairs = np.random.default_rng(4).integers(0, grid.n, size=(100, 2))
    for op in (build_fractional_laplacian(grid, 1.0), build_potential_operator(grid, 1.0, pot)):
        for t in (0.0, 0.3, 5.0):
            _assert_sampled_entries_match(op, t, pairs)


def test_no_pairs_means_no_entries(small_grid):
    op = build_fractional_laplacian(small_grid, 1.0)
    assert heat_kernel_matrix(op, 1.0, np.zeros((0, 2), dtype=int)).shape == (0,)


@pytest.mark.parametrize(
    "pairs",
    [
        np.array([[0, -1]]),
        np.array([[256, 3]]),
        np.array([[0, 1, 2]]),
        np.array([0, 1]),
        np.array([[0.0, 1.0]]),
        np.array([[True, False]]),
        [[0, 1]],
        [[0, 1], [2]],
    ],
)
def test_bad_pairs_are_domain_errors(small_grid, pairs):
    op = build_fractional_laplacian(small_grid, 1.0)
    with pytest.raises(DomainError):
        heat_kernel_matrix(op, 1.0, pairs)


def test_heat_checks_build_no_full_kernel(monkeypatch, params_half_critical, small_grid):
    calls = []
    real = verify.heat_kernel_matrix

    def spy(op, t, pairs=None):
        calls.append(pairs)
        return real(op, t, pairs)

    monkeypatch.setattr(verify, "heat_kernel_matrix", spy)
    list(heat_sandwich_by_time(params_half_critical, [0.5, 2.0], sample_pairs=20, grid=small_grid))
    difference_envelope_check(params_half_critical, [1.0], sample_pairs=20, grid=small_grid)
    assert len(calls) == 2 + 4
    assert all(p is not None and p.shape == (20, 2) for p in calls)


@pytest.mark.parametrize("count", [True, False, 2.5, 0, -3, "200", None, np.float64(3.0)])
def test_sample_pairs_must_be_a_positive_integer(params_half_critical, small_grid, count):
    with pytest.raises(DomainError, match="sample_pairs"):
        next(heat_sandwich_by_time(params_half_critical, [1.0], sample_pairs=count, grid=small_grid))
    with pytest.raises(DomainError, match="sample_pairs"):
        difference_envelope_check(params_half_critical, [1.0], sample_pairs=count, grid=small_grid)


# ---------------------------------------------------------------------------
# one angular average for all pairs


def _pair_radii(rng, count=60):
    rx, ry = 10.0 ** rng.uniform(-2, 2, (2, count))
    ry[:6] = rx[:6]            # coincident radii
    ry[6:10] = 2.0 * rx[6:10]  # comparable-radii edges of m_envelope's support
    ry[10:14] = 0.5 * rx[10:14]
    return rx, ry


def _assert_batched_average(profile, t, params, rx, ry):
    d = params.d
    batched = angular_average(
        lambda c: profile(t, KernelTriple(rx[:, None], ry[:, None], c), params), rx, ry, d
    )
    # The reference: one scalar average per pair.
    loop = [
        angular_average(lambda c: profile(t, KernelTriple(x, y, c), params), x, y, d)
        for x, y in zip(rx.tolist(), ry.tolist())
    ]
    magnitude = [
        angular_average(lambda c: np.abs(profile(t, KernelTriple(x, y, c), params)), x, y, d)
        for x, y in zip(rx.tolist(), ry.tolist())
    ]
    # Same chord values; only the order of the positive-weight sum differs.
    bound = 2.0 * (ANGULAR_NODES + 2) * EPS * np.array(magnitude)
    assert batched.shape == rx.shape
    assert np.all(np.abs(batched - np.array(loop)) <= bound)


@pytest.mark.parametrize("d,alpha,u", [(2, 0.6, 0.4), (3, 1.0, -0.5), (4, 1.5, 0.0), (5, 1.9, 0.8)])
def test_batched_hardy_profile_averages_match_a_pair_loop(d, alpha, u, rng):
    params = make_params(d, alpha, u * (a_star(d, alpha) if u > 0 else -a_star(d, alpha)))
    rx, ry = _pair_radii(rng)
    if params.delta <= 0.0:
        rx[-1] = 0.0  # a vanishing radius collapses to a point evaluation
    for t in (1e-3, 0.5, 20.0):
        _assert_batched_average(hardy_heat_profile, t, params, rx, ry)


def _envelope(t, q, params):
    return l_envelope(t, q, params) + m_envelope(t, q, params)


@pytest.mark.parametrize("d,alpha,a", [(3, 1.0, -0.1), (2, 1.7, 0.3), (5, 0.8, -0.4)])
def test_batched_envelope_averages_match_a_pair_loop(d, alpha, a, rng):
    params = make_params(d, alpha, a)
    rx, ry = _pair_radii(rng)
    reach = np.maximum(rx, ry) ** alpha
    # Times between the pairs' heat lengths put some pairs on each branch of
    # l_envelope; t equal to one pair's reach sits on both edges.
    for t in (float(np.median(reach)), float(reach[7]), float(reach[12]), 1e-4, 1e4):
        _assert_batched_average(_envelope, t, params, rx, ry)
    if params.delta_plus == 0.0:
        rx[-1] = 0.0
        _assert_batched_average(_envelope, 1.0, params, rx, ry)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_poisson_averages_match_a_pair_loop(d, rng):
    rx, ry = _pair_radii(rng)
    rx[-1] = 0.0
    ry[-2] = 0.0
    for t in (1e-2, 1.0, 30.0):
        batched = poisson_radial_average(t, rx, ry, d)
        loop = np.array([poisson_radial_average(t, x, y, d) for x, y in zip(rx.tolist(), ry.tolist())])
        assert batched.shape == rx.shape and np.all(loop > 0.0)
        assert np.all(np.abs(batched - loop) <= 2.0 * (ANGULAR_NODES + 2) * EPS * loop)


def test_vanishing_width_reads_the_chord_at_the_radii_difference():
    # 4 rx ry underflows the 1e-300 threshold: every chord is |rx - ry|.
    tiny = 1e-151
    assert angular_average(lambda c: c, tiny, tiny, 3) == 0.0
    rx, ry = np.array([tiny, 1.0, 0.0]), np.array([tiny, 2.0, 3.0])
    values = angular_average(lambda c: c, rx, ry, 3)
    assert values[0] == 0.0 and values[2] == 3.0 and 1.0 < values[1] < 3.0


def test_scalar_radii_give_float_averages():
    params = make_params(3, 1.0, -0.2)
    value = angular_average(
        lambda c: hardy_heat_profile(1.0, KernelTriple(1.0, 2.0, c), params), 1.0, 2.0, 3
    )
    assert type(value) is float
    assert type(poisson_radial_average(1.0, 1.0, 2.0, 3)) is float
    assert type(poisson_radial_average(1.0, 1.0, 2.0, 4)) is float
    assert type(l_envelope(1.0, KernelTriple(1.0, 2.0, 2.5), params)) is float
    assert type(m_envelope(1.0, KernelTriple(1.0, 2.0, 2.5), params)) is float


# ---------------------------------------------------------------------------
# batch triples


def test_batch_triple_layouts():
    rx, ry = np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.0, 0.5])
    chords = np.sqrt((rx - ry)[:, None] ** 2 + 2.0 * (rx * ry)[:, None] * np.linspace(0.0, 2.0, 5))
    KernelTriple(rx[:, None], ry[:, None], chords)
    KernelTriple(rx, ry, np.abs(rx - ry))
    for bad in (
        (rx, ry, chords),                   # radii need the chords' axes
        (rx[:, None], ry, chords),          # radii of different shapes
        (rx[:, None], ry[:, None], 1.0),    # array radii, scalar chord
        (rx[:, None], 1.5, chords),
        (rx[:2, None], ry[:2, None], chords),
        (rx[:, None].astype(complex), ry[:, None], chords),
    ):
        with pytest.raises(DomainError):
            KernelTriple(*bad)


def test_batch_triple_reports_the_failing_pair():
    rx, ry = np.array([[1.0], [2.0]]), np.array([[1.0], [1.0]])
    chords = np.array([[0.5, 1.0], [1.5, 3.5]])  # 3.5 > 2 + 1
    with pytest.raises(DomainError, match="rxy=3.5"):
        KernelTriple(rx, ry, chords)
    with pytest.raises(DomainError, match="rx must be"):
        KernelTriple(np.array([[1.0], [math.nan]]), ry, np.ones((2, 2)))
