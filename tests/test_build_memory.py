"""Memory of the operator builds, and the outputs they must keep.

The free matrix is assembled into one n x n buffer in blocks of rows, each
build assembles afresh, and an eigensystem lives exactly as long as its
operator.  The difference check and the sweep hold one eigensystem at a
time.  None of that may change a bit of any matrix, eigensystem or report.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hardyops import operators, verify
from hardyops.errors import DomainError
from hardyops.operators import (
    PotentialSpec,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
)
from hardyops.specfun import a_star, hardy_constant, make_params, sphere_area


def _toeplitz_and_ends(grid, alpha):
    n = grid.n
    lag_weights = operators._lag_weights(grid, alpha)
    mirrored = np.concatenate([lag_weights[::-1], [0.0], lag_weights])
    c_end = np.ones(n)
    c_end[0] = c_end[-1] = 0.5
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1], c_end


def _whole_matrix_free_matrix(grid, alpha):
    """The free matrix by whole-matrix arithmetic: -T_ij e_i e_j off the
    diagonal, e = sqrt(c / (|S| h)) r^{-alpha/2}, and
    r^{-alpha} ((T c) / (|S| h) + H) on it."""
    d, n, r = grid.d, grid.n, grid.nodes
    toeplitz, c_end = _toeplitz_and_ends(grid, alpha)
    scale = sphere_area(d) * operators._log_step(grid)
    e = np.sqrt(c_end / scale) * r ** (-0.5 * alpha)
    s_mat = np.outer(-e, e) * toeplitz
    s_mat.flat[:: n + 1] = r**-alpha * ((toeplitz * c_end).sum(axis=1) / scale
                                        + hardy_constant(d, alpha))
    return s_mat


def _weighted_free_matrix(grid, alpha):
    """The earlier formula: (T_ij * (c_i c_j)) / ((-gw_i) gw_j) off the
    diagonal, gw the ground state times the square root of the weights,
    and the row sums of T_ij * (c_i c_j) over gw_i^2 on it."""
    d, n, r, w = grid.d, grid.n, grid.nodes, grid.weights
    toeplitz, c_end = _toeplitz_and_ends(grid, alpha)
    jump = toeplitz * np.outer(c_end, c_end)
    ground_w = r ** (-0.5 * (d - alpha)) * np.sqrt(w)
    s_mat = jump / np.outer(-ground_w, ground_w)
    s_mat.flat[:: n + 1] = (
        jump.sum(axis=1) / (ground_w * ground_w) + hardy_constant(d, alpha) * r**-alpha
    )
    return s_mat


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_blocked_assembly_is_bitwise_the_whole_matrix_formula(d, alpha):
    # n = 24 is the smallest grid the near-field solve accepts; 100 is not
    # a multiple of the row block, 1024 is the default grid.
    assert 100 % operators._ROW_BLOCK != 0
    for n in (24, 100, 1024):
        grid = build_log_grid(d, 1e-2, 1e2, n)
        s_mat = operators._symmetric_free_matrix(grid, alpha)
        assert np.array_equal(s_mat, _whole_matrix_free_matrix(grid, alpha)), n
        # The ground state and weights cancel: the earlier formula that
        # divided them out agrees entry by entry to rounding.
        ref = _weighted_free_matrix(grid, alpha)
        assert np.all(np.abs(s_mat - ref) <= 1e-14 * np.abs(ref)), n


def test_each_assembly_returns_a_fresh_matrix():
    grid = build_log_grid(3, 1e-2, 1e2, 64)
    first = operators._symmetric_free_matrix(grid, 1.3)
    first += 1.0
    assert np.array_equal(operators._symmetric_free_matrix(grid, 1.3),
                          _whole_matrix_free_matrix(grid, 1.3))


def test_cold_hardy_build_traces_at_most_two_matrices():
    # The assembled matrix and the eigenvectors eigh returns; the block
    # temporaries add 64 rows.  LAPACK's workspace is allocated outside
    # Python's tracer and is not counted.
    n = 512
    params = make_params(3, 1.3, -0.2)
    build_hardy_operator(build_log_grid(3, 1e-2, 1e2, 64), params)  # warm the profile caches
    grid = build_log_grid(3, 1e-2, 1e2, n)
    tracemalloc.start()
    try:
        build_hardy_operator(grid, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * n * n


def test_no_builder_keeps_an_eigensystem_alive():
    # The grid outlives every operator; each build computes its own
    # eigensystem, and dropping the operator releases it.
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    lower, upper = a_star(3, 1.0), 0.5 * a_star(3, 1.0)
    builds = (
        lambda: build_fractional_laplacian(grid, 1.0),
        lambda: build_hardy_operator(grid, make_params(3, 1.0, upper)),
        lambda: build_potential_operator(grid, 1.0,
                                         PotentialSpec(lambda r: upper * r**-1.0, lower, upper)),
    )
    for build in builds:
        op, twin = build(), build()
        assert op.modes is not twin.modes and op.eigenvalues is not twin.eigenvalues
        assert np.array_equal(op.modes, twin.modes)
        refs = [weakref.ref(a) for a in (op.modes, op.eigenvalues, twin.modes, twin.eigenvalues)]
        del op, twin
        assert all(ref() is None for ref in refs)


_BUILDERS = ("build_fractional_laplacian", "build_hardy_operator", "build_potential_operator")


def _record_builds(monkeypatch, grid):
    """Wrap verify's grid and operator builders.

    Before each operator build, every operator built earlier must already
    be collected; before each build on ``grid``'s radii, every grid of a
    smaller inner radius (the refined pass) must be too.  Returns the
    recorded builds as ``(r_min, weakref to the modes)``.
    """
    builds, refined = [], []
    real_grid = verify.build_log_grid

    def grid_recording(*args):
        g = real_grid(*args)
        refined.append(weakref.ref(g))
        return g

    def recording(build):
        def wrapped(g, *args):
            assert all(modes() is None for _, modes in builds), "an earlier eigensystem is alive"
            if g.r_min == grid.r_min:
                assert all(ref() is None for ref in refined), "refined grid still alive"
            op = build(g, *args)
            builds.append((g.r_min, weakref.ref(op.modes)))
            return op
        return wrapped

    monkeypatch.setattr(verify, "build_log_grid", grid_recording)
    for name in _BUILDERS:
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    return builds


def _potential(lower, upper):
    def profile(r):
        weight = np.exp(-r)
        return r**-1.0 * (lower * weight + upper * (1.0 - weight))
    return PotentialSpec(profile, lower, upper)


def test_difference_check_releases_the_refined_grid_before_the_base_pass(monkeypatch):
    # Free and potential branch: upper then lower operator, refined pass
    # first, and no eigensystem left behind in the caller's grid.
    for potential in (None, _potential(-0.2, 0.1)):
        grid = build_log_grid(3, 1e-2, 1e2, 128)
        with monkeypatch.context() as patch:
            builds = _record_builds(patch, grid)
            report = verify.difference_envelope_check(
                make_params(3, 1.0, -0.2), [1.0], 16, potential=potential, grid=grid)
        assert [r_min < grid.r_min for r_min, _ in builds] == [True, True, False, False]
        assert all(modes() is None for _, modes in builds)
        assert report.samples == 32


def test_difference_check_report_is_pinned():
    report = verify.difference_envelope_check(
        make_params(3, 1.0, -0.2), [1e-9, 1.0, 10.0], sample_pairs=64,
        grid=build_log_grid(3, 1e-2, 1e2, 256), seed=3,
    )
    assert report.verdict == "pass"
    assert report.samples == 256
    assert report.params["t_values"] == [1.0, 10.0]
    assert report.empirical_lower == pytest.approx(0.12891978252565497, rel=1e-9)
    assert report.empirical_upper == pytest.approx(0.13726895295382555, rel=1e-9)
    assert report.notes == (
        "t=1e-09 outside reliable window [0.1, 10], excluded",
        "sup|K_diff|/envelope: base 0.12892, refined 0.137269",
    )


def test_difference_check_potential_report_is_pinned():
    report = verify.difference_envelope_check(
        make_params(3, 1.0, -0.2), [1e-9, 1.0, 10.0], sample_pairs=64,
        potential=_potential(-0.2, 0.1), grid=build_log_grid(3, 1e-2, 1e2, 256), seed=3,
    )
    assert report.verdict == "pass"
    assert report.samples == 256
    assert report.params["t_values"] == [1.0, 10.0]
    assert report.empirical_lower == pytest.approx(0.07118146713092571, rel=1e-9)
    assert report.empirical_upper == pytest.approx(0.09924197255549054, rel=1e-9)
    assert report.notes == (
        "t=1e-09 outside reliable window [0.1, 10], excluded",
        "sup|K_diff|/envelope: base 0.0711815, refined 0.099242",
    )


def test_sweep_holds_one_eigensystem_at_a_time(monkeypatch):
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    builds = _record_builds(monkeypatch, grid)
    rows, _, _ = verify.sweep_by_power(
        make_params(3, 1.0, -0.2), [0.5, 1.0], verify.TestFamily("gaussian-dilates"), grid)
    assert len(builds) == 2
    assert all(modes() is None for _, modes in builds)
    assert len(rows) == 2 * verify.FAMILY_MEMBERS


def _reference_power_norm(op, vec, s):
    """The power norm with one gemv per (operator, member, s), as computed
    before the sweep shared each member's coefficients across powers."""
    c = op.modes.T @ (op.grid.weights * vec)
    lam = op.eigenvalues
    scale = np.zeros_like(lam)
    pos = lam > 0.0
    scale[pos] = lam[pos] ** s
    return math.sqrt(float(np.sum(scale * c * c)))


def test_sweep_rows_are_bitwise_the_per_power_norms():
    params = make_params(3, 1.2, -0.3)
    family = verify.TestFamily("singular-cutoff")
    s_values = [0.5, 1.0, 1.75]
    rows, _, _ = verify.sweep_by_power(params, s_values, family, build_log_grid(3, 1e-2, 1e2, 128))
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    free, full = build_fractional_laplacian(grid, 1.2), build_hardy_operator(grid, params)
    members = list(family.members(grid, delta=params.delta))
    expected = [
        (_reference_power_norm(free, vec, s), _reference_power_norm(full, vec, s))
        for s in s_values for _, vec in members
    ]
    assert len(rows) == len(expected)
    for row, (norm_free, norm_full) in zip(rows, expected):
        assert row["ratio_forward"] == norm_free / norm_full
        assert row["ratio_backward"] == norm_full / norm_free


def test_cold_difference_check_traces_at_most_one_build():
    # One build traces at most 2.2 n^2 doubles (the test above); holding
    # the first eigensystem through the second build would add n^2 more.
    n = 512
    params = make_params(3, 1.3, -0.2)
    verify.difference_envelope_check(params, [1.0], 16, grid=build_log_grid(3, 1e-2, 1e2, 64))
    grid = build_log_grid(3, 1e-2, 1e2, n)
    tracemalloc.start()
    try:
        verify.difference_envelope_check(params, [1.0], 16, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * n * n


def _degenerate_envelopes(monkeypatch, which):
    """Make ``_pair_average`` return NaN at the pairs ``which(on_base)``
    selects, with on_base true on the base pass."""
    real = verify._pair_average
    base_nodes = build_log_grid(3, 1e-2, 1e2, 128).nodes

    def degenerate(profile, t, params, rx, ry):
        env = real(profile, t, params, rx, ry)
        env[which(bool(np.isin(rx[0], base_nodes)))] = np.nan
        return env

    monkeypatch.setattr(verify, "_pair_average", degenerate)


def test_difference_check_counts_only_usable_pairs(monkeypatch):
    _degenerate_envelopes(monkeypatch, lambda on_base: [0, 1] if on_base else [2])
    report = verify.difference_envelope_check(
        make_params(3, 1.0, -0.2), [1.0], 16, grid=build_log_grid(3, 1e-2, 1e2, 128))
    assert report.samples == 32 - 3


@pytest.mark.parametrize("base_only", [False, True], ids=["both-passes", "base-pass"])
def test_difference_check_with_nothing_measured_is_a_domain_error(monkeypatch, base_only):
    _degenerate_envelopes(monkeypatch, lambda on_base: slice(None) if on_base or not base_only else [])
    with pytest.raises(DomainError, match="all sampled pairs were degenerate"):
        verify.difference_envelope_check(
            make_params(3, 1.0, -0.2), [1.0], 16, grid=build_log_grid(3, 1e-2, 1e2, 128))


def test_difference_check_notes_list_the_base_pass_first(monkeypatch):
    # One degenerate envelope per pass, at pair 0 on the base grid and at
    # pair 1 on the refined one: the base note must come first although
    # the refined pass runs first.
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    real = verify._pair_average

    def degenerate(profile, t, params, rx, ry):
        env = real(profile, t, params, rx, ry)
        env[0 if np.isin(rx[0], grid.nodes) else 1] = np.nan
        return env

    monkeypatch.setattr(verify, "_pair_average", degenerate)
    report = verify.difference_envelope_check(make_params(3, 1.0, -0.2), [1.0], 16, grid=grid, seed=5)
    pairs = verify._interior_pairs(np.random.default_rng(5), grid.n, 16).tolist()
    assert report.notes[:2] == (
        f"envelope degenerate at t=1, pair ({pairs[0][0]}, {pairs[0][1]}); skipped",
        f"envelope degenerate at t=1, pair ({pairs[1][0]}, {pairs[1][1]}); skipped",
    )
    assert report.notes[2].startswith("sup|K_diff|/envelope: base ")
