"""The ladders' top eigenvalue, found by Lanczos from matrix-vector products.

``verify._top_eigenvalue`` returns the largest eigenvalue of a positive
semidefinite operator.  It is checked against a dense ``eigvalsh`` and
against ARPACK (``scipy.sparse.linalg.eigsh``) on the Gram operators of
real ladder rungs, and on synthetic spectra that are hard for a Krylov
method.  The last test keeps what it saves: no dense solve of grid order
runs in either ladder.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from hardyops import verify
from hardyops.specfun import a_star, make_params

GRID_N = 128
EPS = np.finfo(float).eps


def close(value: float, reference: float) -> bool:
    return value == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.fixture(autouse=True)
def empty_slot():
    verify._ladder_slot.clear()
    yield
    verify._ladder_slot.clear()


def _oracles(gram: np.ndarray) -> tuple:
    """Top eigenvalue of a Gram matrix by dense LAPACK and by ARPACK."""
    dense = float(np.linalg.eigvalsh(gram)[-1])
    (arpack,) = eigsh(gram, k=1, which="LA", return_eigenvectors=False)
    return dense, float(arpack)


def _power(op, s: float, modulus=lambda q: q) -> np.ndarray:
    """L^{s/2} as a weighted matrix, formed without the library's Gram helper;
    with ``modulus=np.abs`` the entrywise majorant |Q| Lambda^{s/2} |Q|^T."""
    q = modulus(op.modes * np.sqrt(op.grid.weights)[:, None])
    return (q * np.where(op.eigenvalues > 0.0, op.eigenvalues, 0.0) ** (0.5 * s)) @ q.T


def _top_singular_value(mat: np.ndarray) -> float:
    return math.sqrt(float(np.linalg.eigvalsh(mat.T @ mat)[-1]))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rung_top_eigenvalues_match_dense_and_arpack(d, alpha):
    crit = a_star(d, alpha)
    # The critical coupling, the middle of the benchmark's coupling range
    # [a_star, H / 2], and zero.
    for a in (crit, 0.25 * crit, 0.0):
        params = make_params(d, alpha, a)
        _, key, grids = verify._ladder_grids(params, 1.0, 1, verify.DEFAULT_R_MIN,
                                             verify.DEFAULT_R_MAX, GRID_N)
        rungs = verify._hardy_rungs(params, key, grids)
        for op in rungs:
            grid = op.grid
            lam = op.eigenvalues
            keep = lam > 1e-15 * lam.max()
            q = op.modes[:, keep] * np.sqrt(grid.weights)[:, None]
            free = verify.build_fractional_laplacian(
                verify.build_log_grid(d, grid.r_min, grid.r_max, grid.n), alpha) if a != 0.0 else op
            for s in (0.25, 1.0, 1.75):
                # ||r^{-alpha s/2} L^{-s/2}||^2 on the positive subspace.
                phi = q * lam[keep] ** (-0.5 * s)
                gram = phi.T @ (grid.nodes[:, None] ** (-alpha * s) * phi)
                gram = 0.5 * (gram + gram.T)
                dense, arpack = _oracles(gram)
                top = verify._top_eigenvalue(lambda x: gram @ x, gram.shape[0])
                assert close(top, dense)
                assert close(top, arpack)
                value, cut = verify._generalized_rung(op, params, s)
                assert close(value, math.sqrt(dense))
                assert cut == np.count_nonzero(~keep)

                right = grid.nodes ** (0.5 * alpha * s)
                reverse = verify._reverse_rung_value(op, params, s)
                if a == 0.0:
                    assert reverse == 0.0
                    continue
                # The library's operator W = (P_L - P_T) diag(right), formed
                # densely from the library's power matrices.
                weighted = (verify._sym_power_matrix(op, s)
                            - verify._sym_power_matrix(free, s)) * right
                dense, arpack = _oracles(weighted.T @ weighted)
                assert close(reverse, math.sqrt(dense))
                assert close(reverse, math.sqrt(arpack))

                # The power difference formed independently differs from the
                # library's by the rounding of two Gram products, which the
                # difference does not shrink: entrywise at most
                # (n + 4) eps (|Q_L| Lambda_L^{s/2} |Q_L|^T + the same for T).
                independent = _top_singular_value((_power(op, s) - _power(free, s)) * right)
                majorant = (_power(op, s, np.abs) + _power(free, s, np.abs)) * right
                bound = (grid.n + 4) * EPS * _top_singular_value(majorant)
                assert abs(reverse - independent) <= bound + 1e-12 * independent


def _spectrum(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    lam = rng.uniform(0.0, 1.0, n)
    if kind == "repeated-top" and n >= 2:
        lam[: max(2, n // 3)] = 2.0
    elif kind == "split-top-pair" and n >= 2:
        lam[:2] = 2.0, 2.0 * (1.0 - 1e-9)
    elif kind == "rank-deficient":
        lam[rng.permutation(n)[: n // 2 + 1]] = 0.0
    elif kind == "zero":
        lam[:] = 0.0
    return lam


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["generic", "repeated-top", "split-top-pair", "rank-deficient", "zero"]),
    n=st.integers(1, 48),
    scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_eigenvalue_of_synthetic_psd_matrices(kind, n, scale, seed):
    rng = np.random.default_rng(seed)
    lam = scale * _spectrum(kind, n, rng)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (basis * lam) @ basis.T
    mat = 0.5 * (mat + mat.T)
    top = verify._top_eigenvalue(lambda x: mat @ x, n)
    assert isinstance(top, float)
    if kind == "zero":
        assert top == 0.0 and math.copysign(1.0, top) == 1.0
        return
    assert close(top, float(lam.max()))
    assert close(top, float(np.linalg.eigvalsh(mat)[-1]))


def test_ladders_solve_no_dense_problem_of_grid_order(params_half_critical, monkeypatch):
    """Both ladders: every eigvalsh is a small Ritz problem, and eigh runs
    only inside operator builds, once per eigensystem built."""
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    eigvalsh_orders, eigh_orders, built = [], [], []
    depth = [0]

    def spy_eigvalsh(mat, *args, **kwargs):
        eigvalsh_orders.append(mat.shape[0])
        return eigvalsh(mat, *args, **kwargs)

    def spy_eigh(mat, *args, **kwargs):
        eigh_orders.append((mat.shape[0], depth[0]))
        return eigh(mat, *args, **kwargs)

    def in_build(build):
        def wrapped(grid, *args):
            depth[0] += 1
            try:
                op = build(grid, *args)
            finally:
                depth[0] -= 1
            built.append(op)
            return op
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(verify, "build_hardy_operator", in_build(verify.build_hardy_operator))
    monkeypatch.setattr(verify, "build_fractional_laplacian",
                        in_build(verify.build_fractional_laplacian))
    for check in (verify.generalized_hardy_constant, verify.reverse_hardy_constant):
        check(params_half_critical, 1.0, n_refinements=1, grid_n=GRID_N)

    assert eigvalsh_orders and max(eigvalsh_orders) < GRID_N
    assert all(depth_at_call > 0 for _, depth_at_call in eigh_orders)
    # Two Hardy rungs, shared by both ladders, and one free twin per rung.
    assert len(built) == 4
    assert [order for order, _ in eigh_orders if order == GRID_N] == [GRID_N] * len(built)
