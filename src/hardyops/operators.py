"""Radial spectral discretization of fractional Hardy-type operators.

The discretization lives on a geometric radial grid and represents the
fractional Laplacian restricted to radial functions.  Its construction
rests on the ground-state representation: after dividing out the
critical-coupling ground state omega(r) = r^{-(d-alpha)/2}, the quadratic
form of |p|^alpha - H r^{-alpha} (H the sharp Hardy constant) becomes a
pure jump form

    (1/2) sum_{i,j} (g_i - g_j)^2 kappa(u_i - u_j) h^2 + boundary factors,

whose kernel kappa depends only on the difference of log radii u = ln r.
That makes the jump matrix Toeplitz in log coordinates.  Far lags use
kappa directly; the first few lags cannot resolve the |s|^{-1-alpha}
singularity of kappa at coincidence and are instead solved from a small
linear system that matches the exact one-dimensional symbol

    phi(tau) = int_0^inf 2 kappa(s) (1 - cos(tau s)) ds

at eight collocation frequencies up to the grid Nyquist.  The assembled
operator then satisfies three structural identities at once: the
critical ground state is an exact discrete zero mode, adding the
coupling a r^{-alpha} is exact (no additional discretization error in
the potential), and the matrix is symmetric in the weighted inner
product.

kappa itself comes from averaging the jump kernel c |x-y|^{-d-alpha}
over sphere directions; substituting the squared chord xi = |x-y|^2
reduces that average to a one-dimensional integral with Jacobi endpoint
weights, which has a closed form in dimension three and is evaluated by
graded Gauss-Jacobi panels otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConstructionError, DomainError
from .specfun import (
    HardyParams,
    _check_dimension,
    a_star,
    hardy_constant,
    log_gamma,
    sphere_area,
)

__all__ = [
    "RadialGrid",
    "SpectralOperator",
    "PotentialSpec",
    "build_log_grid",
    "build_fractional_laplacian",
    "build_hardy_operator",
    "build_potential_operator",
    "apply_function",
    "heat_kernel_matrix",
    "jump_profile",
]

_NEAR_LAGS = 8  # lags solved by symbol collocation instead of point values


# ---------------------------------------------------------------------------
# grid

@dataclass
class RadialGrid:
    """Geometric radial grid with trapezoid weights in log coordinates.

    weights[i] approximates the volume element |S^{d-1}| r^{d-1} dr around
    node i, so sum(f**2 * weights) is the squared L^2 norm of the radial
    function f.  The private cache holds assembled matrices and
    eigensystems keyed by (alpha, coupling); it never affects equality.
    """

    d: int
    nodes: np.ndarray
    weights: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])


def build_log_grid(d: int, r_min: float, r_max: float, n: int) -> RadialGrid:
    """Build a geometric grid of n nodes on [r_min, r_max].

    Requires 0 < r_min < r_max and n >= 2.  Weights are the trapezoid
    rule for int f r^{d-1} dr in the variable u = ln r, times the sphere
    area: w_i = |S^{d-1}| h c_i r_i^d with end factors c = 1/2.
    """
    d = _check_dimension(d)
    r_min = float(r_min)
    r_max = float(r_max)
    if not (0.0 < r_min < r_max) or math.isinf(r_max):
        raise DomainError(
            f"need 0 < r_min < r_max (finite), got [{r_min!r}, {r_max!r}]"
        )
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"grid size must be an integer >= 2, got {n!r}")
    nodes = np.geomspace(r_min, r_max, n)
    h = math.log(r_max / r_min) / (n - 1)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    weights = sphere_area(d) * h * c * nodes**d
    return RadialGrid(d=d, nodes=nodes, weights=weights)


def _log_step(grid: RadialGrid) -> float:
    # From the endpoints, as build_log_grid computes it, so grids that are
    # translates of each other in log coordinates get the same step.
    h = math.log(grid.r_max / grid.r_min) / (grid.n - 1)
    du = np.diff(np.log(grid.nodes))
    if not h > 0 or np.max(np.abs(du - h)) > 1e-8 * h:
        raise ConstructionError(
            "operator assembly requires a log-uniform grid "
            "(build it with build_log_grid)"
        )
    return h


# ---------------------------------------------------------------------------
# jump kernel profile kappa

def _jump_normalization(d: int, alpha: float) -> float:
    # Constant c with |p|^alpha represented by the jump kernel
    # c |x-y|^{-d-alpha}: c = 2^alpha Gamma((d+alpha)/2) (alpha/2)
    #                         / (pi^{d/2} Gamma(1-alpha/2)).
    return (
        2.0**alpha
        * math.exp(log_gamma(0.5 * (d + alpha)) - log_gamma(1.0 - 0.5 * alpha))
        * (0.5 * alpha)
        / math.pi ** (0.5 * d)
    )


@lru_cache(maxsize=64)
def _gauss_rule(kind: str, n: int, expo: float):
    if kind == "legendre":
        x, w = roots_legendre(n)
    elif kind == "jacobi_sym":
        x, w = roots_jacobi(n, expo, expo)
    elif kind == "jacobi_left":
        x, w = roots_jacobi(n, 0.0, expo)
    else:
        x, w = roots_jacobi(n, expo, 0.0)
    return x, w


def _chord_power_integrals(xm: np.ndarray, width: float, e_pow: float, beta: float,
                           n_gj: int = 64, n_gl: int = 24) -> np.ndarray:
    """int_xm^{xm+width} ((xi-xm)(xm+width-xi))^beta xi^{-e_pow} dxi for
    every left endpoint in the array xm.

    The interval is passed as (left endpoint, width) because in the
    calling geometry the width is known exactly while the difference of
    the endpoints cancels catastrophically once xm is large.  A single
    symmetric Gauss-Jacobi rule suffices unless the interval spans many
    octaves (xm << width), in which case the endpoint neighbourhoods get
    one-sided Jacobi panels and the interior [2 xm, xM/2] is covered by
    doubling Gauss-Legendre panels.  All endpoints are evaluated at once:
    the doubling panels form a (endpoints x panels x nodes) array whose
    panels are clamped at xM/2, so the ones an endpoint does not need
    have zero width and add exactly nothing.
    """
    xm = np.asarray(xm, dtype=float)
    out = np.empty_like(xm)
    sym = xm > 0.05 * width / 0.95
    x, w = _gauss_rule("jacobi_sym", n_gj, beta)
    xi = xm[sym, None] + width * 0.5 * (1.0 + x)
    out[sym] = (0.5 * width) ** (2.0 * beta + 1.0) * (xi**-e_pow @ w)

    # Graded branch; one row per endpoint, columns are quadrature nodes.
    lo_end = xm[~sym, None]
    hi_end = lo_end + width
    c_left = 2.0 * lo_end
    c_right = 0.5 * hi_end
    xl, wl = _gauss_rule("jacobi_left", n_gj, beta)
    xi = lo_end + (c_left - lo_end) * 0.5 * (1.0 + xl)
    left = (0.5 * (c_left - lo_end)) ** (beta + 1.0) * (
        ((hi_end - xi) ** beta * xi**-e_pow) @ wl[:, None]
    )
    xr, wr = _gauss_rule("jacobi_right", n_gj, beta)
    xi = c_right + (hi_end - c_right) * 0.5 * (1.0 + xr)
    right = (0.5 * (hi_end - c_right)) ** (beta + 1.0) * (
        ((xi - lo_end) ** beta * xi**-e_pow) @ wr[:, None]
    )
    xg, wg = _gauss_rule("legendre", n_gl, 0.0)
    n_panels = int(np.ceil(np.log2(np.max(c_right / c_left, initial=1.0)))) + 1
    lo = np.minimum(c_left * 2.0 ** np.arange(n_panels), c_right)
    hi = np.minimum(2.0 * lo, c_right)
    xi = lo[..., None] + (hi - lo)[..., None] * 0.5 * (1.0 + xg)
    vals = (xi - lo_end[..., None]) ** beta * (hi_end[..., None] - xi) ** beta * xi**-e_pow
    panels = 0.5 * (hi - lo) * (vals @ wg)
    out[~sym] = (left + right)[:, 0] + panels.sum(axis=1)
    return out


def _kappa_table(s: np.ndarray, d: int, alpha: float) -> np.ndarray:
    """Jump profile at the log separations s by direct chord quadrature."""
    xm = (2.0 * np.sinh(0.5 * np.abs(s))) ** 2
    # The chord interval is [4 sinh^2(s/2), 4 cosh^2(s/2)]; its width is
    # exactly 4 by the hyperbolic identity.
    beta = 0.5 * (d - 3)
    chord = _chord_power_integrals(xm, 4.0, 0.5 * (d + alpha), beta)
    c = (
        _jump_normalization(d, alpha)
        * sphere_area(d)
        * sphere_area(d - 1)
        * 2.0 ** (2 - d)
    )
    return c * chord


@lru_cache(maxsize=8)
def _kappa_interpolant(d: int, alpha: float):
    from scipy.interpolate import CubicSpline

    knots = np.geomspace(1e-6, 120.0, 800)
    vals = _kappa_table(knots, d, alpha)
    if not np.all(vals > 0.0):
        raise ConstructionError("jump profile evaluation lost positivity")
    spline = CubicSpline(np.log(knots), np.log(vals))
    head_amp = float(vals[0] * knots[0] ** (1.0 + alpha))
    return spline, head_amp


def jump_profile(s, d: int, alpha: float):
    """kappa(s): the log-coordinate jump density of the ground-state
    representation, symmetric in s with a |s|^{-1-alpha} singularity at
    zero and exponential decay at infinity.

    Dimension three has a closed form; other dimensions go through a
    cubic spline of log kappa versus log s built from exact chord
    integrals, with the power-law head continued analytically below the
    first knot.  Accepts scalars or arrays of nonzero s.
    """
    s_arr = np.abs(np.asarray(s, dtype=float))
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    if np.any(s_arr <= 0.0):
        raise DomainError("jump profile is singular at s = 0")
    if d == 3:
        # (2 sinh)^{-1-a} - (2 cosh)^{-1-a} written as
        # (2 cosh)^{-1-a} (coth^{1+a} - 1) via expm1/log1p, which stays
        # accurate where the direct difference cancels (large s).
        c = _jump_normalization(3, alpha) * 4.0 * math.pi**2 * 2.0 / (1.0 + alpha)
        q = np.exp(-s_arr)
        bracket = np.expm1((1.0 + alpha) * (np.log1p(q) - np.log1p(-q)))
        far = (2.0 * np.cosh(0.5 * s_arr)) ** (-1.0 - alpha)
        out = c * far * bracket
    else:
        spline, head_amp = _kappa_interpolant(d, float(alpha))
        out = np.zeros_like(s_arr)
        tiny = s_arr < 1e-6
        big = s_arr > 115.0
        mid = ~(tiny | big)
        out[tiny] = head_amp * s_arr[tiny] ** (-1.0 - alpha)
        out[mid] = np.exp(spline(np.log(s_arr[mid])))
    return float(out[0]) if scalar else out


def _one_dim_symbol(taus: np.ndarray, d: int, alpha: float) -> np.ndarray:
    """phi(tau) = int_0^inf 2 kappa(s)(1 - cos(tau s)) ds on a graded grid.

    The grid is logarithmic near the singularity and linear with a step
    resolving the fastest oscillation out to where kappa has decayed; the
    truncated singular head below the first grid point is added in
    closed form from the local power law kappa ~ A s^{-1-alpha}.
    """
    taus = np.asarray(taus, dtype=float)
    s0 = 1e-8
    head = np.geomspace(s0, 0.1, 3001)
    step = min(5e-4, 2.0 * math.pi / (12.0 * max(taus.max(), 1.0)))
    tail = np.arange(0.1 + step, 90.0, step)
    s_all = np.concatenate([head, tail])
    k_all = jump_profile(s_all, d, alpha)
    integrand = 2.0 * k_all[None, :] * (1.0 - np.cos(taus[:, None] * s_all[None, :]))
    vals = np.trapezoid(integrand, s_all, axis=1)
    amp = k_all[0] * s0 ** (1.0 + alpha)
    vals += amp * taus**2 * s0 ** (2.0 - alpha) / (2.0 - alpha)
    return vals


_COLLOCATION_THETAS = math.pi * np.arange(1, _NEAR_LAGS + 1) / _NEAR_LAGS


@lru_cache(maxsize=64)
def _near_field_symbol(h: float, d: int, alpha: float) -> np.ndarray:
    """phi at the collocation frequencies theta_j / h, memoized.

    The symbol depends on the grid only through its log step, so grids
    sharing (h, d, alpha) share this integral.  The array is read-only
    because the memo hands the same object to every caller.
    """
    vals = _one_dim_symbol(_COLLOCATION_THETAS / h, d, alpha)
    vals.setflags(write=False)
    return vals


# ---------------------------------------------------------------------------
# assembly

def _lag_weights(grid: RadialGrid, alpha: float) -> np.ndarray:
    """Jump weights of lags 1 .. n-1 on a log-uniform grid."""
    d, n = grid.d, grid.n
    h = _log_step(grid)
    lag_weights = h * h * jump_profile(h * np.arange(1, n), d, alpha)

    # Replace the first few lags by weights that reproduce the exact
    # one-dimensional symbol at eight frequencies up to the Nyquist.
    j = np.arange(1, _NEAR_LAGS + 1)
    thetas = _COLLOCATION_THETAS
    phi_vals = _near_field_symbol(h, d, alpha)
    b_far = np.arange(_NEAR_LAGS + 1, n)
    far_sum = (
        2.0 * (1.0 - np.cos(np.outer(thetas, b_far))) @ lag_weights[_NEAR_LAGS:]
    )
    coll = 2.0 * (1.0 - np.cos(np.outer(thetas, j)))
    lag_weights[:_NEAR_LAGS] = np.linalg.solve(coll, h * phi_vals - far_sum)
    return lag_weights


def _symmetric_free_matrix(grid: RadialGrid, alpha: float) -> np.ndarray:
    """Symmetrized matrix of |p|^alpha on the grid (weighted coordinates)."""
    key = ("free_sym", float(alpha))
    if key in grid._cache:
        return grid._cache[key]
    d = grid.d
    alpha = float(alpha)
    if not (0.0 < alpha < min(2.0, float(d))):
        raise DomainError(
            f"alpha must lie in (0, min(2, d)), got {alpha!r} for d={d}"
        )
    n = grid.n
    if n < 3 * _NEAR_LAGS:
        raise ConstructionError(
            f"grid too coarse for the near-field solve: need n >= "
            f"{3 * _NEAR_LAGS}, got {n}"
        )
    r = grid.nodes
    w = grid.weights
    lag_weights = _lag_weights(grid, alpha)

    # Toeplitz jump matrix T[i, j] = lag weight |i - j| (zero diagonal), as
    # reversed sliding windows over the mirrored lag sequence, with the
    # trapezoid end factors on both sides.
    mirrored = np.concatenate([lag_weights[::-1], [0.0], lag_weights])
    toeplitz = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1]
    c_end = np.ones(n)
    c_end[0] = c_end[-1] = 0.5
    jump = toeplitz * np.outer(c_end, c_end)
    # Divide out the ground state and the weights: -jump / (gw_i gw_j) off
    # the diagonal, the jump row sums on it.  Every factor is bitwise
    # symmetric, so the matrix is too.
    ground_w = r ** (-0.5 * (d - alpha)) * np.sqrt(w)
    s_mat = jump / np.outer(-ground_w, ground_w)
    s_mat.flat[:: n + 1] = (
        jump.sum(axis=1) / (ground_w * ground_w) + hardy_constant(d, alpha) * r**-alpha
    )

    defect = np.linalg.norm(s_mat - s_mat.T) / np.linalg.norm(s_mat)
    if defect > 1e-6:
        raise ConstructionError(
            f"assembled operator asymmetric: relative defect {defect:.2e}"
        )
    grid._cache[key] = s_mat
    return s_mat


@dataclass(frozen=True)
class SpectralOperator:
    """Eigendecomposition of one discrete operator on a radial grid.

    eigenvalues are ascending and clamped to [0, inf); modes holds the
    eigenvectors as columns, orthonormal in the grid's weighted inner
    product (modes.T @ diag(weights) @ modes = I).  coupling is the
    scalar a for |p|^alpha + a r^{-alpha} operators and None for general
    sandwiched potentials.
    """

    grid: RadialGrid
    alpha: float
    coupling: Optional[float]
    eigenvalues: np.ndarray
    modes: np.ndarray
    label: str


def _finalize_eigensystem(grid: RadialGrid, alpha: float, coupling: Optional[float],
                          label: str, diagonal: Optional[np.ndarray] = None,
                          cache_key=None) -> SpectralOperator:
    """Eigensystem of the free matrix plus an optional diagonal, looked up
    in the grid cache before anything is assembled."""
    if cache_key is not None and cache_key in grid._cache:
        lam, modes = grid._cache[cache_key]
    else:
        s_mat = _symmetric_free_matrix(grid, alpha)
        if diagonal is not None:
            s_mat = s_mat.copy()
            s_mat.flat[:: grid.n + 1] += diagonal
        lam, modes = np.linalg.eigh(s_mat)
        spec_radius = float(max(abs(lam[0]), abs(lam[-1])))
        tol_neg = 1e-8 * spec_radius
        if lam[0] < -tol_neg:
            raise ConstructionError(
                f"{label}: smallest eigenvalue {lam[0]:.6e} is negative "
                f"beyond the tolerance {tol_neg:.2e}; the continuum "
                f"operator this represents would not be semibounded here"
            )
        lam = np.maximum(lam, 0.0)
        modes /= np.sqrt(grid.weights)[:, None]
        if cache_key is not None:
            grid._cache[cache_key] = (lam, modes)
    return SpectralOperator(
        grid=grid,
        alpha=alpha,
        coupling=coupling,
        eigenvalues=lam,
        modes=modes,
        label=label,
    )


def build_fractional_laplacian(grid: RadialGrid, alpha: float) -> SpectralOperator:
    """Discrete |p|^alpha restricted to radial functions on the grid."""
    return _finalize_eigensystem(
        grid, float(alpha), 0.0,
        label=f"fractional_laplacian(alpha={alpha})",
        cache_key=("eig", float(alpha), 0.0),
    )


def build_hardy_operator(grid: RadialGrid, params: HardyParams) -> SpectralOperator:
    """Discrete |p|^alpha + a r^{-alpha} for a validated parameter set.

    The coupling enters as an exact diagonal, so the difference from the
    free operator carries no discretization error.  A spectrum dipping
    below -1e-8 times the spectral radius raises ConstructionError;
    harmless negative rounding above that is clamped to zero, which
    realizes the Friedrichs extension on the grid.
    """
    if grid.d != params.d:
        raise DomainError(
            f"grid dimension {grid.d} does not match params.d={params.d}"
        )
    return _finalize_eigensystem(
        grid, params.alpha, params.a,
        label=f"hardy_operator(alpha={params.alpha}, a={params.a})",
        diagonal=params.a * grid.nodes**-params.alpha,
        cache_key=("eig", float(params.alpha), float(params.a)),
    )


@dataclass(frozen=True)
class PotentialSpec:
    """A radial potential together with its declared sandwich couplings.

    profile maps an array of radii to V(r); the declaration promises
    a r^{-alpha} <= V(r) <= a_tilde r^{-alpha} pointwise, which the
    builder verifies on the grid nodes.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    a: float
    a_tilde: float


def build_potential_operator(grid: RadialGrid, alpha: float,
                             pot: PotentialSpec) -> SpectralOperator:
    """Discrete |p|^alpha + V(r) for a sandwiched potential."""
    alpha = float(alpha)
    if not (pot.a <= pot.a_tilde):
        raise DomainError(
            f"sandwich couplings out of order: a={pot.a!r}, "
            f"a_tilde={pot.a_tilde!r}"
        )
    crit = a_star(grid.d, alpha)
    if not (pot.a >= crit):
        raise DomainError(
            f"lower sandwich coupling {pot.a!r} is below the critical "
            f"value {crit}"
        )
    r = grid.nodes
    v_vals = np.asarray(pot.profile(r), dtype=float)
    if v_vals.shape != r.shape or not np.all(np.isfinite(v_vals)):
        raise ConstructionError("potential profile returned bad values")
    lo = pot.a * r**-alpha
    hi = pot.a_tilde * r**-alpha
    slack = 1e-12 * (np.abs(lo) + np.abs(hi) + 1.0)
    bad = (v_vals < lo - slack) | (v_vals > hi + slack)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConstructionError(
            f"potential escapes its sandwich at r={r[i]:.6g}: "
            f"V={v_vals[i]:.6g} outside [{lo[i]:.6g}, {hi[i]:.6g}]"
        )
    return _finalize_eigensystem(
        grid, alpha, None,
        label=f"potential_operator(alpha={alpha})",
        diagonal=v_vals,
    )


# ---------------------------------------------------------------------------
# spectral calculus

def apply_function(op: SpectralOperator, phi: Callable, f) -> np.ndarray:
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


def heat_kernel_matrix(op: SpectralOperator, t: float) -> np.ndarray:
    """Kernel matrix of exp(-t op): entry (i, j) approximates the
    angular-averaged continuum kernel at radii (r_i, r_j)."""
    t = float(t)
    if not (t >= 0.0) or math.isinf(t):
        raise DomainError(f"time must be finite and >= 0, got {t!r}")
    # Gram form B @ B.T with B = modes exp(-t lam / 2): numpy runs it as a
    # symmetric rank-k update, so the kernel is exactly symmetric.
    b_mat = op.modes * np.exp(-0.5 * t * op.eigenvalues)
    return b_mat @ b_mat.T

