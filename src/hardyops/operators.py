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
             = |S^{d-1}| (2^alpha |Gamma((d+alpha)/4 + i tau/2)|^2
                          / |Gamma((d-alpha)/4 + i tau/2)|^2 - H)

at eight collocation frequencies up to the grid Nyquist.  The second line
is the ground-state Mellin symbol in closed form, which is how phi is
evaluated; no integral of kappa is taken.  The assembled
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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionError, DomainError
from .quadrature import _row_dot
from .specfun import (
    HardyParams,
    _check_alpha,
    _check_count,
    _check_dimension,
    _scaled_log_abs_gamma,
    a_star,
    gauss_jacobi,
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
    "heat_kernel_matrix",
    "jump_profile",
]

_NEAR_LAGS = 8  # lags solved by symbol collocation instead of point values
_CHORD_GJ_NODES = 64  # Gauss-Jacobi nodes per chord-integral rule
_CHORD_GL_NODES = 24  # Gauss-Legendre nodes per doubling panel


# ---------------------------------------------------------------------------
# grid

@dataclass
class RadialGrid:
    """Geometric radial grid with trapezoid weights in log coordinates.

    weights[i] approximates the volume element |S^{d-1}| r^{d-1} dr around
    node i, so sum(f**2 * weights) is the squared L^2 norm of the radial
    function f.
    """

    d: int
    nodes: np.ndarray
    weights: np.ndarray

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
    area: w_i = |S^{d-1}| h c_i r_i^d with end factors c = 1/2.  A weight
    that is not a positive normal double raises DomainError (on the
    default box [1e-3, 1e3] from d = 92 on).
    """
    d = _check_dimension(d)
    r_min = float(r_min)
    r_max = float(r_max)
    if not (0.0 < r_min < r_max) or math.isinf(r_max):
        raise DomainError(
            f"need 0 < r_min < r_max (finite), got [{r_min!r}, {r_max!r}]"
        )
    _check_count("grid size", n, least=2)
    nodes = np.geomspace(r_min, r_max, n)
    h = math.log(r_max / r_min) / (n - 1)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    with np.errstate(over="ignore"):
        weights = sphere_area(d) * h * c * nodes**d
    if not np.all((weights >= np.finfo(float).tiny) & (weights < math.inf)):
        raise DomainError(
            f"grid weights |S^(d-1)| h c r^d leave the positive normal doubles at d={d} "
            f"on [{r_min!r}, {r_max!r}]; use a lower dimension or a box nearer r = 1"
        )
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
    try:
        gamma_ratio = math.exp(log_gamma(0.5 * (d + alpha)) - log_gamma(1.0 - 0.5 * alpha))
    except OverflowError:
        raise DomainError(f"jump kernel constant cannot be evaluated at d={d}, alpha={alpha}: "
                          f"Gamma((d+alpha)/2) overflows a double") from None
    return 2.0**alpha * gamma_ratio * (0.5 * alpha) / math.pi ** (0.5 * d)


def _chord_power_integrals(xm: np.ndarray, width: float, e_pow: float,
                           beta: float) -> np.ndarray:
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
    have zero width and add exactly nothing.  Each endpoint's dots and
    panel sum run in a fixed order, so its value does not depend on the
    other endpoints in the array.
    """
    xm = np.asarray(xm, dtype=float)
    out = np.empty_like(xm)
    sym = xm > 0.05 * width / 0.95
    x, w = gauss_jacobi(_CHORD_GJ_NODES, beta, beta)
    xi = xm[sym, None] + width * 0.5 * (1.0 + x)
    out[sym] = (0.5 * width) ** (2.0 * beta + 1.0) * _row_dot(xi**-e_pow, w)

    # Graded branch; one row per endpoint, columns are quadrature nodes.
    lo_end = xm[~sym, None]
    hi_end = lo_end + width
    c_left = 2.0 * lo_end
    c_right = 0.5 * hi_end
    # Near xi ~ xm the factors xi^-e_pow and (xi - xm)^beta can over- and
    # underflow although their product is moderate, so the left panel takes
    # xm^(beta + 1 - e_pow) out in one power (xi / xm = 1.5 + xl / 2 there),
    # and the doubling panels take (1 - xm / xi)^beta xi^(beta - e_pow).
    xl, wl = gauss_jacobi(_CHORD_GJ_NODES, 0.0, beta)
    xi = lo_end + (c_left - lo_end) * 0.5 * (1.0 + xl)
    left = 0.5 ** (beta + 1.0) * lo_end[:, 0] ** (beta + 1.0 - e_pow) * _row_dot(
        (hi_end - xi) ** beta * (1.5 + 0.5 * xl) ** -e_pow, wl)
    xr, wr = gauss_jacobi(_CHORD_GJ_NODES, beta, 0.0)
    xi = c_right + (hi_end - c_right) * 0.5 * (1.0 + xr)
    right = (0.5 * (hi_end - c_right)[:, 0]) ** (beta + 1.0) * _row_dot(
        (xi - lo_end) ** beta * xi**-e_pow, wr)
    xg, wg = gauss_jacobi(_CHORD_GL_NODES, 0.0, 0.0)
    n_panels = int(np.ceil(np.log2(np.max(c_right / c_left, initial=1.0)))) + 1
    lo = np.minimum(c_left * 2.0 ** np.arange(n_panels), c_right)
    hi = np.minimum(2.0 * lo, c_right)
    xi = lo[..., None] + (hi - lo)[..., None] * 0.5 * (1.0 + xg)
    vals = ((1.0 - lo_end[..., None] / xi) ** beta * (hi_end[..., None] - xi) ** beta
            * xi ** (beta - e_pow))
    panels = 0.5 * (hi - lo) * _row_dot(vals.reshape(-1, _CHORD_GL_NODES), wg).reshape(lo.shape)
    # Left to right: the zero-width panels past an endpoint's own add +0.
    out[~sym] = left + right + panels.cumsum(axis=1)[:, -1]
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


def jump_profile(s, d: int, alpha: float):
    """kappa(s): the log-coordinate jump density of the ground-state
    representation, symmetric in s with a |s|^{-1-alpha} singularity at
    zero and exponential decay at infinity.

    Dimension three has a closed form; other dimensions evaluate the
    chord table directly at the requested separations.  Beyond |s| = 700
    kappa is below 1e-300 and is returned as exactly zero.  Accepts
    scalars or arrays; zero, NaN and separations too small for kappa to
    be evaluated in double precision raise DomainError.
    """
    d = _check_dimension(d)
    alpha = _check_alpha(d, alpha, min(2, d))
    s_arr = np.atleast_1d(np.abs(np.asarray(s, dtype=float)))
    if not np.all(s_arr > 0.0):
        raise DomainError("jump profile needs nonzero s that is not NaN")
    out = np.zeros_like(s_arr)
    live = s_arr < 700.0  # (2 sinh(s/2))^2 overflows at s = 709.8
    s_live = s_arr[live]
    try:
        with np.errstate(over="raise", divide="raise"):
            if d == 3:
                # (2 sinh)^{-1-a} - (2 cosh)^{-1-a} as (2 cosh)^{-1-a} (coth^{1+a} - 1)
                # via expm1/log1p, accurate where the difference cancels (large s).
                # log(1 - exp(-s)) is log(-expm1(-s)) below s = ln 2, where 1 - exp(-s)
                # has a relative rounding error of about 1e-16 / s, and log1p(-exp(-s))
                # above; each only where used, since log1p(-1) would divide by zero.
                c = _jump_normalization(3, alpha) * 4.0 * math.pi**2 * 2.0 / (1.0 + alpha)
                q = np.exp(-s_live)
                log_gap = np.log(-np.expm1(-s_live))
                far = s_live >= math.log(2.0)
                log_gap[far] = np.log1p(-q[far])
                bracket = np.expm1((1.0 + alpha) * (np.log1p(q) - log_gap))
                out[live] = c * (2.0 * np.cosh(0.5 * s_live)) ** (-1.0 - alpha) * bracket
            else:
                out[live] = _kappa_table(s_live, d, alpha)
    except FloatingPointError as exc:
        raise DomainError(f"jump profile overflows at s = {s_live.min():.3g}") from exc
    if not np.all(np.isfinite(out) & (out >= 0.0)):
        raise ConstructionError("jump profile evaluation lost positivity")
    return float(out[0]) if np.ndim(s) == 0 else out


_COLLOCATION_THETAS = math.pi * np.arange(1, _NEAR_LAGS + 1) / _NEAR_LAGS


def _near_field_symbol(h: float, d: int, alpha: float) -> np.ndarray:
    """phi at the collocation frequencies theta_j / h, in closed form.

    phi(tau) = |S^{d-1}| (2^alpha |Gamma((d+alpha)/4 + i tau/2)|^2
                          / |Gamma((d-alpha)/4 + i tau/2)|^2 - H)

    is the ground-state Mellin symbol (Frank, Lieb and Seiringer, J. Amer.
    Math. Soc. 21, 2008).  Both moduli decay like exp(-pi tau / 4); their
    scaled logarithms drop that common factor, so the ratio keeps every
    digit at the grid's highest frequencies.
    """
    half_tau = 0.5 * _COLLOCATION_THETAS / h
    log_ratio = (_scaled_log_abs_gamma(0.25 * (d + alpha), half_tau)
                 - _scaled_log_abs_gamma(0.25 * (d - alpha), half_tau))
    return sphere_area(d) * (2.0**alpha * np.exp(2.0 * log_ratio) - hardy_constant(d, alpha))


# ---------------------------------------------------------------------------
# assembly

def _lag_weights(grid: RadialGrid, alpha: float) -> np.ndarray:
    """Jump weights of lags 1 .. n-1 on a log-uniform grid."""
    d, n = grid.d, grid.n
    h = _log_step(grid)
    lag_weights = h * h * jump_profile(h * np.arange(1, n), d, alpha)

    # Replace the first few lags by weights that reproduce the closed-form
    # one-dimensional symbol at eight frequencies up to the Nyquist: the
    # lag sum 2 sum_k w_k (1 - cos(k theta)) must equal h phi(theta / h).
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
    """Symmetrized matrix of |p|^alpha on the grid (weighted coordinates).

    The ground state r^{-(d-alpha)/2} and the weights |S^{d-1}| h c r^d
    cancel, leaving -T_|i-j| e_i e_j off the diagonal, with
    e = sqrt(c / (|S^{d-1}| h)) r^{-alpha/2}, and
    r^{-alpha} ((T c) / (|S^{d-1}| h) + H) on it: T the Toeplitz lag
    matrix, c the trapezoid end factors.  Returns a fresh array that the
    caller owns and may change in place.
    """
    d = grid.d
    alpha = _check_alpha(d, alpha, min(2, d))
    n = grid.n
    if n < 3 * _NEAR_LAGS:
        raise ConstructionError(
            f"grid too coarse for the near-field solve: need n >= "
            f"{3 * _NEAR_LAGS}, got {n}"
        )
    r = grid.nodes
    lag_weights = _lag_weights(grid, alpha)
    scale = sphere_area(d) * _log_step(grid)

    # T[i, j] = lag weight |i - j| (zero diagonal), as reversed sliding
    # windows over the mirrored lag sequence.
    mirrored = np.concatenate([lag_weights[::-1], [0.0], lag_weights])
    toeplitz = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1]
    c_end = np.ones(n)
    c_end[0] = c_end[-1] = 0.5
    e = np.sqrt(c_end / scale) * r ** (-0.5 * alpha)
    # Four whole-matrix passes in place: besides the result only the row
    # sums are allocated.  e_i e_j rounds as e_j e_i does, so the matrix is
    # bitwise symmetric.
    s_mat = np.multiply(toeplitz, c_end)
    t_c = s_mat.sum(axis=1)
    np.multiply(-e[:, None], e, out=s_mat)
    s_mat *= toeplitz
    s_mat.flat[:: n + 1] = r**-alpha * (t_c / scale + hardy_constant(d, alpha))
    return s_mat


@dataclass(frozen=True)
class SpectralOperator:
    """Eigendecomposition of one discrete operator on a radial grid.

    eigenvalues are ascending and clamped to [0, inf); modes holds the
    eigenvectors as columns, orthonormal in the grid's weighted inner
    product (modes.T @ diag(weights) @ modes = I).
    """

    grid: RadialGrid
    eigenvalues: np.ndarray
    modes: np.ndarray


def _finalize_eigensystem(grid: RadialGrid, alpha: float, label: str,
                          diagonal: Optional[np.ndarray] = None) -> SpectralOperator:
    """Eigensystem of the free matrix plus an optional diagonal.

    Each build assembles the free matrix afresh and adds the diagonal in
    place; no assembled matrix outlives the build, and the eigensystem
    lives exactly as long as the returned operator.  ``label`` names the
    operator in the error raised for a spectrum below the tolerance.
    """
    s_mat = _symmetric_free_matrix(grid, alpha)
    if diagonal is not None:
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
    return SpectralOperator(grid=grid, eigenvalues=lam, modes=modes)


def build_fractional_laplacian(grid: RadialGrid, alpha: float) -> SpectralOperator:
    """Discrete |p|^alpha restricted to radial functions on the grid."""
    return _finalize_eigensystem(grid, float(alpha), label=f"fractional_laplacian(alpha={alpha})")


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
        grid, params.alpha,
        label=f"hardy_operator(alpha={params.alpha}, a={params.a})",
        diagonal=params.a * grid.nodes**-params.alpha,
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
        grid, alpha,
        label=f"potential_operator(alpha={alpha})",
        diagonal=v_vals,
    )


# ---------------------------------------------------------------------------
# spectral calculus

def heat_kernel_matrix(op: SpectralOperator, t: float,
                       pairs: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel matrix of exp(-t op): entry (i, j) approximates the
    angular-averaged continuum kernel at radii (r_i, r_j).

    With ``pairs``, an (m, 2) integer array of node indices, only the m
    entries K[i, j] are computed and returned as a 1-D array, each as the
    dot product of rows i and j of B = modes exp(-t lam / 2); no n x n
    matrix is formed.  Indices outside [0, n) raise DomainError.
    """
    t = float(t)
    if not (t >= 0.0) or math.isinf(t):
        raise DomainError(f"time must be finite and >= 0, got {t!r}")
    scale = np.exp(-0.5 * t * op.eigenvalues)
    if pairs is None:
        # Gram form B @ B.T: numpy runs it as a symmetric rank-k update, so
        # the kernel is exactly symmetric.
        b_mat = op.modes * scale
        return b_mat @ b_mat.T
    pairs = _check_pairs(pairs, len(scale))
    rows_i = op.modes[pairs[:, 0]] * scale
    rows_j = op.modes[pairs[:, 1]] * scale
    return np.einsum("ij,ij->i", rows_i, rows_j)


def _check_pairs(pairs, n: int) -> np.ndarray:
    # Indices must lie in [0, n): numpy would wrap negative ones silently.
    if not (isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.shape[1] == 2
            and pairs.dtype.kind in "iu"):
        raise DomainError(
            f"pairs must be an (m, 2) integer ndarray, got {type(pairs).__name__} "
            f"of shape {getattr(pairs, 'shape', None)}"
        )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise DomainError(f"pair indices must lie in [0, {n}), got "
                          f"[{pairs.min()}, {pairs.max()}]")
    return pairs

