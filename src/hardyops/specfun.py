"""Gamma-based constants for the fractional Hardy operator family.

Everything in this module is a special-function evaluation: the sharp
Hardy constant for the fractional Laplacian, the critical couplings
``a_star`` and ``a_star_star``, the Mellin symbol ``psi`` of the operator
|p|^alpha + a |x|^{-alpha} acting on radial power functions, and the
inverse of that symbol, whose value ``delta`` is the singularity exponent
appearing in every kernel bound downstream.

All real Gamma evaluations go through ``log_gamma`` so that ratios of
large Gamma values never overflow; ``log_abs_gamma`` is the modulus off
the real axis, elementwise on arrays, from which the discretization
builds the symbol on the critical line.  The module also provides the one
Gauss rule family the package integrates with, ``gauss_jacobi``.  All of
it runs on the standard library and numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
    "log_abs_gamma",
    "gauss_jacobi",
    "sphere_area",
    "hardy_constant",
    "a_star",
    "a_star_star",
    "psi",
    "psi_inv",
    "HardyParams",
    "make_params",
]

_LN2 = math.log(2.0)
_LOG_SQRT_2PI = 0.91893853320467274178
# B_2k / (2k (2k - 1)) for k = 1..10: Stirling's series for log Gamma(z) in
# powers of 1/z.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
             -174611.0 / 125400.0)
# Stirling's series runs at |z| >= 8; smaller arguments are shifted up.
_STIRLING_MODULUS = 8.0


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Raises DomainError for nonpositive or non-finite arguments; the
    package never needs log-Gamma on the negative axis directly (negative
    arguments are reached through explicit recurrences at call sites).

    This is the Cephes ``lgam`` routine (S. L. Moshier, *Methods and
    Programs for Mathematical Functions*, 1989) restricted to x > 0, with
    its Horner steps written out, so it returns the same double as
    ``scipy.special.gammaln``: below 13 a recurrence into [2, 3) and a
    rational approximation there; above, Stirling's series, truncated
    at 1000 and dropped above 1e8.  It overflows to inf above 2.556348e305
    and, through 1/x, below about 5.6e-309.
    """
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"log_gamma requires a finite x > 0, got {x!r}")
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num = (((((-1.37825152569120859100e3 * x - 3.88016315134637840924e4) * x
                  - 3.31612992738871184744e5) * x - 1.16237097492762307383e6) * x
                - 1.72173700820839662146e6) * x - 8.53555664245765465627e5)
        den = ((((((x - 3.51815701436523470549e2) * x - 1.70642106651881159223e4) * x
                  - 2.20528590553854454839e5) * x - 1.13933444367982507207e6) * x
                - 2.53252307177582951285e6) * x - 2.01889141433532773231e6)
        return math.log(z) + x * num / den
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / x


def log_abs_gamma(x, y):
    """log|Gamma(x + iy)| elementwise, for x > 0 and real y.

    x and y are scalars or arrays that broadcast together; two scalars
    give a float.  Raises DomainError for x <= 0, the closed half-plane
    that holds every pole, and for non-finite input.  The value is even
    in y, bit for bit.

    The modulus falls like exp(-pi |y| / 2), so the value is close to
    -pi |y| / 2 and carries that term's rounding, up to two ulps of the
    result.  Apart from it the value is within 1e-14 of the exact one for
    x in (0, 3] (``_scaled_log_abs_gamma``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("log_abs_gamma requires finite x and y")
    if not np.all(x > 0.0):
        raise DomainError(
            f"log_abs_gamma requires x > 0, got {np.min(x)!r}; "
            f"the poles of Gamma lie at x = 0, -1, -2, ..."
        )
    out = _scaled_log_abs_gamma(x, y) - 0.5 * math.pi * np.abs(y)
    return float(out) if out.ndim == 0 else out


def _scaled_log_abs_gamma(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log|Gamma(x + iy)| + pi |y| / 2 on validated arrays (x > 0).

    The added term cancels the exponential decay of the modulus, so the
    value stays of the size of (x - 1/2) log|z|; for x in (0, 3] it is
    within 1e-14 of the exact value (7e-15 measured against mpmath for
    |y| <= 600), and differences of these values lose no digits to the
    decay.

    Arguments with |z| < 8 are shifted up by the fewest unit steps that
    reach |z| >= 8, through Gamma(z) = Gamma(z + n) / (z (z+1) ...
    (z+n-1)), with the product's moduli multiplied before one log.
    Stirling's series then takes ten terms; the first omitted one is below
    2e-18 at |z| = 8, and for Re z > 0 the remainder is at most 2^11 times
    that.  In Stirling's formula, -y arg z + pi |y| / 2 is written
    |y| atan2(x, |y|), which has no cancellation.
    """
    x, y = np.broadcast_arrays(x, np.abs(y))
    shift = np.ceil(np.sqrt(np.maximum(_STIRLING_MODULUS**2 - y * y, 0.0)) - x)
    shift = np.maximum(shift, 0.0)
    moduli = np.ones(x.shape)
    for k in range(int(np.max(shift, initial=0.0))):
        moduli *= np.where(k < shift, np.hypot(x + k, y), 1.0)
    x = x + shift
    inv = 1.0 / (x + 1j * y)
    inv_sq = inv * inv
    series = _STIRLING[-1]
    for coeff in _STIRLING[-2::-1]:
        series = series * inv_sq + coeff
    series = (series * inv).real
    return ((x - 0.5) * np.log(np.hypot(x, y)) + y * np.arctan2(x, y) - x
            + _LOG_SQRT_2PI + series - np.log(moduli))


@lru_cache(maxsize=64)
def gauss_jacobi(n: int, a: float, b: float) -> tuple:
    """Nodes and weights of the n-point Gauss rule for the weight
    (1 - x)^a (1 + x)^b on [-1, 1], for a, b > -1 (Legendre is (0, 0)).

    Golub-Welsch: the nodes are the eigenvalues of the n x n Jacobi
    matrix of the monic Jacobi recurrence, each polished by one Newton
    step on that recurrence.  The weights are the reciprocals of the
    Christoffel-Darboux form P_{n-1} P_n' - P_n P_{n-1}' at the nodes
    (equal to P_{n-1} P_n' at an exact node; the second term cancels
    most of the error of rounding the node to a double), scaled to sum
    to mu0 = 2^{a+b+1} Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).  The first
    off-diagonal is written in closed form, because the general formula
    is 0/0 at a + b = -1.  Symmetric rules (a == b) are made exactly
    symmetric.  Memoized; the arrays are read-only because every caller
    shares them.
    """
    _check_count("rule size", n)
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise DomainError(f"Jacobi exponents must be finite and > -1, got a={a!r}, b={b!r}")
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    # beta[k] couples P_{k-1} into P_{k+1}; beta[0] multiplies P_{-1} = 0.
    beta = np.zeros(n)
    if n > 1:
        beta[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        k, s = k[2:], s[2:]
        beta[2:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    jacobi = np.diag(diag) + np.diag(np.sqrt(beta[1:]), 1)
    x = np.linalg.eigh(jacobi, UPLO="U")[0]

    def recurrence(x):
        """P_{n-1}, P_n and their derivatives at x, monic normalization."""
        p_prev, p, dp_prev, dp = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
        for j in range(n):
            shift = x - diag[j]
            p_prev, p, dp_prev, dp = (
                p, shift * p - beta[j] * p_prev, dp, p + shift * dp - beta[j] * dp_prev
            )
        return p_prev, p, dp_prev, dp

    _, p, _, dp = recurrence(x)
    x = x - p / dp
    p_prev, p, dp_prev, dp = recurrence(x)
    w = 1.0 / (p_prev * dp - p * dp_prev)
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    mu0 = math.exp((a + b + 1.0) * _LN2 + log_gamma(a + 1.0) + log_gamma(b + 1.0)
                   - log_gamma(a + b + 2.0))
    w *= mu0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d, 2 pi^{d/2} / Gamma(d/2)."""
    d = _check_dimension(d, minimum=1)
    return 2.0 * math.pi ** (0.5 * d) / math.exp(log_gamma(0.5 * d))


def _check_count(name: str, count, least: int = 1) -> None:
    # Python ints only: a float or a bool would fail later as a TypeError
    # or count as 0 or 1.
    if not isinstance(count, int) or isinstance(count, bool) or count < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {count!r}")


def _check_dimension(d, minimum: int = 2) -> int:
    if isinstance(d, bool) or not isinstance(d, int):
        raise DomainError(f"dimension must be an integer, got {d!r}")
    if d < minimum:
        raise DomainError(f"dimension must be >= {minimum}, got {d}")
    return d


def _check_alpha(d: int, alpha: float, upper: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < upper):
        raise DomainError(
            f"alpha must lie in (0, {upper}), got {alpha!r} for d={d}"
        )
    return alpha


def hardy_constant(d: int, alpha: float) -> float:
    """Sharp constant in the fractional Hardy inequality.

    For 0 < alpha < d this is
    2^alpha * (Gamma((d+alpha)/4) / Gamma((d-alpha)/4))^2,
    the optimal constant H with ||p|^{alpha/2} f|^2 >= H ||x|^{-alpha/2} f|^2.
    """
    d = _check_dimension(d)
    alpha = _check_alpha(d, alpha, upper=float(d))
    lg = log_gamma(0.25 * (d + alpha)) - log_gamma(0.25 * (d - alpha))
    return 2.0**alpha * math.exp(2.0 * lg)


def a_star(d: int, alpha: float) -> float:
    """Critical coupling: the quadratic form of |p|^alpha + a|x|^{-alpha}
    is nonnegative exactly for a >= a_star = -hardy_constant(d, alpha)."""
    return -hardy_constant(d, alpha)


def a_star_star(d: int, alpha: float) -> float:
    """Second critical coupling, -hardy_constant(d, 2*alpha)^{1/2}.

    Only defined for alpha < d/2; below this coupling the operator's
    Sobolev-scale behaviour changes regime. Raises DomainError when
    alpha >= d/2.
    """
    d = _check_dimension(d)
    alpha = float(alpha)
    if not (0.0 < alpha < 0.5 * d):
        raise DomainError(
            f"a_star_star is defined only for 0 < alpha < d/2, "
            f"got alpha={alpha!r}, d={d}"
        )
    return -math.sqrt(hardy_constant(d, 2.0 * alpha))


def psi(d: int, alpha: float, sigma: float) -> float:
    """Mellin symbol of the fractional Laplacian on radial powers.

    For -alpha < sigma <= (d - alpha)/2,

        psi(sigma) = -2^alpha Gamma((sigma+alpha)/2) Gamma((d-sigma)/2)
                     / (Gamma((d-sigma-alpha)/2) Gamma(sigma/2)),

    so that |p|^alpha r^{-sigma} = -psi(sigma) r^{-sigma-alpha}.  The
    function is strictly decreasing on its domain, vanishes at sigma = 0
    (returned exactly), tends to +infinity as sigma -> -alpha, and attains
    a_star at the right endpoint sigma = (d - alpha)/2 (also returned
    exactly).

    For sigma < 0 the 1/Gamma(sigma/2) factor is evaluated through the
    recurrence Gamma(z) = Gamma(z+1)/z, which keeps every log_gamma call
    on the positive axis.
    """
    d = _check_dimension(d)
    alpha = _check_alpha(d, alpha, upper=min(2.0, float(d)))
    sigma = float(sigma)
    upper = 0.5 * (d - alpha)
    if not (-alpha < sigma <= upper):
        raise DomainError(
            f"sigma must lie in (-alpha, (d-alpha)/2] = "
            f"({-alpha}, {upper}], got {sigma!r}"
        )
    return _psi(d, alpha, sigma, a_star(d, alpha))


def _psi(d: int, alpha: float, sigma: float, critical: float) -> float:
    """psi on validated arguments, given critical = a_star(d, alpha).

    ``psi_inv`` bisects on this core, so the checks and the critical
    coupling are not redone at every step.
    """
    if sigma == 0.0:
        return 0.0
    if sigma == 0.5 * (d - alpha):
        # The closed identity psi((d - alpha)/2) = a_star holds exactly;
        # going through the gamma ratios here would miss it by an ulp,
        # which the inverse then amplifies across the quadratic minimum.
        return critical
    head = 0.5 * (sigma + alpha)
    if head == 0.0:
        # sigma + alpha is the smallest subnormal; psi ~ 2/(sigma + alpha)
        # is far beyond the double range there.
        return math.inf
    # Both gamma ratios shift their argument by alpha/2, so each is taken
    # as one log-ratio: for small alpha, differences of log_gamma values
    # would cancel to a few ulps of noise and psi, flat near -1 there,
    # would stop decreasing.
    shift = 0.5 * alpha
    log_mag = alpha * _LN2 + _log_gamma_ratio(0.5 * (d - sigma - alpha), shift)
    if sigma > 0.0:
        # Rounding in the gamma ratios can land an ulp below the minimum
        # a_star just left of the right endpoint; the exact symbol cannot.
        log_mag += _log_gamma_ratio(0.5 * sigma, shift)
        return max(-math.exp(log_mag), critical)
    half = 0.5 * sigma
    # 1/Gamma(half) = half / Gamma(half + 1); half in (-1, 0) here.
    return -half * math.exp(log_mag + log_gamma(head) - log_gamma(half + 1.0))


def _log_gamma_ratio(x: float, h: float) -> float:
    """log Gamma(x + h) - log Gamma(x) for x > 0 and h >= 0.

    Shifts x up to Stirling's range through Gamma(z + 1) = z Gamma(z),
    which takes log1p(h / z) off per step, then differences Stirling's
    formula term by term with log1p and expm1.  Every term is computed
    from h directly, so the value keeps its relative accuracy however
    small h is against x, where log_gamma(x + h) - log_gamma(x) cancels.
    """
    total = 0.0
    while x < _STIRLING_MODULUS:
        total -= math.log1p(h / x)
        x += 1.0
    step = math.log1p(h / x)
    inv = 1.0 / x
    inv_sq = inv * inv
    power = inv
    series = 0.0
    for order, coeff in enumerate(_STIRLING):
        # (x + h)^-m - x^-m with m = 2 order + 1.
        series += coeff * power * math.expm1(-(2 * order + 1) * step)
        power *= inv_sq
    return total + (x - 0.5) * step + h * (math.log(x + h) - 1.0) + series


def psi_inv(d: int, alpha: float, a: float) -> float:
    """Inverse of the Mellin symbol: the exponent delta with psi(delta) = a.

    Defined for finite a >= a_star(d, alpha); the solution lies in
    (-alpha, (d - alpha)/2] and is found by bisection on the strictly
    decreasing symbol.  The endpoints a = a_star and a = 0 are returned
    exactly, matching the exact zero of the forward symbol.  The left
    bracket starts a small relative distance from -alpha and is pushed
    geometrically closer when the target value is very large.

    Bisection runs until the bracket width collapses (below 1e-13 in
    absolute terms); stopping on the symbol residual instead would lose
    accuracy near the right endpoint, where the symbol's derivative
    vanishes and a small residual no longer pins the exponent.
    Exhausting the iteration budget raises ConvergenceError.
    """
    d = _check_dimension(d)
    alpha = _check_alpha(d, alpha, upper=min(2.0, float(d)))
    a = float(a)
    if math.isnan(a):
        raise DomainError("coupling a must be a number, got nan")
    critical = a_star(d, alpha)
    if not (a >= critical):
        raise DomainError(
            f"coupling a={a!r} lies below the critical value {critical}"
        )
    if math.isinf(a):
        raise DomainError(f"coupling a={a!r} must be finite")
    hi = 0.5 * (d - alpha)
    if a == critical:
        return hi
    if a == 0.0:
        return 0.0
    lo, prev = max(-alpha + 1e-6 * alpha, math.nextafter(-alpha, 0.0)), None
    while lo > -alpha and lo != prev and _psi(d, alpha, lo, critical) < a:
        prev, lo = lo, -alpha + 0.5 * (lo + alpha)
    if not (lo > -alpha) or lo == prev:
        # The offset from -alpha has shrunk below resolvable spacing;
        # the target coupling is too large to invert in doubles.
        raise ConvergenceError(
            f"could not bracket psi_inv target a={a!r} near sigma=-alpha"
        )
    width_tol = 1e-13
    mid = 0.5 * (lo + hi)
    for _ in range(240):
        if hi - lo <= width_tol:
            return mid
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _psi(d, alpha, mid, critical) > a:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"psi_inv bisection stalled for d={d}, alpha={alpha}, a={a}"
    )


@dataclass(frozen=True)
class HardyParams:
    """Validated parameter bundle for one operator |p|^alpha + a|x|^{-alpha}.

    delta is the singularity exponent psi_inv(d, alpha, a) and delta_plus
    its positive part; a_star_star is None when alpha >= d/2.
    """

    d: int
    alpha: float
    a: float
    a_star: float
    a_star_star: Optional[float]
    delta: float
    delta_plus: float


def make_params(d: int, alpha: float, a: float) -> HardyParams:
    """Validate (d, alpha, a) and precompute the derived constants.

    Requires an integer d >= 2, alpha in (0, min(2, d)) and a finite
    coupling a >= a_star(d, alpha).  The returned record is frozen; every
    downstream routine takes it instead of loose scalars.
    """
    d = _check_dimension(d)
    alpha = _check_alpha(d, alpha, upper=min(2.0, float(d)))
    a = float(a)
    crit = a_star(d, alpha)
    if math.isnan(a) or not (a >= crit):
        raise DomainError(
            f"coupling a={a!r} must satisfy a >= a_star = {crit}"
        )
    second = a_star_star(d, alpha) if alpha < 0.5 * d else None
    delta = psi_inv(d, alpha, a)
    return HardyParams(
        d=d,
        alpha=alpha,
        a=a,
        a_star=crit,
        a_star_star=second,
        delta=delta,
        delta_plus=max(delta, 0.0),
    )
