"""Gamma-based constants for the fractional Hardy operator family.

Everything in this module is a scalar special-function evaluation: the
sharp Hardy constant for the fractional Laplacian, the critical couplings
``a_star`` and ``a_star_star``, the Mellin symbol ``psi`` of the operator
|p|^alpha + a |x|^{-alpha} acting on radial power functions, and the
inverse of that symbol, whose value ``delta`` is the singularity exponent
appearing in every kernel bound downstream.

All Gamma evaluations go through ``log_gamma`` so that ratios of large
Gamma values never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy.special import gammaln as _sc_gammaln

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
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


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Raises DomainError for nonpositive or non-finite arguments; the
    package never needs log-Gamma on the negative axis directly (negative
    arguments are reached through explicit recurrences at call sites).
    """
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"log_gamma requires a finite x > 0, got {x!r}")
    return float(_sc_gammaln(x))


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d, 2 pi^{d/2} / Gamma(d/2)."""
    d = _check_dimension(d, minimum=1)
    return 2.0 * math.pi ** (0.5 * d) / math.exp(log_gamma(0.5 * d))


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
    if sigma == 0.0:
        return 0.0
    if sigma == upper:
        # The closed identity psi((d - alpha)/2) = a_star holds exactly;
        # going through the gamma ratios here would miss it by an ulp,
        # which the inverse then amplifies across the quadratic minimum.
        return a_star(d, alpha)
    head = 0.5 * (sigma + alpha)
    if head == 0.0:
        # sigma + alpha is the smallest subnormal; psi ~ 2/(sigma + alpha)
        # is far beyond the double range there.
        return math.inf
    log_mag = (
        alpha * _LN2
        + log_gamma(head)
        + log_gamma(0.5 * (d - sigma))
        - log_gamma(0.5 * (d - sigma - alpha))
    )
    if sigma > 0.0:
        # Rounding in the gamma ratios can land an ulp below the minimum
        # a_star just left of the right endpoint; the exact symbol cannot.
        return max(-math.exp(log_mag - log_gamma(0.5 * sigma)), a_star(d, alpha))
    half = 0.5 * sigma
    # 1/Gamma(half) = half / Gamma(half + 1); half in (-1, 0) here.
    return -half * math.exp(log_mag - log_gamma(half + 1.0))


def psi_inv(d: int, alpha: float, a: float) -> float:
    """Inverse of the Mellin symbol: the exponent delta with psi(delta) = a.

    Defined for a >= a_star(d, alpha); the solution lies in
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
    hi = 0.5 * (d - alpha)
    if a == critical:
        return hi
    if a == 0.0:
        return 0.0
    lo, prev = max(-alpha + 1e-6 * alpha, math.nextafter(-alpha, 0.0)), None
    while lo > -alpha and lo != prev and psi(d, alpha, lo) < a:
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
        if psi(d, alpha, mid) > a:
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

    Requires an integer d >= 2, alpha in (0, min(2, d)) and a coupling
    a >= a_star(d, alpha).  The returned record is frozen; every
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
