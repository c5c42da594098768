"""Pointwise comparison profiles for heat and Riesz kernels.

The two-sided heat kernel bounds and the difference-kernel envelopes are
all functions of the three radial coordinates (|x|, |y|, |x-y|) only, so
this module works with a validated triple of those lengths.  Angular
averaging over the sphere is provided through a chord-variable quadrature
(substituting xi = |x-y|^2 turns the sphere average into a weighted
one-dimensional integral with Jacobi-type endpoint weights), which is how
profile values get compared against rotation-invariant discrete kernels.

A triple's distance may also be a 1-D array of chord lengths for one pair
of radii.  ``stable_heat_profile``, ``hardy_heat_profile`` and
``m_envelope`` then return one value per chord, equal bit for bit to the
scalar profile at that chord, so one triple serves a whole angular
average.  Values that do not depend on the chord (``l_envelope``, and
``m_envelope`` off its support) stay one float, which ``angular_average``
and numpy arithmetic broadcast.  The Riesz profile takes scalar triples
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError
from .specfun import HardyParams, log_gamma

__all__ = [
    "KernelTriple",
    "stable_heat_profile",
    "hardy_heat_profile",
    "poisson_kernel_exact",
    "poisson_radial_average",
    "riesz_profile",
    "riesz_exponent_window",
    "l_envelope",
    "m_envelope",
    "angular_average",
]


@dataclass(frozen=True)
class KernelTriple:
    """Radial geometry of a pair of points: |x|, |y| and |x-y|.

    The three lengths must be nonnegative, finite, and satisfy the
    triangle inequality up to a slack of 1e-9 times their sum (the slack
    absorbs rounding when triples are generated from sampled angles).
    rxy may instead be a 1-D real ndarray of chord lengths for the one
    pair of radii; each chord is then checked by the same rules.
    """

    rx: float
    ry: float
    rxy: float

    def __post_init__(self):
        for name in ("rx", "ry"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
        rx, ry, rxy = self.rx, self.ry, self.rxy
        if isinstance(rxy, np.ndarray):
            rxy = _first_bad_chord(rx, ry, rxy)
            if rxy is None:
                return
        if not (isinstance(rxy, (int, float)) and math.isfinite(rxy)) or rxy < 0:
            raise DomainError(
                f"rxy must be finite and >= 0 (a number or a 1-D array), got {rxy!r}"
            )
        slack = 1e-9 * (rx + ry + rxy) + 1e-300
        if rxy > rx + ry + slack:
            raise DomainError(f"triangle violation: rxy={rxy} > rx+ry={rx + ry}")
        if rxy < abs(rx - ry) - slack:
            raise DomainError(
                f"triangle violation: rxy={rxy} < |rx-ry|={abs(rx - ry)}"
            )


def _first_bad_chord(rx: float, ry: float, chords: np.ndarray):
    """None when every chord passes KernelTriple's scalar checks, else the
    first that fails, as a float for those checks to report.  Arrays that
    are not 1-D and real come back unchanged, to be rejected."""
    if chords.ndim != 1 or chords.dtype.kind not in "fiu":
        return chords
    ok = np.isfinite(chords) & (chords >= 0)
    if ok.all():
        slack = 1e-9 * (rx + ry + chords) + 1e-300
        ok = (chords <= rx + ry + slack) & (chords >= abs(rx - ry) - slack)
        if ok.all():
            return None
    return float(chords[ok.argmin()])


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or math.isinf(t):
        raise DomainError(f"time must be finite and > 0, got {t!r}")
    return t


def _free_tail(t: float, rxy, d: int, alpha: float):
    """min(1, t^{1+d/alpha} / rxy^{d+alpha}), and 1 at rxy = 0.

    The one factor of the heat profiles that depends on the chord; a float
    for scalar rxy, else an array of rxy's shape.  Scalars take the same
    numpy array arithmetic as arrays (numpy's power can round differently
    from Python's), so the two agree bit for bit.
    """
    den = np.asarray(rxy, dtype=float) ** (d + alpha)
    tail = np.ones_like(den)
    np.divide(t ** (1.0 + d / alpha), den, out=tail, where=den > 0.0)
    np.minimum(tail, 1.0, out=tail)
    return float(tail) if tail.ndim == 0 else tail


def stable_heat_profile(t: float, q: KernelTriple, d: int, alpha: float):
    """Heat kernel profile of the free operator |p|^alpha.

    t^{-d/alpha} * min(1, t^{1+d/alpha} / |x-y|^{d+alpha}); depends on the
    triple only through rxy, and returns one value per chord when rxy is
    an array.
    """
    t = _check_time(t)
    return t ** (-d / alpha) * _free_tail(t, q.rxy, d, alpha)


def _hardy_weight(t: float, r: float, alpha: float, delta: float) -> float:
    # (1 v t^{1/alpha}/r)^delta; the origin is reachable only for delta <= 0.
    if r == 0.0:
        if delta > 0.0:
            raise DomainError(
                "hardy heat profile diverges at the origin for delta > 0"
            )
        return 0.0 if delta < 0.0 else 1.0
    return max(1.0, t ** (1.0 / alpha) / r) ** delta


def hardy_heat_profile(t: float, q: KernelTriple, params: HardyParams):
    """Two-sided heat kernel comparison profile for |p|^alpha + a|x|^{-alpha}.

    The free profile multiplied by the weight (1 v t^{1/alpha}/|x|)^delta
    at each of the two points, with delta = psi_inv(d, alpha, a).  Raises
    DomainError when delta > 0 and one of the radii vanishes, since the
    profile is genuinely singular there.  Broadcasts over a chord array.
    """
    t = _check_time(t)
    base = stable_heat_profile(t, q, params.d, params.alpha)
    wx = _hardy_weight(t, q.rx, params.alpha, params.delta)
    wy = _hardy_weight(t, q.ry, params.alpha, params.delta)
    return base * wx * wy


def poisson_kernel_exact(t, rxy, d: int = 3):
    """Exact heat kernel of |p| in R^d (the Poisson kernel),

        Gamma((d+1)/2) / pi^{(d+1)/2} * t / (t^2 + |x-y|^2)^{(d+1)/2}.

    Accepts array input in rxy and broadcasts.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {d!r}")
    t = _check_time(t)
    rxy = np.asarray(rxy, dtype=float)
    if np.any(rxy < 0) or not np.all(np.isfinite(rxy)):
        raise DomainError("rxy must be finite and >= 0")
    c = math.exp(log_gamma(0.5 * (d + 1))) / math.pi ** (0.5 * (d + 1))
    out = c * t / (t * t + rxy * rxy) ** (0.5 * (d + 1))
    return float(out) if out.ndim == 0 else out


def poisson_radial_average(t: float, rx: float, ry: float, d: int = 3) -> float:
    """Angular average of the Poisson kernel over the sphere directions.

    For d = 3 a closed form exists: averaging t/(t^2+|x-y|^2)^2 over the
    angle gives, after the chord substitution,

        (1/pi^2) * t / ((t^2 + (rx-ry)^2) (t^2 + (rx+ry)^2)),

    written here in the product form that is free of cancellation for all
    radii.  Other dimensions fall back to the chord-variable quadrature.
    """
    t = _check_time(t)
    if d == 3:
        lo = t * t + (rx - ry) ** 2
        hi = t * t + (rx + ry) ** 2
        return t / (math.pi**2 * lo * hi)
    return angular_average(lambda rr: poisson_kernel_exact(t, rr, d), rx, ry, d)


def riesz_exponent_window(params: HardyParams) -> float:
    """Upper end of the admissible s-window for the Riesz kernel profile,
    min(2d/alpha, 2(d - 2 delta)/alpha)."""
    return min(
        2.0 * params.d / params.alpha,
        2.0 * (params.d - 2.0 * params.delta) / params.alpha,
    )


def riesz_profile(s: float, q: KernelTriple, params: HardyParams) -> float:
    """Riesz kernel comparison profile

        |x-y|^{alpha s/2 - d} * (1 ^ |x|/|x-y| ^ |y|/|x-y|)^{-delta}

    for s inside (0, min(2d/alpha, 2(d-2 delta)/alpha)).  Requires one
    chord rxy > 0; a vanishing radius makes the value +inf when delta > 0
    and 0 when delta < 0, both returned rather than raised.
    """
    s = float(s)
    smax = riesz_exponent_window(params)
    if not (0.0 < s < smax):
        raise DomainError(f"s must lie in (0, {smax}), got {s!r}")
    if isinstance(q.rxy, np.ndarray) or q.rxy <= 0.0:
        raise DomainError("riesz_profile requires one chord rxy > 0")
    base = q.rxy ** (0.5 * params.alpha * s - params.d)
    m = min(1.0, q.rx / q.rxy, q.ry / q.rxy)
    if m == 0.0:
        if params.delta > 0.0:
            return math.inf
        return base if params.delta == 0.0 else 0.0
    return base * m ** (-params.delta)


def l_envelope(t: float, q: KernelTriple, params: HardyParams):
    """Long-range envelope for the difference of heat kernels.

    Sum of a small-radius branch, active when (|x| v |y|)^alpha <= t,

        t^{-d/alpha} (t^{2/alpha} / (|x||y|))^{delta_+},

    and a large-radius branch, active when (|x| v |y|)^alpha >= t,

        t / (|x| v |y|)^{d+alpha} * (1 v t^{1/alpha}/(|x| ^ |y|))^{delta_+}.

    With delta_+ > 0 both branches are singular when the smaller radius
    vanishes, which raises DomainError.  The envelope does not depend on
    rxy, so it is one float for a chord array too.
    """
    t = _check_time(t)
    d, alpha, dp = params.d, params.alpha, params.delta_plus
    rmax = max(q.rx, q.ry)
    rmin = min(q.rx, q.ry)
    if dp > 0.0 and rmin == 0.0:
        raise DomainError("l_envelope diverges at a vanishing radius "
                          "when delta_+ > 0")
    val = 0.0
    if rmax**alpha <= t:
        w = 1.0 if dp == 0.0 else (t ** (2.0 / alpha) / (q.rx * q.ry)) ** dp
        val += t ** (-d / alpha) * w
    if rmax**alpha >= t:
        w = 1.0 if dp == 0.0 else max(1.0, t ** (1.0 / alpha) / rmin) ** dp
        val += t / rmax ** (d + alpha) * w
    return val


def m_envelope(t: float, q: KernelTriple, params: HardyParams):
    """Short-range envelope for the difference of heat kernels.

    Supported where (|x| v |y|)^alpha >= t and the radii are comparable
    (|x|/2 <= |y| <= 2|x|), where it equals

        t^{1 - d/alpha} / (|x| ^ |y|)^alpha * min(1, t^{1+d/alpha}/|x-y|^{d+alpha}).

    Broadcasts over a chord array where supported; the 0.0 outside the
    support is one float.
    """
    t = _check_time(t)
    d, alpha = params.d, params.alpha
    rmax = max(q.rx, q.ry)
    rmin = min(q.rx, q.ry)
    if rmax**alpha < t or not (0.5 * q.rx <= q.ry <= 2.0 * q.rx):
        return 0.0
    return t ** (1.0 - d / alpha) / rmin**alpha * _free_tail(t, q.rxy, d, alpha)


ANGULAR_NODES = 48  # Gauss-Jacobi nodes of every angular average


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, beta: float):
    x, w = roots_jacobi(n, beta, beta)
    return x, w, float(np.sum(w))


def angular_average(fn, rx: float, ry: float, d: int) -> float:
    """Average fn(|x-y|) over the sphere angle between x and y.

    With xi = |x-y|^2 the uniform measure on the angle has density
    proportional to ((xi - xi_min)(xi_max - xi))^{(d-3)/2} on
    [ (rx-ry)^2, (rx+ry)^2 ], so the average is a Gauss-Jacobi sum of
    ``ANGULAR_NODES`` nodes with symmetric exponent (d-3)/2.  fn must
    accept an ndarray of distances; its result is broadcast to their
    shape, so a chord-independent scalar is allowed.  Degenerate geometry
    (a vanishing radius) collapses to a point evaluation.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
    xi_min = (rx - ry) ** 2
    width = 4.0 * rx * ry  # (rx+ry)^2 - (rx-ry)^2, exact in this form
    if width <= 1e-300:
        return float(np.ravel(fn(np.asarray([math.sqrt(max(xi_min, 0.0))])))[0])
    beta = 0.5 * (d - 3)
    x, w, wsum = _jacobi_rule(ANGULAR_NODES, beta)
    chords = np.sqrt(xi_min + width * 0.5 * (1.0 + x))
    vals = np.broadcast_to(np.asarray(fn(chords), dtype=float), chords.shape)
    return float(np.dot(w, vals) / wsum)
