"""Pointwise comparison profiles for heat and Riesz kernels.

The two-sided heat kernel bounds and the difference-kernel envelopes are
all functions of the three radial coordinates (|x|, |y|, |x-y|) only, so
this module works with a validated triple of those lengths.  Angular
averaging over the sphere is provided through a chord-variable quadrature
(substituting xi = |x-y|^2 turns the sphere average into a weighted
one-dimensional integral with Jacobi-type endpoint weights), which is how
profile values get compared against rotation-invariant discrete kernels.

Every profile and ``angular_average`` also take arrays, with scalars as
the 0-d case of the same numpy code.  Powers of the radii are taken with
``np.power``: on a numpy scalar, ``**`` calls the C library's pow, which
can round differently from numpy's array loop, so a pair would not get
the same bits alone and in a batch.  A triple's distance may be a 1-D
array of chord lengths for one pair of radii, and a batch of pairs holds
its radii as arrays of one shape that broadcasts to the chords' (an
(m, 1) column against (m, k) chords).  The profiles then return one value
per chord, and ``angular_average`` one average per pair.  Values that do
not depend on the chord (``l_envelope``) keep the radii's shape and are
broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import HardyParams, _check_count, gauss_jacobi, log_gamma

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
    pair of radii.  For a batch of pairs, rx and ry are real ndarrays of
    one shape with as many axes as the chord array rxy, each axis of
    length 1 or that of rxy.  Array triples are checked entry by entry by
    the scalar rules.
    """

    rx: float
    ry: float
    rxy: float

    def __post_init__(self):
        rx, ry, rxy = self.rx, self.ry, self.rxy
        # Array radii come with an array rxy; alone, the scalar checks reject them.
        if isinstance(rxy, np.ndarray):
            bad = _first_bad_entry(rx, ry, rxy)
            if bad is None:
                return
            rx, ry, rxy = bad
        if not (isinstance(rx, (int, float)) and math.isfinite(rx)) or rx < 0:
            raise DomainError(f"rx must be finite and >= 0, got {rx!r}")
        if not (isinstance(ry, (int, float)) and math.isfinite(ry)) or ry < 0:
            raise DomainError(f"ry must be finite and >= 0, got {ry!r}")
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


def _is_real_array(v) -> bool:
    return isinstance(v, np.ndarray) and v.dtype.kind in "fiu"


def _first_bad_entry(rx, ry, rxy):
    """None when every entry of an array triple passes KernelTriple's
    scalar checks, else the first that fails, as three floats for those
    checks to report.  Raises DomainError for a layout it does not take."""
    if not _is_real_array(rxy):
        layout = False
    elif isinstance(rx, (int, float)) and isinstance(ry, (int, float)):
        layout = rxy.ndim == 1
    else:
        layout = (
            _is_real_array(rx) and _is_real_array(ry) and rx.shape == ry.shape
            and rx.ndim == rxy.ndim >= 1
            and all(a in (1, b) for a, b in zip(rx.shape, rxy.shape))
        )
    if not layout:
        raise DomainError(
            "rxy must be a number or a real array, 1-D for scalar radii; array "
            "radii must share one shape, with rxy's axes, that broadcasts to "
            "rxy's; got " + ", ".join(
                f"{type(v).__name__} {getattr(v, 'shape', ())}" for v in (rx, ry, rxy)
            )
        )
    rx, ry = np.broadcast_to(rx, rxy.shape), np.broadcast_to(ry, rxy.shape)
    ok = np.isfinite(rx) & np.isfinite(ry) & np.isfinite(rxy)
    ok &= (rx >= 0) & (ry >= 0) & (rxy >= 0)
    if ok.all():
        slack = 1e-9 * (rx + ry + rxy) + 1e-300
        ok = (rxy <= rx + ry + slack) & (rxy >= abs(rx - ry) - slack)
        if ok.all():
            return None
    k = ok.argmin()
    return float(rx.flat[k]), float(ry.flat[k]), float(rxy.flat[k])


def _value(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or math.isinf(t):
        raise DomainError(f"time must be finite and > 0, got {t!r}")
    return t


def _free_tail(t: float, rxy, d: int, alpha: float):
    """min(1, t^{1+d/alpha} / rxy^{d+alpha}), and 1 at rxy = 0.

    The one factor of the heat profiles that depends on the chord; a float
    for scalar rxy, else an array of rxy's shape.
    """
    den = np.asarray(rxy, dtype=float) ** (d + alpha)
    tail = np.ones_like(den)
    np.divide(t ** (1.0 + d / alpha), den, out=tail, where=den > 0.0)
    np.minimum(tail, 1.0, out=tail)
    return _value(tail)


def stable_heat_profile(t: float, q: KernelTriple, d: int, alpha: float):
    """Heat kernel profile of the free operator |p|^alpha.

    t^{-d/alpha} * min(1, t^{1+d/alpha} / |x-y|^{d+alpha}); depends on the
    triple only through rxy, and returns one value per chord when rxy is
    an array.
    """
    t = _check_time(t)
    return t ** (-d / alpha) * _free_tail(t, q.rxy, d, alpha)


def _hardy_weight(t: float, r, alpha: float, delta: float) -> np.ndarray:
    # (1 v t^{1/alpha}/r)^delta; the origin is reachable only for delta <= 0,
    # where inf^delta gives its limit (0 for delta < 0, 1 for delta = 0).
    r = np.asarray(r, dtype=float)
    if delta > 0.0 and np.any(r == 0.0):
        raise DomainError("hardy heat profile diverges at the origin for delta > 0")
    with np.errstate(divide="ignore"):
        return np.power(np.maximum(1.0, t ** (1.0 / alpha) / r), delta)


def hardy_heat_profile(t: float, q: KernelTriple, params: HardyParams):
    """Two-sided heat kernel comparison profile for |p|^alpha + a|x|^{-alpha}.

    The free profile multiplied by the weight (1 v t^{1/alpha}/|x|)^delta
    at each of the two points, with delta = psi_inv(d, alpha, a).  Raises
    DomainError when delta > 0 and one of the radii vanishes, since the
    profile is genuinely singular there.  Broadcasts over array triples.
    """
    t = _check_time(t)
    base = stable_heat_profile(t, q, params.d, params.alpha)
    wx = _hardy_weight(t, q.rx, params.alpha, params.delta)
    wy = _hardy_weight(t, q.ry, params.alpha, params.delta)
    return _value(base * wx * wy)


def poisson_kernel_exact(t, rxy, d: int = 3):
    """Exact heat kernel of |p| in R^d (the Poisson kernel),

        Gamma((d+1)/2) / pi^{(d+1)/2} * t / (t^2 + |x-y|^2)^{(d+1)/2}.

    Accepts array input in rxy and broadcasts.
    """
    _check_count("dimension", d)
    t = _check_time(t)
    rxy = np.asarray(rxy, dtype=float)
    if np.any(rxy < 0) or not np.all(np.isfinite(rxy)):
        raise DomainError("rxy must be finite and >= 0")
    c = math.exp(log_gamma(0.5 * (d + 1))) / math.pi ** (0.5 * (d + 1))
    out = c * t / (t * t + rxy * rxy) ** (0.5 * (d + 1))
    return float(out) if out.ndim == 0 else out


def poisson_radial_average(t: float, rx, ry, d: int = 3):
    """Angular average of the Poisson kernel over the sphere directions.

    For d = 3 a closed form exists: averaging t/(t^2+|x-y|^2)^2 over the
    angle gives, after the chord substitution,

        (1/pi^2) * t / ((t^2 + (rx-ry)^2) (t^2 + (rx+ry)^2)),

    written here in the product form that is free of cancellation for all
    radii.  Other dimensions fall back to the chord-variable quadrature.
    rx and ry may be arrays, giving one average per pair of radii.
    """
    t = _check_time(t)
    if d == 3:
        rx, ry = np.asarray(rx, dtype=float), np.asarray(ry, dtype=float)
        lo = t * t + (rx - ry) ** 2
        hi = t * t + (rx + ry) ** 2
        return _value(t / (math.pi**2 * lo * hi))
    return angular_average(lambda rr: poisson_kernel_exact(t, rr, d), rx, ry, d)


def riesz_exponent_window(params: HardyParams) -> float:
    """Upper end of the admissible s-window for the Riesz kernel profile,
    min(2d/alpha, 2(d - 2 delta)/alpha)."""
    return min(
        2.0 * params.d / params.alpha,
        2.0 * (params.d - 2.0 * params.delta) / params.alpha,
    )


def riesz_profile(s: float, q: KernelTriple, params: HardyParams):
    """Riesz kernel comparison profile

        |x-y|^{alpha s/2 - d} * (1 ^ |x|/|x-y| ^ |y|/|x-y|)^{-delta}

    for s inside (0, min(2d/alpha, 2(d-2 delta)/alpha)).  Requires every
    chord rxy > 0; a vanishing radius makes the value +inf when delta > 0,
    the bare power when delta = 0 and 0 when delta < 0, all returned
    rather than raised.  Broadcasts over array triples.
    """
    s = float(s)
    smax = riesz_exponent_window(params)
    if not (0.0 < s < smax):
        raise DomainError(f"s must lie in (0, {smax}), got {s!r}")
    rxy = np.asarray(q.rxy, dtype=float)
    if not np.all(rxy > 0.0):
        raise DomainError("riesz_profile requires every chord rxy > 0")
    base = np.power(rxy, 0.5 * params.alpha * s - params.d)
    m = np.minimum(1.0, np.minimum(q.rx / rxy, q.ry / rxy))
    # A vanishing radius takes the limit in m alone, whatever the chord's
    # power rounds to.
    zero = m == 0.0
    value = base * np.power(np.where(zero, 1.0, m), -params.delta)
    if params.delta != 0.0:
        value = np.where(zero, math.inf if params.delta > 0.0 else 0.0, value)
    return _value(value)


def l_envelope(t: float, q: KernelTriple, params: HardyParams):
    """Long-range envelope for the difference of heat kernels.

    Sum of a small-radius branch, active when (|x| v |y|)^alpha <= t,

        t^{-d/alpha} (t^{2/alpha} / (|x||y|))^{delta_+},

    and a large-radius branch, active when (|x| v |y|)^alpha >= t,

        t / (|x| v |y|)^{d+alpha} * (1 v t^{1/alpha}/(|x| ^ |y|))^{delta_+}.

    With delta_+ > 0 both branches are singular when the smaller radius
    vanishes, which raises DomainError.  The envelope does not depend on
    rxy, so it has the shape of the radii: one float for scalar radii.
    """
    t = _check_time(t)
    d, alpha, dp = params.d, params.alpha, params.delta_plus
    rx, ry = np.asarray(q.rx, dtype=float), np.asarray(q.ry, dtype=float)
    rmax, rmin = np.maximum(rx, ry), np.minimum(rx, ry)
    if dp > 0.0 and np.any(rmin == 0.0):
        raise DomainError("l_envelope diverges at a vanishing radius "
                          "when delta_+ > 0")
    reach = np.power(rmax, alpha)
    # Each branch is evaluated everywhere and kept where it is active; the
    # inactive one may divide by a vanishing radius.
    with np.errstate(divide="ignore", invalid="ignore"):
        w_small = 1.0 if dp == 0.0 else np.power(t ** (2.0 / alpha) / (rx * ry), dp)
        w_large = 1.0 if dp == 0.0 else np.power(np.maximum(1.0, t ** (1.0 / alpha) / rmin), dp)
        small = np.where(reach <= t, t ** (-d / alpha) * w_small, 0.0)
        large = np.where(reach >= t, t / np.power(rmax, d + alpha) * w_large, 0.0)
    return _value(small + large)


def m_envelope(t: float, q: KernelTriple, params: HardyParams):
    """Short-range envelope for the difference of heat kernels.

    Supported where (|x| v |y|)^alpha >= t and the radii are comparable
    (|x|/2 <= |y| <= 2|x|), where it equals

        t^{1 - d/alpha} / (|x| ^ |y|)^alpha * min(1, t^{1+d/alpha}/|x-y|^{d+alpha}),

    and 0 elsewhere.  Broadcasts over array triples.
    """
    t = _check_time(t)
    d, alpha = params.d, params.alpha
    rx, ry = np.asarray(q.rx, dtype=float), np.asarray(q.ry, dtype=float)
    rmax, rmin = np.maximum(rx, ry), np.minimum(rx, ry)
    support = (np.power(rmax, alpha) >= t) & (0.5 * rx <= ry) & (ry <= 2.0 * rx)
    # A vanishing radius lies off the support, where the quotient is dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        value = t ** (1.0 - d / alpha) / np.power(rmin, alpha) * _free_tail(t, q.rxy, d, alpha)
    return _value(np.where(support, value, 0.0))


ANGULAR_NODES = 48  # Gauss-Jacobi nodes of every angular average


def angular_average(fn, rx, ry, d: int):
    """Average fn(|x-y|) over the sphere angle between x and y.

    With xi = |x-y|^2 the uniform measure on the angle has density
    proportional to ((xi - xi_min)(xi_max - xi))^{(d-3)/2} on
    [ (rx-ry)^2, (rx+ry)^2 ], so the average is a Gauss-Jacobi sum of
    ``ANGULAR_NODES`` nodes with symmetric exponent (d-3)/2.

    rx and ry may be arrays of one broadcast shape S: fn is then called
    once, on an S + (ANGULAR_NODES,) array of distances, and one average
    per pair comes back (a float for scalar radii).  fn's result is
    broadcast to the distances' shape, so a chord-independent value is
    allowed.  Degenerate geometry (a vanishing radius) collapses to a
    point evaluation.
    """
    _check_count("dimension", d, least=2)
    rx, ry = np.asarray(rx, dtype=float), np.asarray(ry, dtype=float)
    xi_min = (rx - ry) ** 2
    width = 4.0 * rx * ry  # (rx+ry)^2 - (rx-ry)^2, exact in this form
    # At a vanishing radius every distance is |rx - ry|: read one of them.
    point = width <= 1e-300
    width = np.where(point, 0.0, width)
    x, w = gauss_jacobi(ANGULAR_NODES, 0.5 * (d - 3), 0.5 * (d - 3))
    chords = np.sqrt(xi_min[..., None] + width[..., None] * 0.5 * (1.0 + x))
    vals = np.broadcast_to(np.asarray(fn(chords), dtype=float), chords.shape)
    return _value(np.where(point, vals[..., 0], vals @ w / np.sum(w)))
