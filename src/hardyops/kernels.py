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
    length 1 or that of rxy.  A scalar triple is checked as the 0-d case
    of the array rules, and the first failing entry is reported.
    """

    rx: float
    ry: float
    rxy: float

    def __post_init__(self):
        given = (self.rx, self.ry, self.rxy)
        if isinstance(self.rxy, np.ndarray):
            _check_layout(*given)
            lengths = [np.broadcast_to(v, self.rxy.shape) for v in given]
        else:
            # The 0-d case of the same rules; a non-number fails as NaN does.
            lengths = [np.asarray(v if isinstance(v, (int, float)) else math.nan, dtype=float)
                       for v in given]
        rx, ry, rxy = lengths
        first, rules = 0, [~(np.isfinite(v) & (v >= 0)) for v in lengths]
        if not np.any(rules):
            slack = 1e-9 * (rx + ry + rxy) + 1e-300
            first, rules = 3, [rxy > rx + ry + slack, rxy < abs(rx - ry) - slack]
            if not np.any(rules):
                return
        # The first failing entry, reported by the first rule it fails.
        k = np.logical_or.reduce(rules).argmax()
        rule = first + next(i for i, bad in enumerate(rules) if bad.flat[k])
        x, y, xy = given if rx.ndim == 0 else (float(v.flat[k]) for v in lengths)
        if rule == 3:
            raise DomainError(f"triangle violation: rxy={xy} > rx+ry={x + y}")
        if rule == 4:
            raise DomainError(f"triangle violation: rxy={xy} < |rx-ry|={abs(x - y)}")
        name, value = (("rx", x), ("ry", y), ("rxy", xy))[rule]
        hint = " (a number or a 1-D array)" if rule == 2 else ""
        raise DomainError(f"{name} must be finite and >= 0{hint}, got {value!r}")


def _is_real_array(v) -> bool:
    return isinstance(v, np.ndarray) and v.dtype.kind in "fiu"


def _check_layout(rx, ry, rxy) -> None:
    """Raise DomainError unless an array rxy comes with radii it takes."""
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


def _value(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or math.isinf(t):
        raise DomainError(f"time must be finite and > 0, got {t!r}")
    return t


def stable_heat_profile(t: float, q: KernelTriple, d: int, alpha: float):
    """Heat kernel profile of the free operator |p|^alpha.

    min(t^{-d/alpha}, t / |x-y|^{d+alpha}); depends on the triple only
    through rxy, and returns one value per chord when rxy is an array.
    """
    t = _check_time(t)
    # t / rxy^{d+alpha} divides by the half power twice: for t in
    # [1e-300, 1e300] that half power is a normal double wherever the
    # quotient is one.  Either side of the min may overflow or underflow
    # where the min is a normal double; at rxy = 0 the quotient is inf and
    # the min picks t^{-d/alpha}.
    with np.errstate(divide="ignore", over="ignore"):
        half = np.power(q.rxy, 0.5 * (d + alpha))
        return _value(np.minimum(np.power(t, -d / alpha), t / half / half))


def _hardy_weight(t: float, r, alpha: float, delta: float) -> np.ndarray:
    # (1 v t^{1/alpha}/r)^delta; the origin is reachable only for delta <= 0,
    # where inf^delta gives its limit (0 for delta < 0, 1 for delta = 0).
    r = np.asarray(r, dtype=float)
    if delta > 0.0 and np.any(r == 0.0):
        raise DomainError("hardy heat profile diverges at the origin for delta > 0")
    # t^{1/alpha} as a numpy scalar power: the C library's pow, as Python's
    # float power takes it, but inf past the largest double, not OverflowError.
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(np.maximum(1.0, np.float64(t) ** (1.0 / alpha) / r), delta)


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
    # Where t^{1/alpha} overflows, the base has underflowed to 0: keep that 0.
    with np.errstate(invalid="ignore"):
        return _value(np.where(base == 0.0, 0.0, base * wx * wy))


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1, t2 = (np.float64(t) ** (k / alpha) for k in (1.0, 2.0))
        # Where t^{2/alpha} overflows, the weight is the product of its halves.
        w_small = (np.power(t2 / (rx * ry), dp) if t2 < math.inf
                   else np.power(t1 / rx, dp) * np.power(t1 / ry, dp))
        w_large = np.power(np.maximum(1.0, t1 / rmin), dp)
        # A prefactor that underflowed to 0 stays 0 against an overflowed weight.
        prefactor = np.power(t, -d / alpha)
        small = np.where((reach <= t) & (prefactor > 0.0), prefactor * w_small, 0.0)
        large = np.where(reach >= t, t / np.power(rmax, d + alpha) * w_large, 0.0)
    return _value(small + large)


def m_envelope(t: float, q: KernelTriple, params: HardyParams):
    """Short-range envelope for the difference of heat kernels.

    Supported where (|x| v |y|)^alpha >= t and the radii are comparable
    (|x|/2 <= |y| <= 2|x|), where it equals

        t / (|x| ^ |y|)^alpha * min(t^{-d/alpha}, t / |x-y|^{d+alpha}),

    the free profile times t / (|x| ^ |y|)^alpha, and 0 elsewhere.
    Broadcasts over array triples.
    """
    t = _check_time(t)
    d, alpha = params.d, params.alpha
    rx, ry = np.asarray(q.rx, dtype=float), np.asarray(q.ry, dtype=float)
    rmax, rmin = np.maximum(rx, ry), np.minimum(rx, ry)
    support = (np.power(rmax, alpha) >= t) & (0.5 * rx <= ry) & (ry <= 2.0 * rx)
    # A vanishing radius lies off the support, where the quotient is dropped.
    with np.errstate(divide="ignore", invalid="ignore"):
        value = t / np.power(rmin, alpha) * stable_heat_profile(t, q, d, alpha)
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
