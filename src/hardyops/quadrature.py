"""Adaptive quadrature on (0, inf) and the integral identities built on it.

The integrator substitutes t = e^u, seeds panel edges at known kink
locations, extends the window in both directions until the integrand is
certifiably negligible, and then bisects the worst panel by a
Gauss-Kronrod error estimate until the total estimate meets the
tolerance or ``MAX_SPLITS`` bisections are spent.  The Riesz time integral
and the Gamma check are thin wrappers that prepare a specific integrand
and kink set; the Schur weight integral has a closed form.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import KernelTriple, riesz_exponent_window
from .specfun import HardyParams, log_gamma, sphere_area

__all__ = [
    "QuadResult",
    "integrate_semiinfinite",
    "riesz_time_integral",
    "SchurIntegral",
    "schur_weight_integral",
    "gamma_negative_half_integral_check",
]

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_U_FLOOR = -690.0
_U_CEIL = 690.0

MAX_SPLITS = 4000  # panel bisections before the integrator gives up
RIESZ_TOL = 1e-9  # absolute tolerance on the Riesz time integral I
GAMMA_TOL = 1e-10  # absolute tolerance of the Gamma(-s/2) quadrature check


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive integration."""

    value: float
    abs_error_estimate: float
    evaluations: int


def _panel(g: Callable, lo: float, hi: float):
    """One G7K15 evaluation of g on [lo, hi]; returns (value, error)."""
    mid = 0.5 * (lo + hi)
    hl = 0.5 * (hi - lo)
    u = np.concatenate([mid - hl * _XK[:-1], [mid], mid + hl * _XK[-2::-1]])
    with np.errstate(all="ignore"):
        f = np.asarray(g(u), dtype=float)
    if f.shape != u.shape or not np.all(np.isfinite(f)):
        raise DomainError(
            f"integrand returned a non-finite or misshaped value on "
            f"[{math.exp(lo):.3g}, {math.exp(hi):.3g}]"
        )
    sym = f[:7] + f[-1:7:-1]
    k15 = hl * (np.dot(_WK[:-1], sym) + _WK[-1] * f[7])
    g7 = hl * (np.dot(_WG[:-1], sym[1::2]) + _WG[-1] * f[7])
    return float(k15), abs(float(k15) - float(g7))


def integrate_semiinfinite(
    f: Callable,
    tol: float,
    kinks: Iterable[float] = (),
) -> QuadResult:
    """Integrate f over (0, inf) to absolute tolerance tol.

    f must accept an ndarray of positive abscissae and return values of
    the same shape.  kinks lists interior points where f loses smoothness
    (panel edges are seeded there so each panel sees an analytic
    integrand).  Raises ConvergenceError when either tail refuses to
    decay before the underflow boundary or the refinement budget is
    exhausted, and DomainError if f produces non-finite values.
    """
    tol = float(tol)
    if not (tol > 0.0) or math.isinf(tol):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")

    def g(u):
        t = np.exp(u)
        return np.asarray(f(t), dtype=float) * t

    seeds = []
    for k in kinks:
        k = float(k)
        if not (k > 0.0) or math.isinf(k):
            raise DomainError(f"kink locations must be finite and > 0: {k!r}")
        seeds.append(math.log(k))
    seeds.append(0.0)
    lo0, hi0 = min(seeds) - 2.0, max(seeds) + 2.0
    edges = sorted(set(seeds + [lo0, hi0]))

    evals = 0
    heap = []  # entries (-err, lo, hi, value, err)

    def push(lo, hi):
        nonlocal evals
        val, err = _panel(g, lo, hi)
        evals += 15
        heapq.heappush(heap, (-err, lo, hi, val, err))
        return val, err

    for a, b in zip(edges[:-1], edges[1:]):
        push(a, b)

    # Extend each tail until two consecutive panels are negligible.
    for direction in (+1, -1):
        u = hi0 if direction > 0 else lo0
        quiet = 0
        while quiet < 2:
            if direction > 0 and u >= _U_CEIL:
                raise ConvergenceError("right tail did not decay before "
                                       "the overflow boundary")
            if direction < 0 and u <= _U_FLOOR:
                raise ConvergenceError("left tail did not decay before "
                                       "the underflow boundary")
            nxt = u + 2.0 * direction
            a, b = (u, nxt) if direction > 0 else (nxt, u)
            val, err = push(a, b)
            quiet = quiet + 1 if abs(val) + err < 0.1 * tol else 0
            u = nxt

    total_err = sum(item[4] for item in heap)
    splits = 0
    while total_err > tol:
        if splits >= MAX_SPLITS:
            raise ConvergenceError(
                f"refinement budget exhausted: error estimate {total_err:.3e} "
                f"above tolerance {tol:.3e} after {splits} splits"
            )
        _, lo, hi, _, err = heapq.heappop(heap)
        if hi - lo < 1e-13:
            raise ConvergenceError(
                f"panel at t ~ {math.exp(lo):.3e} shrank below resolution "
                f"with error {err:.3e} remaining"
            )
        total_err -= err
        mid = 0.5 * (lo + hi)
        _, e1 = push(lo, mid)
        _, e2 = push(mid, hi)
        total_err += e1 + e2
        splits += 1

    value = math.fsum(item[3] for item in heap)
    return QuadResult(value=value, abs_error_estimate=total_err, evaluations=evals)


def riesz_time_integral(
    s: float,
    q: KernelTriple,
    params: HardyParams,
) -> float:
    """Time-integral representation of the Riesz kernel profile.

    Computes

        |x-y|^{alpha s/2 - d} * I,
        I = int_0^inf t^{s/2} (1 ^ t^{-d/alpha - 1})
            (1 v (|x-y|/|x|) t^{1/alpha})^delta
            (1 v (|x-y|/|y|) t^{1/alpha})^delta  dt/t,

    with kinks at t = 1 and t = (|x|/|x-y|)^alpha, (|y|/|x-y|)^alpha.
    Requires all three radial lengths positive and s inside the window
    (0, min(2d/alpha, 2(d - 2 delta)/alpha)), which is exactly the
    condition making the integral converge.  I is integrated to the
    absolute tolerance ``RIESZ_TOL``.
    """
    s = float(s)
    smax = riesz_exponent_window(params)
    if not (0.0 < s < smax):
        raise DomainError(f"s must lie in (0, {smax}), got {s!r}")
    if not (q.rx > 0.0 and q.ry > 0.0 and q.rxy > 0.0):
        raise DomainError("riesz_time_integral requires rx, ry, rxy > 0")
    d, alpha, delta = params.d, params.alpha, params.delta
    lcx = math.log(q.rxy / q.rx)
    lcy = math.log(q.rxy / q.ry)
    half_s = 0.5 * s

    # Assembled in log space: the factored powers can overflow near the
    # probing tails even though the product is tiny there.
    def integrand(t):
        lt = np.log(t)
        le = (half_s - 1.0) * lt + np.minimum(0.0, (-d / alpha - 1.0) * lt)
        le = le + delta * np.maximum(0.0, lcx + lt / alpha)
        le = le + delta * np.maximum(0.0, lcy + lt / alpha)
        return np.exp(le)

    kinks = (1.0, (q.rx / q.rxy) ** alpha, (q.ry / q.rxy) ** alpha)
    res = integrate_semiinfinite(integrand, RIESZ_TOL, kinks=kinks)
    return q.rxy ** (0.5 * alpha * s - d) * res.value


@dataclass(frozen=True)
class SchurIntegral:
    """Value of the Schur test weight integral together with its
    finiteness status; value is +inf when divergent is True."""

    value: float
    divergent: bool


def schur_weight_integral(
    beta: float,
    delta_plus: float,
    d: int,
) -> SchurIntegral:
    """Weighted Schur test integral

        int_{R^d} dz / (|z|^beta (|z| v 1)^d) * ((|z| v 1)/(|z| ^ 1))^{delta_+},

    in closed form: |S^{d-1}| (1/(d-beta-delta_+) + 1/(beta-delta_+)), the
    sphere area times two radial power integrals split at |z| = 1.  The
    integral is finite exactly when delta_+ < beta < d - delta_+; divergence is
    reported through the flag, never raised.
    """
    beta = float(beta)
    delta_plus = float(delta_plus)
    if not (math.isfinite(beta) and math.isfinite(delta_plus)):
        raise DomainError("beta and delta_plus must be finite")
    if not (delta_plus < beta < d - delta_plus):
        return SchurIntegral(value=math.inf, divergent=True)
    value = sphere_area(d) * (1.0 / (d - beta - delta_plus) + 1.0 / (beta - delta_plus))
    return SchurIntegral(value=value, divergent=False)


def gamma_negative_half_integral_check(s: float) -> float:
    """Quadrature value of int_0^inf t^{-s/2} (e^{-t} - 1) dt/t for
    0 < s < 2, which equals Gamma(-s/2); absolute tolerance ``GAMMA_TOL``.

    The integrand is negative on all of (0, inf); the small-t side is
    evaluated through expm1 to keep the e^{-t} - 1 cancellation exact.
    """
    s = float(s)
    if not (0.0 < s < 2.0):
        raise DomainError(f"s must lie strictly inside (0, 2), got {s!r}")

    def integrand(t):
        return t ** (-0.5 * s - 1.0) * np.expm1(-t)

    return integrate_semiinfinite(integrand, GAMMA_TOL).value


def gamma_reflection_oracle(s: float) -> float:
    """Gamma(-s/2) for 0 < s < 2 via the recurrence
    Gamma(z) = Gamma(z+2)/(z (z+1)) with z = -s/2, evaluated on the
    positive axis through log_gamma."""
    s = float(s)
    if not (0.0 < s < 2.0):
        raise DomainError(f"s must lie strictly inside (0, 2), got {s!r}")
    z = -0.5 * s
    return math.exp(log_gamma(z + 2.0)) / (z * (z + 1.0))
