"""The Riesz time integral against its exact piecewise-exponential sum.

In u = ln t the integrand of ``quadrature.riesz_time_integral`` (times t,
for dt/t = du) is exp(l(u)) with l piecewise linear:

    l(u) = (s/2) u + min(0, (-d/alpha - 1) u)
           + delta max(0, ln(rxy/rx) + u/alpha) + delta max(0, ln(rxy/ry) + u/alpha),

with kinks at u = 0, -alpha ln(rxy/rx) and -alpha ln(rxy/ry).  So the
integral is a finite sum: each piece between kinks u_a < u_b of slope m
gives e^{max(l_a, l_b)} (1 - e^{-|m| (u_b - u_a)}) / |m|, taken through
expm1 so that slopes near zero keep their digits, and the two tails give
e^{l} / |m| at the outer kinks.  That sum is spot-checked against mpmath
and then compared with the adaptive integral at draws made the way the
``riesz`` benchmark workload draws (d, alpha, a, s), with radii
log-uniform in [1e-3, 1e3].
"""

import math

import mpmath
import numpy as np
import pytest

from hardyops import KernelTriple, a_star, hardy_constant, make_params, riesz_exponent_window
from hardyops.quadrature import riesz_time_integral

DRAWS = 12
TRIPLES = 150
# Over these 1,800 integrals the relative error reads a median of 2.95e-15
# and a worst of 6.75e-13 today.  The error is the adaptive integrator's, so
# a better integrator should tighten these gates, never loosen them.
MEDIAN_GATE = 3.0e-15
WORST_GATE = 6.8e-13


def _log_integrand(u, s, params, lcx, lcy):
    d, alpha, delta = params.d, params.alpha, params.delta
    return (0.5 * s * u + min(0.0, (-d / alpha - 1.0) * u)
            + delta * max(0.0, lcx + u / alpha) + delta * max(0.0, lcy + u / alpha))


def exact_integral(s, rx, ry, rxy, params) -> float:
    """|x-y|^{alpha s/2 - d} int_R exp(l(u)) du as a sum over the pieces of l."""
    d, alpha, delta = params.d, params.alpha, params.delta
    lcx, lcy = math.log(rxy / rx), math.log(rxy / ry)
    kinks = sorted({0.0, -alpha * lcx, -alpha * lcy})
    ell = [_log_integrand(u, s, params, lcx, lcy) for u in kinks]
    top = max(ell)
    left_slope = 0.5 * s
    right_slope = 0.5 * s - d / alpha - 1.0 + 2.0 * delta / alpha
    total = math.exp(ell[0] - top) / left_slope + math.exp(ell[-1] - top) / -right_slope
    for ua, la, ub, lb in zip(kinks, ell, kinks[1:], ell[1:]):
        width = ub - ua
        slope = abs(lb - la) / width
        piece = width if slope == 0.0 else -math.expm1(-slope * width) / slope
        total += math.exp(max(la, lb) - top) * piece
    return rxy ** (0.5 * alpha * s - d) * math.exp(top) * total


def mpmath_integral(s, rx, ry, rxy, params) -> float:
    with mpmath.workdps(30):
        lcx, lcy = mpmath.log(mpmath.mpf(rxy) / rx), mpmath.log(mpmath.mpf(rxy) / ry)
        kinks = sorted({mpmath.mpf(0), -params.alpha * lcx, -params.alpha * lcy})
        value = mpmath.quad(lambda u: mpmath.exp(_log_integrand(u, s, params, lcx, lcy)),
                            [-mpmath.inf, *kinks, mpmath.inf])
        return float(mpmath.mpf(rxy) ** (0.5 * params.alpha * s - params.d) * value)


def _draws():
    """(params, s, triple) per draw: d cycles through 2..5, alpha is uniform
    in [0.5, 1.9], a = a_star + u (H/2 - a_star) with u uniform in [0.15, 1],
    and s is uniform in [0.05, 0.95] of the convergence window."""
    rng = np.random.default_rng(2024)
    for k in range(DRAWS):
        d = (2, 3, 4, 5)[k % 4]
        alpha = rng.uniform(0.5, 1.9)
        u = rng.uniform(0.15, 1.0)
        crit = a_star(d, alpha)
        params = make_params(d, alpha, crit + u * (0.5 * hardy_constant(d, alpha) - crit))
        s = rng.uniform(0.05, 0.95) * riesz_exponent_window(params)
        rx, ry = 10.0 ** rng.uniform(-3.0, 3.0, (2, TRIPLES))
        mu = rng.uniform(-1.0, 1.0, TRIPLES)
        rxy = np.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - mu))
        yield params, s, KernelTriple(rx, ry, rxy)


DRAWN = list(_draws())


@pytest.mark.parametrize("index", [0, 1, 2])
def test_exact_sum_against_mpmath(index):
    params, s, q = DRAWN[index]
    for rx, ry, rxy in list(zip(q.rx, q.ry, q.rxy))[:3]:
        reference = mpmath_integral(s, rx, ry, rxy, params)
        assert exact_integral(s, rx, ry, rxy, params) == pytest.approx(reference, rel=1e-15)


def test_adaptive_integral_against_the_exact_sum():
    errors = []
    for params, s, q in DRAWN:
        adaptive = riesz_time_integral(s, q, params)
        exact = np.array([exact_integral(s, *geometry, params) for geometry in zip(q.rx, q.ry, q.rxy)])
        errors.extend(np.abs(adaptive - exact) / exact)
    assert len(errors) == DRAWS * TRIPLES
    assert np.median(errors) <= MEDIAN_GATE, np.median(errors)
    assert max(errors) <= WORST_GATE, max(errors)
