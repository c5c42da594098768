"""Property-based tests of the scalar layer (``specfun``).

Draws cover every dimension d in {2, ..., 5} and the whole documented
order domain 0 < alpha < min(2, d), subnormal orders included.

The inverse symbol is checked backward: the exponent psi_inv returns must
bracket the root of psi(sigma) = a to the bisection width, up to rounding
in psi.  A forward tolerance on sigma would be wrong in two places where
the inverse is ill conditioned: at the quadratic minimum sigma = (d-alpha)/2
and for small alpha, where psi is nearly flat around -1.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyops.errors import ConvergenceError
from hardyops.specfun import a_star, make_params, psi, psi_inv

dims = st.integers(min_value=2, max_value=5)
orders = st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True)
unit = st.floats(min_value=0.0, max_value=1.0)

property_settings = settings(max_examples=300, deadline=None)

BISECTION_WIDTH = 1e-13


def _sigma(d: int, alpha: float, u: float) -> float:
    """Map u in [0, 1] onto the symbol's domain (-alpha, (d - alpha)/2]."""
    upper = 0.5 * (d - alpha)
    return upper - u * (upper + alpha)


def _inverse(d: int, alpha: float, a: float):
    """psi_inv, or None when the root lies beyond double resolution.

    ConvergenceError is the documented answer only when even the smallest
    double above -alpha has a symbol below the target.
    """
    try:
        return psi_inv(d, alpha, a)
    except ConvergenceError:
        edge = math.nextafter(-alpha, 0.0)
        assert psi(d, alpha, edge) < a
        return None


def _assert_brackets_root(d: int, alpha: float, a: float, sigma: float) -> None:
    upper = 0.5 * (d - alpha)
    assert -alpha < sigma <= upper
    slack = 64.0 * math.ulp(max(1.0, abs(a)))
    left = sigma - 2.0 * BISECTION_WIDTH
    if left > -alpha:
        assert psi(d, alpha, left) >= a - slack
    assert psi(d, alpha, min(sigma + 2.0 * BISECTION_WIDTH, upper)) <= a + slack


@property_settings
@given(d=dims, alpha=orders, u=unit)
def test_psi_inv_inverts_psi(d, alpha, u):
    sigma = _sigma(d, alpha, u)
    assume(sigma > -alpha)
    value = psi(d, alpha, sigma)
    back = _inverse(d, alpha, value)
    if back is not None:
        _assert_brackets_root(d, alpha, value, back)


@property_settings
@given(d=dims, alpha=orders, u=unit, v=unit)
def test_psi_is_decreasing(d, alpha, u, v):
    lo, hi = sorted((_sigma(d, alpha, u), _sigma(d, alpha, v)))
    assume(lo > -alpha)
    # Where psi is flat (small alpha: psi ~ -1 on most of the domain) its
    # own rounding of a couple of ulps exceeds the true decrease.
    right = psi(d, alpha, hi)
    assert psi(d, alpha, lo) >= right - 4.0 * math.ulp(right)


@property_settings
@given(d=dims, alpha=orders, excess=st.floats(min_value=0.0, max_value=1e6))
def test_make_params_invariants(d, alpha, excess):
    crit = a_star(d, alpha)
    a = crit + excess
    if _inverse(d, alpha, a) is None:
        return
    params = make_params(d, alpha, a)
    assert params.a >= params.a_star == crit
    assert params.delta_plus == max(params.delta, 0.0)
    assert (params.a_star_star is None) == (alpha >= 0.5 * d)
    _assert_brackets_root(d, alpha, params.a, params.delta)
