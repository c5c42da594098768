"""The free operator's lag weights against the exact one-dimensional symbol.

On a log-uniform grid of step h the assembled jump weights w_k of lags
k = 1 .. n-1 carry the symbol

    (2/h) sum_k w_k (1 - cos(k tau h)),

which should approximate

    phi(tau) = |S^{d-1}| (2^alpha |Gamma((d+alpha)/4 + i tau/2)|^2
                          / |Gamma((d-alpha)/4 + i tau/2)|^2 - H).

The symbol is read off the weights alone, with no eigensystem.  The error
is taken relative to phi + |S^{d-1}| H, the symbol of |p|^alpha itself, at
64 frequencies in (0, 10] on the box [1e-3, 1e3].  Each (d, alpha, n) is
gated at the worst error it reads today; a better near-field or lag
discretization should tighten these gates, never loosen them.  At alpha
= 1.9 the symbol is still 16% off at n = 16384.
"""

import math

import numpy as np
import pytest

from hardyops import build_log_grid, hardy_constant, operators, sphere_area
from hardyops.specfun import _scaled_log_abs_gamma

TAU = np.linspace(10.0 / 64, 10.0, 64)

# (d, alpha): worst relative error at n = 1024 and at n = 16384.
MEASURED = {
    (2, 0.5): (5.52e-4, 1.06e-5), (2, 1.0): (5.33e-3, 4.07e-4),
    (2, 1.5): (3.86e-2, 1.18e-2), (2, 1.9): (1.87e-1, 1.60e-1),
    (3, 0.5): (5.52e-4, 1.06e-5), (3, 1.0): (5.33e-3, 4.07e-4),
    (3, 1.5): (3.85e-2, 1.18e-2), (3, 1.9): (1.86e-1, 1.59e-1),
    (4, 0.5): (5.51e-4, 1.05e-5), (4, 1.0): (5.31e-3, 4.05e-4),
    (4, 1.5): (3.83e-2, 1.17e-2), (4, 1.9): (1.82e-1, 1.58e-1),
    (5, 0.5): (5.49e-4, 1.05e-5), (5, 1.0): (5.27e-3, 4.03e-4),
    (5, 1.5): (3.80e-2, 1.16e-2), (5, 1.9): (1.77e-1, 1.56e-1),
}


def exact_symbol(d: int, alpha: float) -> np.ndarray:
    # The pi |y| / 2 that the scaled values add cancels in the difference.
    log_ratio = (_scaled_log_abs_gamma(0.25 * (d + alpha), 0.5 * TAU)
                 - _scaled_log_abs_gamma(0.25 * (d - alpha), 0.5 * TAU))
    return sphere_area(d) * (2.0**alpha * np.exp(2.0 * log_ratio) - hardy_constant(d, alpha))


@pytest.mark.parametrize("n", [1024, 16384])
@pytest.mark.parametrize("d, alpha", sorted(MEASURED), ids=lambda v: str(v))
def test_lag_sum_symbol_against_the_closed_form(d, alpha, n):
    grid = build_log_grid(d, 1e-3, 1e3, n)
    h = math.log(grid.r_max / grid.r_min) / (n - 1)
    weights = operators._lag_weights(grid, alpha)
    lag_symbol = (2.0 / h) * ((1.0 - np.cos(np.outer(TAU * h, np.arange(1, n)))) @ weights)
    phi = exact_symbol(d, alpha)
    worst = float(np.max(np.abs(lag_symbol - phi) / (phi + sphere_area(d) * hardy_constant(d, alpha))))
    assert worst <= MEASURED[d, alpha][n == 16384], worst
