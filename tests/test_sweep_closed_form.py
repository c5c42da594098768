"""The norm-equivalence sweep at s = 1 against its closed form.

On radial functions the ground-state representation diagonalizes both
quadratic forms in the Mellin variable (Frank, Lieb & Seiringer, J. Amer.
Math. Soc. 2008), and the Mellin transform of a Gaussian cancels the
symbol's denominator.  So every member of ``gaussian-dilates`` has

    ratio_forward(s = 1) = sqrt(R / (R + a)),   R = Gamma((d+alpha)/2) / Gamma((d-alpha)/2),

independent of its width by dilation invariance.  (At d = 3, alpha = 2,
R = 3/4 is the classical ratio int |grad f|^2 / int f^2 / r^2 of a
Gaussian.)  Each case is gated at the worst member's relative error
measured on a 512-node box [1e-3, 1e3]; a fix to the discretization
should tighten these gates, never loosen them.
"""

import math

import pytest

from hardyops import TestFamily, build_log_grid, hardy_constant, log_gamma, make_params
from hardyops.verify import FAMILY_MEMBERS, sweep_by_power

# (d, alpha): the worst member's relative error at a = -0.5 H.
MEASURED = {
    (2, 0.5): 8.40e-4, (2, 1.0): 8.88e-4, (2, 1.5): 1.31e-3, (2, 1.9): 6.20e-3,
    (3, 0.5): 5.69e-5, (3, 1.0): 3.31e-4, (3, 1.5): 2.74e-3, (3, 1.9): 1.56e-2,
    (4, 0.5): 3.16e-5, (4, 1.0): 3.58e-4, (4, 1.5): 3.20e-3, (4, 1.9): 1.84e-2,
    (5, 0.5): 3.58e-5, (5, 1.0): 3.97e-4, (5, 1.5): 3.38e-3, (5, 1.9): 1.85e-2,
}


def closed_form(d: int, alpha: float, a: float) -> float:
    ratio = math.exp(log_gamma(0.5 * (d + alpha)) - log_gamma(0.5 * (d - alpha)))
    return math.sqrt(ratio / (ratio + a))


@pytest.mark.parametrize("d, alpha", sorted(MEASURED), ids=lambda v: str(v))
def test_s_one_ratio_of_every_gaussian_against_the_closed_form(d, alpha):
    params = make_params(d, alpha, -0.5 * hardy_constant(d, alpha))
    grid = build_log_grid(d, 1e-3, 1e3, 512)
    rows, notes, (report,) = sweep_by_power(params, [1.0], TestFamily("gaussian-dilates"), grid)
    assert notes == [] and len(rows) == FAMILY_MEMBERS
    assert report.verdict == "pass", report.notes
    exact = closed_form(d, alpha, params.a)
    worst = max(abs(row["ratio_forward"] - exact) / exact for row in rows)
    assert worst <= MEASURED[d, alpha], worst
