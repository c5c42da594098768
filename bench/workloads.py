"""Seeded operation generators for the three benchmark workloads.

Every operation draws fresh parameters from the workload seed, so no
process-wide cache can carry work from one operation to the next:

* Values are dealt from shuffled decks of four cards, one deck per
  operation kind (``_Deck``): each deck holds every ``d`` in {2, 3, 4, 5}
  once and one of four equal strata of ``alpha`` and of ``u`` per card,
  and the times or powers of the deck's operations fill equal strata of
  their window once each.  Each value is still uniform on its own, but
  every block of operations gets the same mix of dimensions, orders and
  powers, which keeps per-run medians steady across seeds.  Runs stop at
  block boundaries.
* ``alpha`` is uniform in [0.5, 1.9].  The lower end keeps the default
  grid's reliable time window non-empty; the upper end reaches the
  alpha -> 2 regime where verdicts are known to go wrong.  Those draws stay.
* ``a = a_star + u * (0.5 H - a_star)`` with ``H`` the sharp Hardy constant.
  ``riesz`` draws ``u`` in [0.15, 1] instead of [0, 1] (``RIESZ_U_RANGE``):
  near ``a_star`` at d = 4 and 5 (``delta`` above about 1.3) the adaptive
  integrator cannot meet its absolute tolerance on triples whose radii
  differ by 10^4 and raises ``ConvergenceError``.  That is a defect of the
  program, reproduced in ``bench/README.md``; the timed workload keeps
  ``delta`` below 0.95 so that no operation fails.

The package receives only the generated argv (CLI operations) or the
generated arguments (ladder operations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from hardyops import kernels, specfun

WORKLOADS = ("heat", "ladder", "riesz")

D_VALUES = (2, 3, 4, 5)
ALPHA_RANGE = (0.5, 1.9)
LADDER_S_RANGE = (0.25, 1.75)
RIESZ_S_SHARE = (0.05, 0.95)
RIESZ_U_RANGE = (0.15, 1.0)
HEAT_TIMES = 4
RIESZ_POWERS = 3

# CLI defaults of heat-verify and diff-verify; the time window of the
# verify checks is [10 r_min^alpha, r_max^alpha / 10] on this grid.
GRID_R_MIN = 1e-3
GRID_R_MAX = 1e3
# Draws stay this relative distance inside their open windows so that
# rounding can never push a value onto an endpoint.
_INSET = 1e-9

# Operations per block: one full deck of every operation kind.
BLOCK = {"heat": 8, "ladder": 4, "riesz": 4}


@dataclass(frozen=True)
class Operation:
    """One closed-loop operation.

    ``argv`` is set for CLI operations (``--out-json``/``--out-csv`` are
    appended by the runner); ``ladder`` holds ``(d, alpha, a, s)`` for the
    library ladder operation.
    """

    index: int
    kind: str
    d: int
    alpha: float
    a: float
    argv: Optional[tuple] = None
    ladder: Optional[tuple] = None
    expected_reports: int = 1


class _Deck:
    """Shuffled decks of four cards, one card per operation.

    The cards of a deck hold each dimension once, one of four strata of
    ``alpha`` and of ``u`` each, and ``extra`` of ``4 * extra`` strata of
    the unit interval for the operation's times or powers.
    """

    def __init__(self, rng: np.random.Generator, extra: int):
        self._rng = rng
        self._extra = extra
        self._cards: list = []

    def draw(self) -> tuple:
        """Returns ``(d, alpha, u, fractions)``."""
        rng, k, extra = self._rng, len(D_VALUES), self._extra
        if not self._cards:
            ds, alphas, us = rng.permutation(D_VALUES), rng.permutation(k), rng.permutation(k)
            fractions = rng.permutation(k * extra).reshape(k, extra)
            self._cards = [(int(ds[i]), alphas[i], us[i], fractions[i]) for i in range(k)]
        d, alpha_stratum, u_stratum, strata = self._cards.pop(0)
        lo, hi = ALPHA_RANGE
        alpha = lo + (hi - lo) * (alpha_stratum + rng.uniform()) / k
        u = (u_stratum + rng.uniform()) / k
        fractions = [float(_INSET + (1.0 - 2.0 * _INSET) * (j + rng.uniform()) / (k * extra))
                     for j in strata]
        return d, float(alpha), float(u), fractions


def coupling(d: int, alpha: float, u: float) -> float:
    """``a = a_star + u (0.5 H - a_star)``."""
    h = specfun.hardy_constant(d, alpha)
    a_star = -h
    return a_star + u * (0.5 * h - a_star)


def time_window(alpha: float) -> tuple:
    """Reliable time window of the default grid for order ``alpha``."""
    return 10.0 * GRID_R_MIN**alpha, GRID_R_MAX**alpha / 10.0


def _log_between(lo: float, hi: float, fractions: list) -> list:
    return [math.exp(math.log(lo) + f * math.log(hi / lo)) for f in fractions]


# Values go in ``--flag=value`` form: argparse would take a separate
# argument such as "-9.2e-05" for an option.
def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _heat_ops(seed: int) -> Iterator[Operation]:
    heat_rng = np.random.default_rng([seed, 1])
    diff_rng = np.random.default_rng([seed, 2])
    heat_deck, diff_deck = _Deck(heat_rng, HEAT_TIMES), _Deck(diff_rng, 1)
    index = 0
    diff_count = 0
    while True:
        if index % 2 == 0:
            d, alpha, u, fractions = heat_deck.draw()
            a = coupling(d, alpha, u)
            times = _log_between(*time_window(alpha), fractions)
            argv = ("heat-verify", f"--d={d}", f"--alpha={alpha!r}", f"--a={a!r}",
                    f"--t={_floats(times)}", f"--seed={_cli_seed(heat_rng)}")
            yield Operation(index, "heat-verify", d, alpha, a, argv=argv,
                            expected_reports=HEAT_TIMES)
        else:
            d, alpha, u, fractions = diff_deck.draw()
            a = coupling(d, alpha, u)
            times = _log_between(*time_window(alpha), fractions)
            argv = ("diff-verify", f"--d={d}", f"--alpha={alpha!r}", f"--a={a!r}",
                    f"--t={_floats(times)}", f"--seed={_cli_seed(diff_rng)}")
            if diff_count % 2 == 1:
                upper = 0.5 * specfun.hardy_constant(d, alpha)
                a_tilde = float(diff_rng.uniform(a, upper))
                argv += (f"--a-tilde={a_tilde!r}",)
            diff_count += 1
            yield Operation(index, "diff-verify", d, alpha, a, argv=argv)
        index += 1


def _ladder_ops(seed: int) -> Iterator[Operation]:
    rng = np.random.default_rng([seed, 3])
    deck = _Deck(rng, 1)
    index = 0
    while True:
        d, alpha, u, (fraction,) = deck.draw()
        a = coupling(d, alpha, u)
        lo, hi = LADDER_S_RANGE
        s = lo + (hi - lo) * fraction
        yield Operation(index, "ladder", d, alpha, a, ladder=(d, alpha, a, s),
                        expected_reports=2)
        index += 1


def _riesz_ops(seed: int) -> Iterator[Operation]:
    rng = np.random.default_rng([seed, 4])
    deck = _Deck(rng, RIESZ_POWERS)
    index = 0
    while True:
        d, alpha, u, fractions = deck.draw()
        u_lo, u_hi = RIESZ_U_RANGE
        a = coupling(d, alpha, u_lo + (u_hi - u_lo) * u)
        window = kernels.riesz_exponent_window(specfun.make_params(d, alpha, a))
        lo, hi = RIESZ_S_SHARE
        powers = [(lo + (hi - lo) * f) * window for f in fractions]
        argv = ("riesz-verify", f"--d={d}", f"--alpha={alpha!r}", f"--a={a!r}",
                f"--s={_floats(powers)}", f"--seed={_cli_seed(rng)}")
        yield Operation(index, "riesz-verify", d, alpha, a, argv=argv,
                        expected_reports=RIESZ_POWERS)
        index += 1


_GENERATORS = {"heat": _heat_ops, "ladder": _ladder_ops, "riesz": _riesz_ops}


def operations(workload: str, seed: int) -> Iterator[Operation]:
    """Endless, deterministic operation stream of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](int(seed))
