"""Adaptive quadrature on (0, inf) and the integral identities built on it.

The integrator substitutes t = e^u, seeds panel edges at known kink
locations, and extends the window in both directions until two
consecutive tail panels hold less than 0.02 tol per unit width.  Tail
panels start 2 wide and double, up to 16, after each panel whose
Gauss-Kronrod error estimate is far below that bar, and the last one stops
at the boundary |u| = 690.  It then bisects the worst panel by the error
estimate until the total estimate meets the tolerance or ``MAX_SPLITS``
bisections are spent.  It integrates a batch of independent integrals in
lockstep: each phase step evaluates the next panels of every integral
still in that phase with one integrand call, while every integral keeps
to the sequential rule above, so its panels, value and error estimate do
not depend on the rest of the batch.  The Riesz time integral is a thin
wrapper that prepares a specific integrand and kink set; the Schur weight
integral has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import KernelTriple, _value, riesz_exponent_window
from .specfun import HardyParams, _check_dimension, sphere_area

__all__ = [
    "QuadResult",
    "integrate_semiinfinite",
    "riesz_time_integral",
    "SchurIntegral",
    "schur_weight_integral",
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
# The 15 Kronrod abscissae on [-1, 1] in increasing order.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])

_U_FLOOR = -690.0
_U_CEIL = 690.0
_TAIL_WIDTH_CAP = 16.0  # widest tail panel, in u = ln t

MAX_SPLITS = 4000  # panel bisections before the integrator gives up
# Tolerance on the Riesz time integral I divided by e^sigma, its peak above
# 1: absolute on I for peaks up to 1, relative to the peak above.
RIESZ_TOL = 1e-9


@dataclass(frozen=True)
class QuadResult:
    """Outcome of a batch of adaptive integrations: ``value``,
    ``abs_error_estimate`` and ``evaluations_each`` hold one entry per
    integral; ``evaluations`` is the number of integrand evaluations summed
    over the batch.  ``abs_error_estimate`` sums the Gauss-Kronrod errors
    of the panels made and leaves out the mass beyond each tail's stopping
    point, so it can read far below the true error."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    evaluations: int
    evaluations_each: np.ndarray


def _seed_edges(kinks: np.ndarray) -> np.ndarray:
    """Seed panel edges in u = ln t for an (m, k) array of kink locations.

    Row r's edges are its kinks' logs and 0, sorted, with one more edge 2
    below the lowest and 2 above the highest, as an (m, k + 3) array.
    Raises DomainError naming the first non-positive or non-finite kink of
    the lowest row holding one.
    """
    bad = ~((kinks > 0.0) & (kinks < math.inf))
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        k = float(kinks[row, np.argmax(bad[row])])
        raise DomainError(f"kink locations must be finite and > 0: {k!r}")
    seeds = np.column_stack([np.log(kinks), np.zeros(len(kinks))])
    edges = np.column_stack([seeds.min(axis=1) - 2.0, seeds, seeds.max(axis=1) + 2.0])
    return np.sort(edges, axis=1)


def _row_dot(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # One BLAS dot per row, rounded as np.dot(weights, row) rounds it, so a
    # row's value does not depend on the rows around it; a matrix-vector
    # product rounds a row by its place in the block.
    return (rows[:, None, :] @ weights)[:, 0]


def integrate_semiinfinite(
    f: Callable,
    tol: float,
    kinks: Sequence[Sequence[float]],
    args: Sequence = (),
) -> QuadResult:
    """Integrate a batch of m functions over (0, inf), each to absolute
    tolerance tol and exactly as it would be integrated alone.

    kinks is an (m, k) array (k may be 0): row r holds the points where
    integral r's integrand loses smoothness, and panel edges are seeded
    there.  Any other shape raises DomainError.  Each entry of args holds
    one parameter per integral (length m, or a scalar shared by all).
    f(t, *a) is called on a (p, 15) array t of panel abscissae, with each a
    the panels' parameters as a (p, 1) column, and must return values
    broadcast to t's shape.

    Every kink is checked before f is first called: a non-positive or
    non-finite one raises DomainError.  During integration,
    ConvergenceError is raised when either tail refuses to decay before the
    underflow boundary or the refinement budget is exhausted, and
    DomainError if f produces non-finite values; the error is that of the
    lowest-index failing integral, as it would raise alone.
    """
    tol = float(tol)
    if not (tol > 0.0) or math.isinf(tol):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")
    kinks = np.asarray(kinks, dtype=float)
    if kinks.ndim != 2:
        raise DomainError(f"kinks must be an (m, k) array, got shape {kinks.shape}")
    m = len(kinks)
    args = [np.broadcast_to(np.asarray(a, dtype=float), (m,)) for a in args]
    if not m:
        return QuadResult(np.zeros(0), np.zeros(0), 0, np.zeros(0, dtype=int))
    edges = _seed_edges(kinks)
    # Row r of the table holds integral r's first count[r] panels as (lo,
    # hi, val, err), edges in u = ln t and G7K15 value and error estimate,
    # in the order they were made; the -inf padding is never the worst.
    table = np.full((4, m, edges.shape[1]), -math.inf)
    alive = np.ones(m, dtype=bool)
    failure = None

    def fail(row, exc):
        # The lowest failing integral is the one whose error is raised; the
        # rows from it on stop, since no result past it can be returned.
        nonlocal failure
        failure = exc
        alive[row:] = False

    def append(rows, *panel):
        nonlocal table
        if count[rows].max() == table.shape[2]:
            table = np.concatenate([table, np.full_like(table, -math.inf)], axis=2)
        table[:, rows, count[rows]] = panel
        count[rows] += 1

    def evaluate(rows, lo, hi):
        # One integrand call for the panels [lo, hi] of the given rows.  A
        # row's panels come in the order it would evaluate them alone, so
        # the first bad panel is the one its own error names.
        mid = 0.5 * (lo + hi)
        hl = 0.5 * (hi - lo)
        u = mid[:, None] + hl[:, None] * _NODES
        with np.errstate(all="ignore"):
            t = np.exp(u)
            g = np.asarray(f(t, *(a[rows, None] for a in args)), dtype=float) * t
        shaped = g.shape == u.shape
        if not (shaped and np.isfinite(g).all()):
            j = np.argmin(np.isfinite(g).all(axis=1)) if shaped else 0
            fail(rows[j], DomainError(
                f"integrand returned a non-finite or misshaped value on "
                f"[{math.exp(lo[j]):.3g}, {math.exp(hi[j]):.3g}]"
            ))
            if not shaped:
                return np.zeros_like(lo), np.zeros_like(lo)
        sym = g[:, :7] + g[:, :7:-1]
        k15 = hl * (_row_dot(sym, _WK[:-1]) + _WK[-1] * g[:, 7])
        g7 = hl * (_row_dot(sym[:, 1::2], _WG[:-1]) + _WG[-1] * g[:, 7])
        return k15, np.abs(k15 - g7)

    # Seed panels between consecutive distinct edges, in increasing order.
    # A row's error total is summed over its panels in the order they were
    # made, as bincount sums them.
    fresh = edges[:, 1:] > edges[:, :-1]
    rows = np.nonzero(fresh)[0]
    lo, hi = edges[:, :-1][fresh], edges[:, 1:][fresh]
    val, err = evaluate(rows, lo, hi)
    table[:, rows, (np.cumsum(fresh, axis=1) - 1)[fresh]] = lo, hi, val, err
    count = fresh.sum(axis=1)
    total = np.bincount(rows, weights=err, minlength=m)

    # Extend each tail until two consecutive panels are negligible per unit
    # width.  A row's panels start 2 wide and double, up to _TAIL_WIDTH_CAP,
    # after each panel the rule resolves to far below that bar: past the
    # outermost kink the integrand is a pure exponential, whose slope can be
    # small enough to take hundreds of width-2 panels to die out.  The cap
    # keeps room for two quiet panels before the boundary.  A tail of slope
    # m stopped at the bar leaves under 0.02 tol / m beyond it, which is
    # within tol down to m = 0.02, about the slowest tail that falls from 1
    # to the bar inside the boundaries.
    tails = (
        (+1, edges[:, -1], "right tail did not decay before the overflow boundary"),
        (-1, edges[:, 0], "left tail did not decay before the underflow boundary"),
    )
    for direction, start, stuck in tails:
        u = start.copy()
        step = np.full(m, 2.0)
        quiet = np.zeros(m, dtype=int)
        rows = np.flatnonzero(alive)
        while rows.size:
            beyond = u[rows] >= _U_CEIL if direction > 0 else u[rows] <= _U_FLOOR
            if beyond.any():
                first = rows[np.argmax(beyond)]
                fail(first, ConvergenceError(stuck))
                rows = rows[rows < first]
                continue
            nxt = np.clip(u[rows] + step[rows] * direction, _U_FLOOR, _U_CEIL)
            a, b = (u[rows], nxt) if direction > 0 else (nxt, u[rows])
            val, err = evaluate(rows, a, b)
            append(rows, a, b, val, err)
            total[rows] += err
            bar = 0.02 * tol * (b - a)
            quiet[rows] = np.where(np.abs(val) + err < bar, quiet[rows] + 1, 0)
            resolved = err <= 1e-3 * bar + 1e-6 * np.abs(val)
            step[rows] = np.where(resolved, np.minimum(2.0 * step[rows], _TAIL_WIDTH_CAP),
                                  step[rows])
            u[rows] = nxt
            rows = rows[alive[rows] & (quiet[rows] < 2)]

    splits = np.zeros(m, dtype=int)
    value, error = np.zeros(m), np.zeros(m)
    evals = np.zeros(m, dtype=int)
    rows = np.flatnonzero(alive)
    while True:
        rows = rows[alive[rows]]
        over = total[rows] > tol
        done = rows[~over]
        for r in done:
            value[r] = math.fsum(table[2, r, : count[r]].tolist())
        error[done] = total[done]
        evals[done] = 15 * (count[done] + splits[done])  # a split discards one panel
        rows = rows[over]
        if not rows.size:
            break
        spent = splits[rows] >= MAX_SPLITS
        if spent.any():
            r = rows[np.argmax(spent)]
            fail(r, ConvergenceError(
                f"refinement budget exhausted: error estimate {total[r]:.3e} "
                f"above tolerance {tol:.3e} after {splits[r]} splits"
            ))
            continue
        # Every remaining row bisects its worst panel: the largest error,
        # ties to the smallest lo, as a heap keyed on (-err, lo) pops them.
        width = count[rows].max()
        lo, err = table[0, rows, :width], table[3, rows, :width]
        worst = np.where(err == err.max(axis=1)[:, None], lo, math.inf).argmin(axis=1)
        a, b, _, e = table[:, rows, worst]
        narrow = b - a < 1e-13
        if narrow.any():
            j = np.argmax(narrow)
            fail(rows[j], ConvergenceError(
                f"panel at t ~ {math.exp(a[j]):.3e} shrank below resolution "
                f"with error {e[j]:.3e} remaining"
            ))
            continue
        mid = 0.5 * (a + b)
        halves = evaluate(np.repeat(rows, 2),
                          np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel())
        (v1, v2), (e1, e2) = (x.reshape(-1, 2).T for x in halves)
        total[rows] = (total[rows] - e) + (e1 + e2)
        # The left half replaces the worst panel, the right half is appended.
        table[1:, rows, worst] = mid, v1, e1
        append(rows, mid, b, v2, e2)
        splits[rows] += 1

    if failure is not None:
        raise failure
    return QuadResult(value, error, int(evals.sum()), evals)


def riesz_time_integral(s: float, q: KernelTriple, params: HardyParams):
    """Time-integral representation of the Riesz kernel profile.

    Computes

        |x-y|^{alpha s/2 - d} * I,
        I = int_0^inf t^{s/2} (1 ^ t^{-d/alpha - 1})
            (1 v (|x-y|/|x|) t^{1/alpha})^delta
            (1 v (|x-y|/|y|) t^{1/alpha})^delta  dt/t,

    with kinks at t = 1 and t = (|x|/|x-y|)^alpha, (|y|/|x-y|)^alpha.
    Requires all three radial lengths positive and s inside the window
    (0, min(2d/alpha, 2(d - 2 delta)/alpha)), which is exactly the
    condition making the integral converge.  I / e^sigma, e^sigma the
    integrand's peak above 1, is integrated to the absolute tolerance
    ``RIESZ_TOL``: absolute on I for peaks up to 1, relative above.

    Returns a float for a scalar triple.  An array triple gives an array
    of its broadcast shape, with every time integral in one batched
    ``integrate_semiinfinite`` call; each value is bit for bit that of
    its geometry alone.  Every length is checked before any integral
    starts, and the DomainError names the lowest (in flat order) geometry
    with a non-positive one.  So does the DomainError for the lowest
    geometry whose kinks, their logs, its scale factor
    |x-y|^{alpha s/2 - d} or its peak factor leave the range of a double,
    raised before any integral starts, or whose scaled value overflows,
    raised after them.  A failure during integration is that of the
    lowest-index geometry that fails.
    """
    s = float(s)
    smax = riesz_exponent_window(params)
    if not (0.0 < s < smax):
        raise DomainError(f"s must lie in (0, {smax}), got {s!r}")
    shape = np.broadcast_shapes(*(np.shape(v) for v in (q.rx, q.ry, q.rxy)))
    lengths = np.stack([np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()
                        for v in (q.rx, q.ry, q.rxy)])
    x, y, z = lengths

    def check(ok, message):
        if not ok.all():
            index = int(np.argmin(ok))
            raise DomainError(message.format(tuple(map(float, lengths[:, index])), index))

    check((lengths > 0.0).all(axis=0),
          "riesz_time_integral requires rx, ry and rxy > 0, got {} at index {}")
    overflow = "riesz_time_integral overflows double precision at {}, index {}"
    d, alpha, delta = params.d, params.alpha, params.delta
    half_s = 0.5 * s

    # Each integral is taken of the integrand divided by e^sigma, its peak
    # above 1, so that RIESZ_TOL is absolute for peaks up to 1 and relative
    # to the peak above: an absolute 1e-9 lies below the rounding floor of
    # a large integral, which then never converges.  The integrand's log in
    # u = ln t (times t, for dt/t = du) is piecewise linear and falls off at
    # both ends, so it peaks at a kink.  A geometry whose logs, kinks or
    # factors leave the double range is rejected before any integral.
    with np.errstate(all="ignore"):
        lcx, lcy = np.log(z / x), np.log(z / y)
        kinks = np.column_stack([np.ones_like(x), np.power(x / z, alpha), np.power(y / z, alpha)])
        u = np.stack([np.zeros_like(lcx), -alpha * lcx, -alpha * lcy])
        at_kinks = (half_s * u + np.minimum(0.0, (-d / alpha - 1.0) * u)
                    + delta * (np.maximum(0.0, lcx + u / alpha) + np.maximum(0.0, lcy + u / alpha)))
        sigma = at_kinks.max(axis=0, initial=0.0)
        prefactor, scale = np.power(z, 0.5 * alpha * s - d), np.exp(sigma)
        check(np.isfinite(np.column_stack([lcx, lcy, np.log(kinks), prefactor, scale])).all(axis=1),
              overflow)

    # Assembled in log space: the factored powers can overflow near the
    # probing tails even though the product is tiny there.
    def integrand(t, lcx, lcy, sigma):
        lt = np.log(t)
        lu = lt / alpha
        le = (half_s - 1.0) * lt + np.minimum(0.0, (-d / alpha - 1.0) * lt)
        le = le + delta * np.maximum(0.0, lcx + lu)
        le = le + delta * np.maximum(0.0, lcy + lu)
        return np.exp(le - sigma)

    res = integrate_semiinfinite(integrand, RIESZ_TOL, kinks=kinks, args=(lcx, lcy, sigma))
    # sigma = 0 leaves a value bit for bit unscaled; a product past the
    # largest double is rejected after the integrals.
    with np.errstate(over="ignore"):
        values = prefactor * res.value * scale
    check(np.isfinite(values), overflow)
    return _value(values.reshape(shape))


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
    reported through the flag, never raised.  A dimension below 2 raises
    ``DomainError``.
    """
    d = _check_dimension(d)
    beta = float(beta)
    delta_plus = float(delta_plus)
    if not (math.isfinite(beta) and math.isfinite(delta_plus)):
        raise DomainError("beta and delta_plus must be finite")
    if not (delta_plus < beta < d - delta_plus):
        return SchurIntegral(value=math.inf, divergent=True)
    value = sphere_area(d) * (1.0 / (d - beta - delta_plus) + 1.0 / (beta - delta_plus))
    return SchurIntegral(value=value, divergent=False)

