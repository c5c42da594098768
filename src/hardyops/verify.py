"""Inequality checkers that reduce measurements to structured reports.

Every public function here follows the same recipe: build the discrete
operators it needs, measure an empirical constant over a family of test
vectors or sampled node pairs, and compress the outcome into a
:class:`VerificationReport` carrying a verdict.  A verdict is ``"pass"``
when the measured quantity stays inside its bound, ``"diverging"`` when it
grows by at least ``DIVERGING_FACTOR`` along the probe direction (shrinking
cutoff, refinement ladder), and ``"fail"`` otherwise.  A measurement is
stable when it moves by less than ``STABLE_FACTOR``.

The checks never assume monotone convergence under refinement; ladders are
recorded in the report notes and judged only against the stated thresholds.
With ``a = 0`` each check degenerates to an exactly known case (unit ratio,
vanishing difference kernel); the CLI suite's sweep row is anchored at
s = 1 and a != 0 instead, where the ratio of a Gaussian has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .kernels import (
    KernelTriple,
    angular_average,
    hardy_heat_profile,
    l_envelope,
    m_envelope,
    poisson_radial_average,
    riesz_profile,
)
from .operators import (
    PotentialSpec,
    RadialGrid,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    heat_kernel_matrix,
)
from .quadrature import riesz_time_integral
from .specfun import HardyParams, _check_count, make_params

_VERDICTS = ("pass", "fail", "diverging")

FAMILY_TAGS = ("gaussian-dilates", "singular-cutoff", "bump-translates-radial")

SWEEP_COLUMNS = (
    "d",
    "alpha",
    "a",
    "delta",
    "s",
    "family",
    "member_id",
    "ratio_forward",
    "ratio_backward",
)

STABLE_FACTOR = 2.0
DIVERGING_FACTOR = 10.0
REFINE_FACTOR = 100.0  # inner radius shrinks by this factor per ladder rung
SIGN_SLACK = 1e-10  # entrywise sign violation tolerated in a difference kernel
RIESZ_DECADES = 2.0  # sampled Riesz radii are log-uniform in [10^-2, 10^2]
PLATEAU_OUTER = 50.0  # outer ramp radius of the singular-cutoff family
FAMILY_MEMBERS = 8  # test vectors in every family
DILATION_RANGE = (0.25, 4.0)  # widths of the gaussian-dilates family
CUTOFF_MAX = 3e-2  # largest cutoff scale of the singular-cutoff family

DEFAULT_R_MIN = 1e-3
DEFAULT_R_MAX = 1e3
DEFAULT_GRID_N = 1024


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a single check.

    ``empirical_lower`` and ``empirical_upper`` bracket the measured
    quantity (a ratio band, a constant across a refinement ladder).
    ``notes`` holds human-readable detail such as per-case bands and
    excluded samples; it never affects the verdict.
    """

    check_name: str
    params: dict
    empirical_lower: float
    empirical_upper: float
    verdict: str
    samples: int
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        lo, hi = self.empirical_lower, self.empirical_upper
        if math.isfinite(lo) and math.isfinite(hi) and lo > hi:
            raise ValueError("empirical_lower exceeds empirical_upper")
        object.__setattr__(self, "notes", tuple(str(n) for n in self.notes))

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "params": dict(self.params),
            "empirical_lower": self.empirical_lower,
            "empirical_upper": self.empirical_upper,
            "verdict": self.verdict,
            "samples": self.samples,
            "notes": list(self.notes),
        }


def _smoothstep(u):
    v = np.clip(u, 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


@dataclass(frozen=True)
class TestFamily:
    """Deterministic family of radial test vectors.

    Members are ordered along the family's probe direction, so a growth
    measurement across members is meaningful: dilates go from narrow to
    wide, cutoff scales shrink toward zero, bump centers move outward.
    Every family has ``FAMILY_MEMBERS`` members; dilate widths span
    ``DILATION_RANGE``.

    ``sigma`` is the singularity exponent of the cutoff family; when left
    unset it is resolved at evaluation time to ``delta - 0.01`` so the
    member profile tracks the near-zero-mode power law of the operator
    under test.  Cutoff scales run from ``CUTOFF_MAX`` down to ``eps``,
    which must lie in (0, ``CUTOFF_MAX``); cutoff members ramp down to
    zero between ``PLATEAU_OUTER`` and twice that radius.
    """

    tag: str
    sigma: Optional[float] = None
    eps: float = 1e-4

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise DomainError(f"unknown family tag {self.tag!r}; expected one of {FAMILY_TAGS}")
        if not (0.0 < self.eps < CUTOFF_MAX):
            raise DomainError(f"eps must lie in (0, {CUTOFF_MAX:g}), got {self.eps!r}")

    def members(self, grid: RadialGrid, delta: float = 0.0) -> Iterator[tuple]:
        """Yield ``(member_id, values_on_grid)`` pairs in probe order."""
        r = grid.nodes
        if self.tag == "gaussian-dilates":
            for lam in np.geomspace(*DILATION_RANGE, FAMILY_MEMBERS):
                yield f"lam={lam:.6g}", np.exp(-((r / lam) ** 2))
        elif self.tag == "singular-cutoff":
            sig = self.sigma if self.sigma is not None else delta - 0.01
            # probe direction is eps -> 0, so iterate eps descending
            for eps in np.geomspace(CUTOFF_MAX, self.eps, FAMILY_MEMBERS):
                ramp_in = _smoothstep(r / eps - 1.0)
                ramp_out = 1.0 - _smoothstep(r / PLATEAU_OUTER - 1.0)
                yield f"eps={eps:.6g}", r ** (-sig) * ramp_in * ramp_out
        else:
            for center in np.geomspace(0.05, 20.0, FAMILY_MEMBERS):
                arg = np.log(r / center)
                yield f"center={center:.6g}", np.exp(-(arg * arg) / (2.0 * 0.35**2))


def _grid_or_default(grid: Optional[RadialGrid], params: HardyParams) -> RadialGrid:
    if grid is not None:
        return grid
    return build_log_grid(params.d, DEFAULT_R_MIN, DEFAULT_R_MAX, DEFAULT_GRID_N)


def _report_params(params: HardyParams, grid: Optional[RadialGrid] = None, **extra) -> dict:
    out = {
        "d": params.d,
        "alpha": params.alpha,
        "a": params.a,
        "delta": params.delta,
    }
    if grid is not None:
        out.update({"grid_n": grid.n, "r_min": grid.r_min, "r_max": grid.r_max})
    out.update(extra)
    return out


def _weighted_coeffs(op, vec: np.ndarray) -> np.ndarray:
    return op.modes.T @ (op.grid.weights * vec)


def _power_norm(lam: np.ndarray, c: np.ndarray, s: float) -> float:
    """Weighted norm of the fractional power s/2 applied to the vector
    whose weighted coefficients (:func:`_weighted_coeffs`) in the
    eigenbasis of the eigenvalues ``lam`` are ``c``.  The eigenvalues are
    clamped to [0, inf) by the build, and 0**s = 0 for the s > 0 here."""
    return math.sqrt(float(np.sum(lam**s * c * c)))


# ---------------------------------------------------------------------------
# norm-equivalence sweep


def sweep_by_power(
    params: HardyParams,
    s_values: Sequence[float],
    family: TestFamily,
    grid: Optional[RadialGrid] = None,
    *,
    pass_bound: float = 1e3,
) -> tuple:
    """Two-sided norm comparison between the free and the coupled operator.

    Returns ``(rows, notes, reports)`` for the sweep CSV: the per-member
    ratio rows, each a dict keyed exactly by ``SWEEP_COLUMNS``, power by
    power in the order of ``s_values``; the notes on skipped degenerate
    members (zero or non-finite weighted norm on the grid); and one
    ``norm_ratio_sweep`` report per s.  Every power and ``pass_bound`` are
    checked before any operator is built, and each power norm is computed
    once.  The default grid is used for None.

    For each s the forward ratio ||T^{s/2} f|| / ||L^{s/2} f|| is expected
    to stay bounded when s < (d - 2 delta)/alpha and the backward ratio
    (its reciprocal) when s < d/alpha.  Outside a window the family is
    expected to exhibit growth by ``DIVERGING_FACTOR`` between its first
    and last member; absence of that growth is reported as a failure since
    the family then certifies nothing.

    The free and the coupled operator are built one at a time: the
    members' weighted coefficients and the eigenvalues are kept, and the
    modes are released before the next build.
    """
    s_list = [float(s) for s in s_values]
    if not s_list:
        raise DomainError("need at least one s value")
    for s in s_list:
        _check_power(s)
    _check_pass_bound(pass_bound)
    grid = _grid_or_default(grid, params)
    notes: list = []
    members = []
    for member_id, vec in family.members(grid, delta=params.delta):
        weight_norm = float(np.sum(grid.weights * vec * vec))
        if not math.isfinite(weight_norm) or weight_norm <= 0.0:
            notes.append(f"member {member_id} skipped: degenerate weighted norm")
            continue
        members.append((member_id, vec))

    def spectral_data(op) -> tuple:
        return op.eigenvalues, [_weighted_coeffs(op, vec) for _, vec in members]

    lam_free, coeffs_free = spectral_data(build_fractional_laplacian(grid, params.alpha))
    lam_full, coeffs_full = spectral_data(build_hardy_operator(grid, params))
    rows, reports = [], []
    for s in s_list:
        block = []
        for (member_id, _), c_free, c_full in zip(members, coeffs_free, coeffs_full):
            norm_free = _power_norm(lam_free, c_free, s)
            norm_full = _power_norm(lam_full, c_full, s)
            forward = norm_free / norm_full if norm_full > 0.0 else math.inf
            backward = norm_full / norm_free if norm_free > 0.0 else math.inf
            block.append(dict(zip(SWEEP_COLUMNS, (
                params.d, params.alpha, params.a, params.delta, s, family.tag, member_id,
                forward, backward))))
        rows.extend(block)
        reports.append(_sweep_verdict(params, s, family, grid, block, notes, pass_bound))
    return rows, notes, reports


def _check_power(s) -> float:
    """``s`` as a float, which must lie in (0, 2]."""
    s = float(s)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"s={s} outside (0, 2]")
    return s


def _check_pass_bound(pass_bound: float) -> None:
    # Ratios are positive, so a bound of 0 or below never passes, and a NaN
    # bound would pass every ratio: no comparison with NaN is true.
    if not pass_bound > 0.0:
        raise DomainError(f"pass_bound must be positive, got {pass_bound!r}")


def _sweep_verdict(params, s, family, grid, rows, notes, pass_bound):
    """The ``norm_ratio_sweep`` report of the power ``s`` on ``rows``, which
    hold every row of that power."""
    notes = list(notes)
    if not rows:
        return VerificationReport(
            check_name="norm_ratio_sweep",
            params=_report_params(params, grid, family=family.tag),
            empirical_lower=math.nan,
            empirical_upper=math.nan,
            verdict="fail",
            samples=0,
            notes=tuple(notes) + ("no valid family members on this grid",),
        )

    verdicts = []
    for label, column, limit in (
        ("forward", "ratio_forward", (params.d - 2.0 * params.delta) / params.alpha),
        ("backward", "ratio_backward", params.d / params.alpha),
    ):
        vals = [row[column] for row in rows]
        if s < limit:
            worst = max(vals)
            if worst > pass_bound or not math.isfinite(worst):
                verdicts.append("fail")
                notes.append(f"s={s} {label}: ratio {worst:.4g} exceeds bound {pass_bound:.4g}")
            else:
                verdicts.append("pass")
        else:
            growth = vals[-1] / vals[0] if vals[0] > 0.0 else math.inf
            if growth >= DIVERGING_FACTOR:
                verdicts.append("diverging")
                notes.append(f"s={s} {label}: outside window, ratio grew {growth:.4g}x along family")
            else:
                verdicts.append("fail")
                notes.append(
                    f"s={s} {label}: outside window but growth {growth:.4g}x "
                    f"below {DIVERGING_FACTOR:.4g}x, family inconclusive"
                )
    if "diverging" in verdicts:
        overall = "diverging"
    elif "fail" in verdicts:
        overall = "fail"
    else:
        overall = "pass"
    finite = [v for row in rows for v in (row["ratio_forward"], row["ratio_backward"]) if math.isfinite(v)]
    return VerificationReport(
        check_name="norm_ratio_sweep",
        params=_report_params(params, grid, family=family.tag, s_values=[s]),
        empirical_lower=min(finite) if finite else math.nan,
        empirical_upper=max(finite) if finite else math.nan,
        verdict=overall,
        samples=len(rows),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# refinement-ladder constants


def _ladder_verdict(values: Sequence[float]) -> str:
    vmin, vmax = min(values), max(values)
    if vmin <= 0.0 or not math.isfinite(vmax):
        return "fail"
    if vmax / vmin < STABLE_FACTOR:
        return "pass"
    if values[-1] / values[0] >= DIVERGING_FACTOR:
        return "diverging"
    return "fail"


def _ladder_report(check_name: str, params: HardyParams, s: float, r_min: float, r_max: float,
                   grid_n: int, values: Sequence[float], verdict: Optional[str] = None,
                   notes: Optional[tuple] = None) -> VerificationReport:
    """The report of a ladder on its rung ``values``, judged by :func:`_ladder_verdict`
    and noting the values unless ``verdict`` and ``notes`` are given."""
    return VerificationReport(
        check_name=check_name,
        params=_report_params(params, None, s=s, r_min=r_min, r_max=r_max, grid_n=grid_n),
        empirical_lower=min(values),
        empirical_upper=max(values),
        verdict=verdict or _ladder_verdict(values),
        samples=len(values),
        notes=notes or ("ladder: " + ", ".join(f"{v:.6g}" for v in values),),
    )


def _ladder_grids(params: HardyParams, s, n_refinements: int, r_min: float, r_max: float,
                  grid_n: int) -> tuple:
    """Check a ladder's s, then ``n_refinements``; return s as a float, the slot key and
    the rung grids (inner radius r_min / REFINE_FACTOR**k), each built as it is drawn."""
    s = _check_power(s)
    _check_count("n_refinements", n_refinements)
    grids = (build_log_grid(params.d, r_min * REFINE_FACTOR ** (-k), r_max, grid_n)
             for k in range(n_refinements + 1))
    return s, (params, n_refinements + 1, r_min, r_max, grid_n), grids


# One-slot memo: the latest ladder's key from _ladder_grids -> its Hardy rungs.
# Both ladders read it, so on the same parameters they share every Hardy eigh.
_ladder_slot: dict = {}


def _hardy_rungs(params: HardyParams, key: tuple, grids) -> tuple:
    """Hardy operators on the rung ``grids``, from the slot when it holds ``key``."""
    rungs = _ladder_slot.get(key)
    if rungs is None:
        # Release the previous ladder before building the next, so two
        # ladders' eigensystems are never held at once.
        _ladder_slot.clear()
        rungs = tuple(build_hardy_operator(grid, params) for grid in grids)
        _ladder_slot[key] = rungs
    return rungs


def _top_eigenvalue(matvec, n: int) -> float:
    """Largest eigenvalue of the symmetric positive semidefinite operator
    ``matvec`` on R^n, from matrix-vector products alone.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes per
    step; Parlett, The Symmetric Eigenvalue Problem, ch. 13) from a
    start vector of fixed seed 0, so equal operators give bitwise equal
    values.  The Ritz values of the k x k tridiagonal T_k come from
    ``eigvalsh``.  The last component y_k of the top Ritz vector comes
    from the backward three-term recurrence of T_k, which runs in the
    direction in which that eigenvector grows.  The iteration stops once
    the residual bound beta_k |y_k| is at most 1e-15 of the top Ritz
    value, or after n steps, where the Krylov space is exhausted and the
    Ritz value exact.  A rounding-level negative Ritz value is returned as
    0.0, and a zero operator gives exactly 0.0.
    """
    # Rows of the basis become resident only as they are written.
    basis = np.empty((n, n))
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    diag: list = []
    off: list = []  # off[j] couples Lanczos vectors j and j + 1
    for k in range(1, n + 1):
        q = basis[k - 1]
        w = matvec(q)
        diag.append(float(q @ w))
        done = basis[:k]
        for _ in range(2):
            w = w - done.T @ (done @ w)
        # np.linalg.norm squares unscaled, which under- or overflows for
        # vectors of norm beyond about 1e+-154.
        peak = float(np.max(np.abs(w)))
        beta = peak * float(np.linalg.norm(w / peak)) if peak > 0.0 else 0.0
        off.append(beta)
        inner = off[:-1]
        tri = np.diag(diag) + np.diag(inner, 1) + np.diag(inner, -1)
        theta = float(np.linalg.eigvalsh(tri)[-1])
        # Top eigenvector y of T_k scaled to y_k = 1, so |y_k| = 1 / ||y||.
        y_next, y, norm_sq = 0.0, 1.0, 1.0
        for j in range(k - 1, 0, -1):
            y_next, y = y, ((theta - diag[j]) * y - off[j] * y_next) / off[j - 1]
            norm_sq += y * y
        if k == n or beta <= 1e-15 * abs(theta) * math.sqrt(norm_sq):
            break
        basis[k] = w / beta
    return theta if theta > 0.0 else 0.0


def _cut_count(lam: np.ndarray) -> int:
    # Exclude the numerically-zero subspace: at the critical coupling the
    # construction carries an exact kernel vector whose eigenvalue lands
    # at rounding level, far below any genuine excited level.  The
    # spectrum ascends, so the cut modes are its first ones.
    return int(np.searchsorted(lam, 1e-15 * float(lam[-1]), side="right"))


def _generalized_rung(op, params: HardyParams, s: float) -> tuple:
    """The rung's constant and the number of modes it cuts."""
    grid = op.grid
    lam = op.eigenvalues
    cut = _cut_count(lam)
    row_scale = np.sqrt(grid.weights) * grid.nodes ** (-0.5 * params.alpha * s)
    y_mat = op.modes[:, cut:] * row_scale[:, None]
    y_mat *= lam[cut:] ** (-0.5 * s)
    top = _top_eigenvalue(lambda x: y_mat.T @ (y_mat @ x), y_mat.shape[1])
    return math.sqrt(top), cut


def generalized_hardy_constant(
    params: HardyParams,
    s: float,
    n_refinements: int = 3,
    *,
    r_min: float = DEFAULT_R_MIN,
    r_max: float = DEFAULT_R_MAX,
    grid_n: int = DEFAULT_GRID_N,
) -> VerificationReport:
    """Best constant C in ||r^{-alpha s/2} f|| <= C ||L^{s/2} f||.

    Measured as the square root of the largest eigenvalue of the weighted
    resolvent power restricted to the strictly positive spectral subspace,
    on a ladder of grids whose inner radius shrinks by ``REFINE_FACTOR``
    per refinement.  A ladder whose values stay within ``STABLE_FACTOR``
    of each other passes; growth by ``DIVERGING_FACTOR`` between the
    first and last rung is the expected signature above the critical
    exponent.

    That eigenvalue is the top of ``Y.T @ Y``, with ``Y`` the n x m matrix
    of the kept modes scaled by ``r^{-alpha s/2}`` and ``lam^{-s/2}``.  It
    is found by Lanczos iteration (:func:`_top_eigenvalue`) from products
    with ``Y`` and ``Y.T``; the m x m Gram matrix is never formed.

    The subspace cut, 1e-15 of the spectral radius, is meant to sit
    between the rounding-level kernel eigenvalue and the lowest genuine
    excited level (set by the outer radius, around 1e-3 for the default
    box).  The spectral radius grows like ``r_min**-alpha``, so on the
    default ladder that holds at alpha = 1 but not at large alpha.  At
    d = 3 and a = -0.9 H the cut removes no eigenvalue on any rung at
    alpha = 1; at alpha = 1.9 it removes 1, 63, 254 and 382 of the 1024 on
    rungs 0 to 3, of which 0, 3, 14 and 23 are negative rounding that the
    construction clamped to zero.  The deep rungs at large alpha then
    measure the constant on a subspace that lacks part of the physical
    spectrum.

    The guard: a rung that cuts more eigenvalues than the exact kernel
    vector (one at ``a == a_star``, none otherwise) measures the constant
    on part of the spectrum only.  A ladder with such a rung does not pass:
    its ``pass`` becomes ``fail``, and a note names the rungs and their
    cut counts.

    The rungs' Hardy eigensystems are kept in a one-slot memo keyed by
    ``(params, n_refinements + 1, r_min, r_max, grid_n)``
    and shared with :func:`reverse_hardy_constant`.  The slot holds
    ``(n_refinements + 1) * grid_n**2`` doubles (34 MB at the defaults)
    and is released when a ladder with a different key is requested,
    before that ladder is built.
    """
    s, key, grids = _ladder_grids(params, s, n_refinements, r_min, r_max, grid_n)
    values, cuts = zip(*(_generalized_rung(op, params, s)
                         for op in _hardy_rungs(params, key, grids)))
    report = _ladder_report("generalized_hardy_constant", params, s, r_min, r_max, grid_n, values)
    allowed = 1 if params.a == params.a_star else 0
    over = {k: c for k, c in enumerate(cuts) if c > allowed}
    if not over:
        return report
    note = (f"untrusted: rungs {', '.join(map(str, over))} cut "
            f"{', '.join(map(str, over.values()))} eigenvalues at or below 1e-15 of the "
            f"spectral radius, {allowed} allowed")
    return replace(report, verdict="fail" if report.verdict == "pass" else report.verdict,
                   notes=report.notes + (note,))


def _sym_power_matrix(op, s: float) -> np.ndarray:
    # Gram form B @ B.T: a symmetric rank-k update, exactly symmetric.  The
    # build clamps the eigenvalues to [0, inf), and 0**p = 0 for p > 0.
    b_mat = op.modes * np.sqrt(op.grid.weights)[:, None]
    b_mat *= op.eigenvalues ** (0.25 * s)
    return b_mat @ b_mat.T


def _reverse_rung_value(full, params: HardyParams, s: float) -> float:
    grid = full.grid
    free = build_fractional_laplacian(grid, params.alpha)
    right = grid.nodes ** (0.5 * params.alpha * s)
    diff_mat = _sym_power_matrix(full, s)
    diff_mat -= _sym_power_matrix(free, s)
    top = _top_eigenvalue(lambda x: right * (diff_mat @ (diff_mat @ (right * x))), grid.n)
    return math.sqrt(top)


def reverse_hardy_constant(
    params: HardyParams,
    s: float,
    n_refinements: int = 3,
    *,
    r_min: float = DEFAULT_R_MIN,
    r_max: float = DEFAULT_R_MAX,
    grid_n: int = DEFAULT_GRID_N,
) -> VerificationReport:
    """Best constant C in ||(L^{s/2} - T^{s/2}) f|| <= C ||r^{-alpha s/2} f||.

    At s = 2 the difference of the operators is exactly the coupling
    diagonal a r^{-alpha}, which the weight r^{alpha} undoes, so the
    constant is |a| on every rung, returned in closed form; the rungs'
    boxes are still validated.  At a = 0 the two operators coincide,
    every rung is exactly 0 and the ladder passes at once.  Other s go
    through the spectral calculus.  The rungs and the verdict follow
    :func:`generalized_hardy_constant`.

    For fractional s the constant is the square root of the largest
    eigenvalue of ``W.T @ W``, where ``W = D r^{alpha s/2}`` and ``D`` is
    the difference of the two power matrices.  It is found by Lanczos
    iteration (:func:`_top_eigenvalue`) from products with ``D`` and the
    diagonal weight; ``W`` and its Gram matrix are never formed.

    The Hardy eigensystems L come from the same one-slot memo as
    :func:`generalized_hardy_constant`, so after that function on the same
    parameters and ladder only the free eigensystem T is computed per
    rung, and released with the rung.  The closed-form cases, s = 2 and
    a = 0, build no eigensystem and leave the memo alone.
    """
    s, key, grids = _ladder_grids(params, s, n_refinements, r_min, r_max, grid_n)
    # In the closed forms each rung's grid only checks its box, as a build's would.
    if params.a == 0.0:
        return _ladder_report("reverse_hardy_constant", params, s, r_min, r_max, grid_n,
                              [0.0 for _ in grids], "pass",
                              ("coupling is zero, difference operator vanishes",))
    if s == 2.0:
        values = [abs(params.a) for _ in grids]
    else:
        values = [_reverse_rung_value(full, params, s)
                  for full in _hardy_rungs(params, key, grids)]
    return _ladder_report("reverse_hardy_constant", params, s, r_min, r_max, grid_n, values)


# ---------------------------------------------------------------------------
# kernel-level checks


def _admissible_times(grid: RadialGrid, alpha: float, t_values: Sequence[float], notes: list) -> list:
    lo = 10.0 * grid.r_min**alpha
    hi = grid.r_max**alpha / 10.0
    kept = []
    for t in t_values:
        t = float(t)
        if t <= 0.0:
            raise DomainError("t values must be positive")
        if lo <= t <= hi:
            kept.append(t)
        else:
            notes.append(f"t={t:.6g} outside reliable window [{lo:.3g}, {hi:.3g}], excluded")
    if not kept:
        raise DomainError("no t values inside the reliable window of this grid")
    return kept


def _check_band_bound(band_bound: float) -> None:
    # C/c >= 1 for every band, so a bound below 1 could never pass.
    if not band_bound >= 1.0:
        raise DomainError(
            f"band_bound must be >= 1, since C/c is never below 1; got {band_bound!r}"
        )


def _interior_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    lo, hi = n // 4, 3 * n // 4
    return rng.integers(lo, hi, size=(count, 2))


def _pair_average(profile, t: float, params: HardyParams, rx: np.ndarray,
                  ry: np.ndarray) -> np.ndarray:
    """Angular averages of ``profile(t, triple, params)`` at every pair of
    radii, in one call: the triple holds the radii as (m, 1) columns
    against the (m, ANGULAR_NODES) chords."""
    return angular_average(
        lambda chords: profile(t, KernelTriple(rx[:, None], ry[:, None], chords), params),
        rx,
        ry,
        params.d,
    )


def _usable(values: np.ndarray, pairs: np.ndarray, what: str, t: float, notes: list) -> np.ndarray:
    """Mask of the positive finite values; a note for each pair it drops."""
    usable = (values > 0.0) & np.isfinite(values)
    for i, j in pairs[~usable].tolist():
        notes.append(f"{what} degenerate at t={t:.3g}, pair ({i}, {j}); skipped")
    return usable


def heat_sandwich_by_time(
    params: HardyParams,
    t_values: Sequence[float],
    sample_pairs: int = 200,
    *,
    grid: Optional[RadialGrid] = None,
    seed: int = 0,
    band_bound: float = 100.0,
) -> Iterator[VerificationReport]:
    """Two-sided comparison of the discrete heat kernel with its profile,
    one ``heat_sandwich_check`` report per time.

    Yields, for each t of ``t_values`` in order, the report at that time
    alone, all from one Hardy operator built at the first admissible time.
    Each report samples ``sample_pairs`` interior node pairs from a fresh
    ``default_rng(seed)``, computes only those kernel entries,
    angular-averages the comparison profile over the chord distance for
    all pairs at once, and reports the min/max of kernel/profile.  It
    passes when every sampled entry is positive and the band has C/c <=
    ``band_bound``, which must be at least 1.

    Each report is yielded before the next time is looked at, so a time
    outside the grid's reliable window, or not positive, raises its
    DomainError after the reports of the times before it.

    The comparison profile carries unspecified structural constants, so
    the band is informative only through its width.  The one exception is
    zero coupling at alpha = 1, where the exact Poisson kernel is
    available and the ratio band hugs 1.
    """
    _check_count("sample_pairs", sample_pairs)
    _check_band_bound(band_bound)
    grid = _grid_or_default(grid, params)
    op = None
    for t in t_values:
        notes: list = []
        [t] = _admissible_times(grid, params.alpha, [t], notes)
        if op is None:
            op = build_hardy_operator(grid, params)
        yield _heat_report(op, params, t, sample_pairs, seed, band_bound, notes)


def _heat_report(op, params: HardyParams, t: float, sample_pairs: int, seed: int,
                 band_bound: float, notes: list) -> VerificationReport:
    """The ``heat_sandwich_check`` report of ``op`` at the admissible time
    ``t``; ``notes`` holds the notes made before."""
    grid = op.grid
    pairs = _interior_pairs(np.random.default_rng(seed), grid.n, sample_pairs)
    entries = heat_kernel_matrix(op, t, pairs)
    rx, ry = grid.nodes[pairs[:, 0]], grid.nodes[pairs[:, 1]]
    if params.a == 0.0 and params.alpha == 1.0:
        profile = poisson_radial_average(t, rx, ry, params.d)
    else:
        profile = _pair_average(hardy_heat_profile, t, params, rx, ry)
    usable = _usable(profile, pairs, "profile", t, notes)
    ratios = entries[usable] / profile[usable]
    if not ratios.size:
        raise DomainError("all sampled pairs were degenerate")
    c_low, c_high = float(ratios.min()), float(ratios.max())
    ok = c_low > 0.0 and math.isfinite(c_high) and c_high / c_low <= band_bound
    notes.append(f"band C/c = {c_high / c_low if c_low > 0 else math.inf:.4g} over {len(ratios)} samples")
    return VerificationReport(
        check_name="heat_sandwich_check",
        params=_report_params(params, grid, t_values=[t]),
        empirical_lower=c_low,
        empirical_upper=c_high,
        verdict="pass" if ok else "fail",
        samples=len(ratios),
        notes=tuple(notes),
    )


def _envelope(t: float, q: KernelTriple, params: HardyParams):
    return l_envelope(t, q, params) + m_envelope(t, q, params)


def _sampled_entries(op, draws: list) -> list:
    """The heat kernel entries of ``op`` at each ``(t, pairs)`` of ``draws``."""
    return [heat_kernel_matrix(op, t, pairs) for t, pairs in draws]


def _difference_ratio_sup(
    params: HardyParams,
    subtract_params: HardyParams,
    env_params: HardyParams,
    times: Sequence[float],
    sample_pairs: int,
    grid: RadialGrid,
    seed: int,
    potential: Optional[PotentialSpec],
    nonnegative: bool,
    notes: list,
) -> tuple:
    """Sup of |difference kernel| / envelope over sampled interior pairs.

    Returns ``(sup_ratio, sign_violation, usable)``: the sign violation is the
    worst entry of the wrong sign, < 0 if ``nonnegative`` and > 0 otherwise (0.0
    when clean); ``usable`` counts the pairs with a positive finite envelope.
    A pass without a usable pair raises DomainError.

    Every time's pairs are drawn first.  The upper operator (free, or the
    potential one) and then the lower Hardy operator are built, and each
    is released once its sampled heat kernel entries at every time are
    computed, so at most one eigensystem is held at a time.
    """
    rng = np.random.default_rng(seed)
    draws = [(t, _interior_pairs(rng, grid.n, sample_pairs)) for t in times]
    if potential is None:
        upper = _sampled_entries(build_fractional_laplacian(grid, params.alpha), draws)
    else:
        upper = _sampled_entries(
            build_potential_operator(grid, params.alpha, potential), draws)
    lower = _sampled_entries(build_hardy_operator(grid, subtract_params), draws)
    sup_ratio = 0.0
    violation = 0.0
    n_usable = 0
    for (t, pairs), upper_entries, lower_entries in zip(draws, upper, lower):
        diff = upper_entries - lower_entries
        violation = (min(violation, float(diff.min())) if nonnegative
                     else max(violation, float(diff.max())))
        rx, ry = grid.nodes[pairs[:, 0]], grid.nodes[pairs[:, 1]]
        env = _pair_average(_envelope, t, env_params, rx, ry)
        usable = _usable(env, pairs, "envelope", t, notes)
        n_usable += int(usable.sum())
        if usable.any():
            sup_ratio = max(sup_ratio, float(np.max(np.abs(diff[usable]) / env[usable])))
    if not n_usable:
        raise DomainError("all sampled pairs were degenerate")
    return sup_ratio, violation, n_usable


def difference_envelope_check(
    params: HardyParams,
    t_values: Sequence[float],
    sample_pairs: int = 200,
    *,
    potential: Optional[PotentialSpec] = None,
    grid: Optional[RadialGrid] = None,
    seed: int = 0,
) -> VerificationReport:
    """Envelope bound on the difference of heat kernels.

    Without a potential the difference is (free kernel) - (coupled kernel);
    its entries must carry the sign of the coupling.  With a potential
    sandwiched between two inverse-power couplings, the difference against
    the weaker coupling's kernel is compared instead and must be
    nonnegative, up to ``SIGN_SLACK``.  The sup of |difference| / envelope
    must be finite and move by at most ``STABLE_FACTOR`` when the inner
    grid radius shrinks tenfold.

    Each time draws ``sample_pairs`` interior node pairs; only those
    entries of the two heat kernels are computed, and the envelope is
    angular-averaged for all pairs at once.  ``samples`` counts the pairs
    with a usable (positive finite) envelope over both passes; a pass
    with none raises DomainError.

    The refined pass runs first.  Each pass builds its two operators one
    at a time and releases each eigensystem before the next build, so the
    check holds at most one eigensystem at a time.

    The envelope is always evaluated with the exponent of the stronger
    (lower) coupling: the potential's difference kernel sits inside the
    gap between the two comparison kernels, and the gap's small-radius
    weight is set by the more singular of the two.
    """
    _check_count("sample_pairs", sample_pairs)
    grid = _grid_or_default(grid, params)
    notes: list = []
    times = _admissible_times(grid, params.alpha, t_values, notes)
    subtract_params = env_params = params
    if potential is not None:
        subtract_params = make_params(params.d, params.alpha, potential.a_tilde)
        env_params = make_params(params.d, params.alpha, potential.a)

    if potential is None and params.a == 0.0:
        return VerificationReport(
            check_name="difference_envelope_check",
            params=_report_params(params, grid, t_values=times),
            empirical_lower=0.0,
            empirical_upper=0.0,
            verdict="pass",
            samples=0,
            notes=tuple(notes) + ("coupling is zero, difference kernel vanishes identically",),
        )

    # A repulsive coupling lowers the coupled kernel below the free one,
    # and V <= a_tilde r^{-alpha} makes the potential kernel dominate.
    nonnegative = potential is not None or params.a > 0.0
    # The refined pass runs first.  Each pass releases each of its two
    # eigensystems before the next build, and the refined grid is released
    # when its pass returns; its notes follow the base pass's.
    fine_notes: list = []
    sup_fine, viol_fine, used_fine = _difference_ratio_sup(
        params, subtract_params, env_params, times, sample_pairs,
        build_log_grid(grid.d, grid.r_min / 10.0, grid.r_max, grid.n), seed, potential,
        nonnegative, fine_notes
    )
    sup_base, viol_base, used_base = _difference_ratio_sup(
        params, subtract_params, env_params, times, sample_pairs, grid, seed, potential,
        nonnegative, notes
    )
    notes.extend(fine_notes)
    worst_violation = max(viol_base, viol_fine, key=abs)
    sign_ok = abs(worst_violation) <= SIGN_SLACK
    if not sign_ok:
        notes.append(f"entrywise sign violation {worst_violation:.3e} beyond slack {SIGN_SLACK:.1e}")
    lo, hi = sorted((sup_base, sup_fine))
    stable = math.isfinite(hi) and (lo == 0.0 and hi == 0.0 or (lo > 0.0 and hi / lo <= STABLE_FACTOR))
    if not stable:
        notes.append(f"sup ratio moved from {sup_base:.4g} to {sup_fine:.4g} under refinement")
    notes.append(f"sup|K_diff|/envelope: base {sup_base:.6g}, refined {sup_fine:.6g}")
    return VerificationReport(
        check_name="difference_envelope_check",
        params=_report_params(params, grid, t_values=times),
        empirical_lower=lo,
        empirical_upper=hi,
        verdict="pass" if (sign_ok and stable) else "fail",
        samples=used_base + used_fine,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# pointwise kernel identity (time integral vs closed profile)


def riesz_equivalence_check(
    params: HardyParams,
    s: float,
    n_triples: int = 200,
    *,
    seed: int = 0,
    band_bound: float = 50.0,
) -> VerificationReport:
    """Ratio of the kernel time integral to the closed comparison profile.

    Samples random geometric triples (two radii, log-uniform over
    ``RIESZ_DECADES`` decades either side of 1, and an enclosed angle),
    splits them by lambda = min(rx, ry)/rxy at 1/4, and requires the ratio
    band within each sampled case to satisfy C/c <= ``band_bound`` (at
    least 1).  The triples form one array triple, so the profile is one
    call and the time integrals are one batch; an s outside the
    convergence window is rejected there, before any integral starts.
    """
    s = float(s)
    _check_count("n_triples", n_triples, least=2)
    _check_band_bound(band_bound)
    # One draw for all triples, scaled as Generator.uniform scales it; row k
    # is the k-th triple whatever n_triples is.
    draws = np.random.default_rng(seed).random((n_triples, 3))
    rx, ry = (10.0 ** (-RIESZ_DECADES + 2.0 * RIESZ_DECADES * draws[:, :2])).T
    mu = -1.0 + 2.0 * draws[:, 2]
    q = KernelTriple(rx, ry, np.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - mu)))
    profiles = riesz_profile(s, q, params)
    ratios = riesz_time_integral(s, q, params) / profiles
    near = np.minimum(q.rx, q.ry) / q.rxy >= 0.25
    notes = []
    ok = True
    for label, case in (("lam>=1/4", ratios[near]), ("lam<=1/4", ratios[~near])):
        if not case.size:
            notes.append(f"case {label}: no samples drawn")
            continue
        c_low, c_high = float(case.min()), float(case.max())
        spread = c_high / c_low if c_low > 0.0 else math.inf
        notes.append(f"case {label}: n={case.size}, band [{c_low:.6g}, {c_high:.6g}], C/c={spread:.4g}")
        if not (c_low > 0.0 and math.isfinite(c_high) and spread <= band_bound):
            ok = False
    return VerificationReport(
        check_name="riesz_equivalence_check",
        params=_report_params(params, None, s=s, n_triples=n_triples, seed=seed),
        empirical_lower=float(ratios.min()),
        empirical_upper=float(ratios.max()),
        verdict="pass" if ok else "fail",
        samples=ratios.size,
        notes=tuple(notes),
    )
