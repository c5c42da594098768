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
vanishing difference kernel), which is what the CLI suite uses as smoke
coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    riesz_exponent_window,
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
from .specfun import HardyParams, make_params

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

    ``sigma`` is the singularity exponent of the cutoff family; when left
    unset it is resolved at evaluation time to ``delta - 0.01`` so the
    member profile tracks the near-zero-mode power law of the operator
    under test.  Cutoff members ramp down to zero between
    ``PLATEAU_OUTER`` and twice that radius.
    """

    tag: str
    n_members: int = 8
    dilation_range: tuple = (0.25, 4.0)
    sigma: Optional[float] = None
    eps_range: tuple = (1e-4, 3e-2)

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise DomainError(f"unknown family tag {self.tag!r}; expected one of {FAMILY_TAGS}")
        if self.n_members < 2:
            raise DomainError("a family needs at least two members")
        for name in ("dilation_range", "eps_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo < hi) or not math.isfinite(hi):
                raise DomainError(f"{name} must be an increasing pair of positive reals")

    def members(self, grid: RadialGrid, delta: float = 0.0) -> Iterator[tuple]:
        """Yield ``(member_id, values_on_grid)`` pairs in probe order."""
        r = grid.nodes
        if self.tag == "gaussian-dilates":
            lo, hi = self.dilation_range
            for lam in np.geomspace(lo, hi, self.n_members):
                yield f"lam={lam:.6g}", np.exp(-((r / lam) ** 2))
        elif self.tag == "singular-cutoff":
            sig = self.sigma if self.sigma is not None else delta - 0.01
            # probe direction is eps -> 0, so iterate eps descending
            for eps in np.geomspace(self.eps_range[1], self.eps_range[0], self.n_members):
                ramp_in = _smoothstep(r / eps - 1.0)
                ramp_out = 1.0 - _smoothstep(r / PLATEAU_OUTER - 1.0)
                yield f"eps={eps:.6g}", r ** (-sig) * ramp_in * ramp_out
        else:
            for center in np.geomspace(0.05, 20.0, self.n_members):
                arg = np.log(r / center)
                yield f"center={center:.6g}", np.exp(-(arg * arg) / (2.0 * 0.35**2))


def _default_grid(params: HardyParams) -> RadialGrid:
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


def _power_norm(op, vec: np.ndarray, s: float) -> float:
    """Weighted norm of the fractional power s/2 applied to ``vec``."""
    c = _weighted_coeffs(op, vec)
    lam = op.eigenvalues
    scale = np.zeros_like(lam)
    pos = lam > 0.0
    scale[pos] = lam[pos] ** s
    return math.sqrt(float(np.sum(scale * c * c)))


# ---------------------------------------------------------------------------
# norm-equivalence sweep


def sweep_rows(
    params: HardyParams,
    s_values: Sequence[float],
    family: TestFamily,
    grid: Optional[RadialGrid] = None,
) -> tuple:
    """Compute per-member ratio rows for the sweep CSV.

    Returns ``(rows, notes)`` where each row is a dict keyed exactly by
    ``SWEEP_COLUMNS``, power by power in the order of ``s_values``.
    Degenerate members (zero or non-finite weighted norm on the grid) are
    skipped and recorded in ``notes``.
    """
    if grid is None:
        grid = _default_grid(params)
    blocks, notes = _rows_by_power(params, s_values, family, grid)
    return [row for block in blocks for row in block], notes


def _rows_by_power(params, s_values, family, grid) -> tuple:
    """``(blocks, notes)``: one list of :func:`sweep_rows` rows per s."""
    free = build_fractional_laplacian(grid, params.alpha)
    full = build_hardy_operator(grid, params)
    notes: list = []
    members = []
    for member_id, vec in family.members(grid, delta=params.delta):
        weight_norm = float(np.sum(grid.weights * vec * vec))
        if not math.isfinite(weight_norm) or weight_norm <= 0.0:
            notes.append(f"member {member_id} skipped: degenerate weighted norm")
            continue
        members.append((member_id, vec))
    blocks = []
    for s in s_values:
        s = float(s)
        rows = []
        for member_id, vec in members:
            norm_free = _power_norm(free, vec, s)
            norm_full = _power_norm(full, vec, s)
            forward = norm_free / norm_full if norm_full > 0.0 else math.inf
            backward = norm_full / norm_free if norm_free > 0.0 else math.inf
            rows.append(
                {
                    "d": params.d,
                    "alpha": params.alpha,
                    "a": params.a,
                    "delta": params.delta,
                    "s": s,
                    "family": family.tag,
                    "member_id": member_id,
                    "ratio_forward": forward,
                    "ratio_backward": backward,
                }
            )
        blocks.append(rows)
    return blocks, notes


def norm_ratio_sweep(
    params: HardyParams,
    s_values: Sequence[float],
    family: TestFamily,
    grid: Optional[RadialGrid] = None,
    *,
    pass_bound: float = 1e3,
) -> VerificationReport:
    """Two-sided norm comparison between the free and the coupled operator.

    For each s the forward ratio ||T^{s/2} f|| / ||L^{s/2} f|| is expected
    to stay bounded when s < (d - 2 delta)/alpha and the backward ratio
    (its reciprocal) when s < d/alpha.  Outside a window the family is
    expected to exhibit growth by ``DIVERGING_FACTOR`` between its first
    and last member; absence of that growth is reported as a failure since
    the family then certifies nothing.
    """
    s_list = _sweep_powers(s_values)
    if grid is None:
        grid = _default_grid(params)
    rows, notes = sweep_rows(params, s_list, family, grid)
    return _sweep_verdict(params, s_list, family, grid, rows, notes, pass_bound)


def sweep_by_power(
    params: HardyParams,
    s_values: Sequence[float],
    family: TestFamily,
    grid: Optional[RadialGrid] = None,
    *,
    pass_bound: float = 1e3,
) -> tuple:
    """``(rows, notes, reports)``: the :func:`sweep_rows` rows and notes,
    and for each s the report ``norm_ratio_sweep(params, [s], ...)``
    gives, with each power norm computed once.  Every s is checked before
    any norm is computed."""
    s_list = _sweep_powers(s_values)
    if grid is None:
        grid = _default_grid(params)
    blocks, notes = _rows_by_power(params, s_list, family, grid)
    reports = [
        _sweep_verdict(params, [s], family, grid, block, notes, pass_bound)
        for s, block in zip(s_list, blocks)
    ]
    return [row for block in blocks for row in block], notes, reports


def _sweep_powers(s_values: Sequence[float]) -> list:
    s_list = [float(s) for s in s_values]
    if not s_list:
        raise DomainError("need at least one s value")
    for s in s_list:
        if not (0.0 < s <= 2.0):
            raise DomainError(f"s={s} outside (0, 2]")
    return s_list


def _sweep_verdict(params, s_list, family, grid, rows, notes, pass_bound):
    """The :func:`norm_ratio_sweep` report on ``rows``, which hold every
    row of exactly the powers ``s_list``."""
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

    forward_limit = (params.d - 2.0 * params.delta) / params.alpha
    backward_limit = params.d / params.alpha
    verdicts = []
    for s in s_list:
        fwd = [row["ratio_forward"] for row in rows if row["s"] == s]
        bwd = [row["ratio_backward"] for row in rows if row["s"] == s]
        for label, vals, limit in (
            ("forward", fwd, forward_limit),
            ("backward", bwd, backward_limit),
        ):
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
        params=_report_params(params, grid, family=family.tag, s_values=s_list),
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


# One-slot memo of the Hardy eigensystems of the latest ladder: at most one
# entry, (params, n_rungs, r_min, r_max, grid_n) -> tuple of
# SpectralOperators, one per rung.  Both ladder functions read their rungs
# from it, so a generalized and a reverse ladder on the same parameters
# share every Hardy eigh.
_ladder_slot: dict = {}


def _hardy_rung(params: HardyParams, r_min: float, r_max: float, grid_n: int):
    op = build_hardy_operator(build_log_grid(params.d, r_min, r_max, grid_n), params)
    # The slot keeps the eigensystem only; the assembled free matrix
    # (n^2 doubles per rung) would otherwise live on with the rung's grid.
    op.grid._cache.pop(("free_sym", op.alpha), None)
    return op


def _hardy_rungs(params: HardyParams, n_rungs: int, r_min: float, r_max: float,
                 grid_n: int) -> tuple:
    """Hardy operators on the ladder's rungs, inner radius r_min / REFINE_FACTOR**k."""
    key = (params, n_rungs, r_min, r_max, grid_n)
    rungs = _ladder_slot.get(key)
    if rungs is None:
        # Release the previous ladder before building the next, so two
        # ladders' eigensystems are never held at once.
        _ladder_slot.clear()
        rungs = tuple(
            _hardy_rung(params, r_min * REFINE_FACTOR ** (-k), r_max, grid_n)
            for k in range(n_rungs)
        )
        _ladder_slot[key] = rungs
    return rungs


def _generalized_rung_value(op, params: HardyParams, s: float) -> float:
    grid = op.grid
    lam = op.eigenvalues
    # Exclude the numerically-zero subspace: at the critical coupling the
    # construction carries an exact kernel vector whose eigenvalue lands
    # at rounding level, far below any genuine excited level.
    cut = 1e-15 * float(lam.max())
    keep = lam > cut
    # Y.T @ Y runs as a symmetric rank-k update, exactly symmetric.
    row_scale = np.sqrt(grid.weights) * grid.nodes ** (-0.5 * params.alpha * s)
    y_mat = op.modes[:, keep] * row_scale[:, None] * lam[keep] ** (-0.5 * s)
    top = float(np.linalg.eigvalsh(y_mat.T @ y_mat)[-1])
    return math.sqrt(max(top, 0.0))


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

    The subspace cut must sit between the rounding-level kernel eigenvalue
    and the lowest genuine excited level (set by the outer radius, around
    1e-3 for the default box).  1e-15 of the spectral radius keeps orders
    of margin on both sides down the default ladder; ladders much deeper
    than ``r_min * REFINE_FACTOR**-4`` would push the cut into the
    physical spectrum and need this revisited.

    The rungs' Hardy eigensystems are kept in a one-slot memo keyed by
    ``(params, n_refinements + 1, r_min, r_max, grid_n)``
    and shared with :func:`reverse_hardy_constant`.  The slot holds
    ``(n_refinements + 1) * grid_n**2`` doubles (34 MB at the defaults)
    and is released when a ladder with a different key is requested,
    before that ladder is built.
    """
    s = float(s)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"s={s} outside (0, 2]")
    if n_refinements < 1:
        raise DomainError("need at least one refinement")
    rungs = _hardy_rungs(params, n_refinements + 1, r_min, r_max, grid_n)
    values = [_generalized_rung_value(op, params, s) for op in rungs]
    verdict = _ladder_verdict(values)
    ladder = ", ".join(f"{v:.6g}" for v in values)
    return VerificationReport(
        check_name="generalized_hardy_constant",
        params=_report_params(params, None, s=s, r_min=r_min, r_max=r_max, grid_n=grid_n),
        empirical_lower=min(values),
        empirical_upper=max(values),
        verdict=verdict,
        samples=len(values),
        notes=(f"ladder: {ladder}",),
    )


def _sym_power_matrix(op, s: float) -> np.ndarray:
    lam = op.eigenvalues
    scale = np.zeros_like(lam)
    pos = lam > 0.0
    scale[pos] = lam[pos] ** (0.25 * s)
    # Gram form B @ B.T: a symmetric rank-k update, exactly symmetric.
    b_mat = op.modes * np.sqrt(op.grid.weights)[:, None] * scale
    return b_mat @ b_mat.T


def _reverse_rung_value(full, params: HardyParams, s: float) -> float:
    grid = full.grid
    if params.a == 0.0:
        free = full
    else:
        twin = build_log_grid(grid.d, grid.r_min, grid.r_max, grid.n)
        free = build_fractional_laplacian(twin, params.alpha)
    right = grid.nodes ** (0.5 * params.alpha * s)
    diff_mat = _sym_power_matrix(full, s) - _sym_power_matrix(free, s)
    weighted = diff_mat * right[None, :]
    top = float(np.linalg.eigvalsh(weighted.T @ weighted)[-1])
    return math.sqrt(max(top, 0.0))


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
    diagonal, so the constant is |a| independent of the grid; that case is
    evaluated from the assembled matrices directly because routing the
    identity map through an eigendecomposition only adds reconstruction
    noise.  Fractional s goes through the spectral calculus.  The rungs
    and the verdict follow :func:`generalized_hardy_constant`.

    The Hardy eigensystems L come from the same one-slot memo as
    :func:`generalized_hardy_constant`, so after that function on the same
    parameters and ladder only the free eigensystem T is computed per
    rung, on a grid of its own that is released with the rung.  At zero
    coupling the Hardy rung serves as T, which makes the ladder exactly
    zero.  The s = 2 case builds no eigensystem and leaves the memo alone.
    """
    s = float(s)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"s={s} outside (0, 2]")
    if n_refinements < 1:
        raise DomainError("need at least one refinement")
    if s == 2.0:
        values = []
        for k in range(n_refinements + 1):
            r = build_log_grid(params.d, r_min * REFINE_FACTOR ** (-k), r_max, grid_n).nodes
            values.append(float(np.max(np.abs(params.a * r ** (-params.alpha) * r ** params.alpha))))
    else:
        rungs = _hardy_rungs(params, n_refinements + 1, r_min, r_max, grid_n)
        values = [_reverse_rung_value(full, params, s) for full in rungs]
    if params.a == 0.0:
        # difference operator vanishes identically; the ladder is all zeros
        verdict = "pass" if max(values) == 0.0 else "fail"
        notes = ("coupling is zero, difference operator vanishes",)
    else:
        verdict = _ladder_verdict(values)
        notes = ("ladder: " + ", ".join(f"{v:.6g}" for v in values),)
    return VerificationReport(
        check_name="reverse_hardy_constant",
        params=_report_params(params, None, s=s, r_min=r_min, r_max=r_max, grid_n=grid_n),
        empirical_lower=min(values),
        empirical_upper=max(values),
        verdict=verdict,
        samples=len(values),
        notes=notes,
    )


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
    return kept


def _interior_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    lo, hi = n // 4, 3 * n // 4
    return rng.integers(lo, hi, size=(count, 2))


def heat_sandwich_check(
    params: HardyParams,
    t_values: Sequence[float],
    sample_pairs: int = 200,
    *,
    grid: Optional[RadialGrid] = None,
    seed: int = 0,
    band_bound: float = 100.0,
) -> VerificationReport:
    """Two-sided comparison of the discrete heat kernel with its profile.

    Samples interior node pairs, angular-averages the comparison profile
    over the chord distance, and reports the min/max of kernel/profile.
    Passes when every sampled entry is positive and the band has
    C/c <= ``band_bound``.

    The comparison profile carries unspecified structural constants, so
    the band is informative only through its width.  The one exception is
    zero coupling at alpha = 1, where the exact Poisson kernel is
    available and the ratio band hugs 1.
    """
    if sample_pairs < 1:
        raise DomainError("sample_pairs must be positive")
    if grid is None:
        grid = _default_grid(params)
    notes: list = []
    times = _admissible_times(grid, params.alpha, t_values, notes)
    if not times:
        raise DomainError("no t values inside the reliable window of this grid")
    op = build_hardy_operator(grid, params)
    rng = np.random.default_rng(seed)
    exact_poisson = params.a == 0.0 and params.alpha == 1.0
    ratios = []
    for t in times:
        kernel = heat_kernel_matrix(op, t)
        pairs = _interior_pairs(rng, grid.n, sample_pairs)
        for i, j in pairs:
            rx, ry = grid.nodes[i], grid.nodes[j]
            if exact_poisson:
                profile = poisson_radial_average(t, rx, ry, params.d)
            else:
                profile = angular_average(
                    lambda chords: hardy_heat_profile(t, KernelTriple(rx, ry, chords), params),
                    rx,
                    ry,
                    params.d,
                )
            entry = float(kernel[i, j])
            if profile <= 0.0 or not math.isfinite(profile):
                notes.append(f"profile degenerate at t={t:.3g}, pair ({i}, {j}); skipped")
                continue
            ratios.append(entry / profile)
    if not ratios:
        raise DomainError("all sampled pairs were degenerate")
    c_low, c_high = min(ratios), max(ratios)
    ok = c_low > 0.0 and math.isfinite(c_high) and c_high / c_low <= band_bound
    notes.append(f"band C/c = {c_high / c_low if c_low > 0 else math.inf:.4g} over {len(ratios)} samples")
    return VerificationReport(
        check_name="heat_sandwich_check",
        params=_report_params(params, grid, t_values=[float(t) for t in times]),
        empirical_lower=c_low,
        empirical_upper=c_high,
        verdict="pass" if ok else "fail",
        samples=len(ratios),
        notes=tuple(notes),
    )


def _envelope(t: float, q: KernelTriple, params: HardyParams):
    return l_envelope(t, q, params) + m_envelope(t, q, params)


def _difference_ratio_sup(
    params: HardyParams,
    subtract_params: HardyParams,
    env_params: HardyParams,
    times: Sequence[float],
    sample_pairs: int,
    grid: RadialGrid,
    seed: int,
    potential: Optional[PotentialSpec],
    notes: list,
) -> tuple:
    """Sup of |difference kernel| / envelope over sampled interior pairs.

    Returns ``(sup_ratio, sign_violation)`` where the sign violation is the
    worst entry breaking the expected entrywise ordering (0.0 when clean).
    """
    if potential is None:
        upper_op = build_fractional_laplacian(grid, params.alpha)
        lower_op = build_hardy_operator(grid, subtract_params)
        expected_sign = math.copysign(1.0, params.a) if params.a != 0.0 else 0.0
    else:
        upper_op = build_potential_operator(grid, params.alpha, potential)
        lower_op = build_hardy_operator(grid, subtract_params)
        # V <= a_tilde r^{-alpha} makes the potential kernel dominate
        expected_sign = 1.0
    rng = np.random.default_rng(seed)
    sup_ratio = 0.0
    violation = 0.0
    for t in times:
        diff = heat_kernel_matrix(upper_op, t) - heat_kernel_matrix(lower_op, t)
        pairs = _interior_pairs(rng, grid.n, sample_pairs)
        for i, j in pairs:
            rx, ry = grid.nodes[i], grid.nodes[j]
            entry = float(diff[i, j])
            if expected_sign > 0.0 and entry < 0.0:
                violation = min(violation, entry)
            elif expected_sign < 0.0 and entry > 0.0:
                violation = max(violation, entry)
            env = angular_average(
                lambda chords: _envelope(t, KernelTriple(rx, ry, chords), env_params),
                rx,
                ry,
                params.d,
            )
            if env <= 0.0 or not math.isfinite(env):
                notes.append(f"envelope degenerate at t={t:.3g}, pair ({i}, {j}); skipped")
                continue
            sup_ratio = max(sup_ratio, abs(entry) / env)
    return sup_ratio, violation


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

    The envelope is always evaluated with the exponent of the stronger
    (lower) coupling: the potential's difference kernel sits inside the
    gap between the two comparison kernels, and the gap's small-radius
    weight is set by the more singular of the two.
    """
    if sample_pairs < 1:
        raise DomainError("sample_pairs must be positive")
    if grid is None:
        grid = _default_grid(params)
    notes: list = []
    times = _admissible_times(grid, params.alpha, t_values, notes)
    if not times:
        raise DomainError("no t values inside the reliable window of this grid")
    if potential is not None:
        subtract_params = make_params(params.d, params.alpha, potential.a_tilde)
        env_params = make_params(params.d, params.alpha, potential.a)
    else:
        subtract_params = params
        env_params = params

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

    sup_base, viol_base = _difference_ratio_sup(
        params, subtract_params, env_params, times, sample_pairs, grid, seed, potential, notes
    )
    finer = build_log_grid(grid.d, grid.r_min / 10.0, grid.r_max, grid.n)
    sup_fine, viol_fine = _difference_ratio_sup(
        params, subtract_params, env_params, times, sample_pairs, finer, seed, potential, notes
    )
    worst_violation = min(viol_base, viol_fine) if potential or params.a > 0 else max(viol_base, viol_fine)
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
        samples=2 * len(times) * sample_pairs,
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
    band within each sampled case to satisfy C/c <= ``band_bound``.
    """
    s = float(s)
    lo_s, hi_s = 0.0, riesz_exponent_window(params)
    if not (lo_s < s < hi_s):
        raise DomainError(f"s={s} outside the convergence window (0, {hi_s:.6g})")
    if n_triples < 2:
        raise DomainError("need at least two triples")
    rng = np.random.default_rng(seed)
    cases: dict = {"lam>=1/4": [], "lam<=1/4": []}
    for _ in range(n_triples):
        rx = 10.0 ** rng.uniform(-RIESZ_DECADES, RIESZ_DECADES)
        ry = 10.0 ** rng.uniform(-RIESZ_DECADES, RIESZ_DECADES)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - mu))
        triple = KernelTriple(rx, ry, rxy)
        value = riesz_time_integral(s, triple, params)
        profile = riesz_profile(s, triple, params)
        ratio = value / profile
        lam = min(rx, ry) / rxy
        cases["lam>=1/4" if lam >= 0.25 else "lam<=1/4"].append(ratio)
    notes = []
    ok = True
    all_ratios = []
    for label, ratios in cases.items():
        if not ratios:
            notes.append(f"case {label}: no samples drawn")
            continue
        c_low, c_high = min(ratios), max(ratios)
        all_ratios.extend(ratios)
        spread = c_high / c_low if c_low > 0.0 else math.inf
        notes.append(f"case {label}: n={len(ratios)}, band [{c_low:.6g}, {c_high:.6g}], C/c={spread:.4g}")
        if not (c_low > 0.0 and math.isfinite(c_high) and spread <= band_bound):
            ok = False
    return VerificationReport(
        check_name="riesz_equivalence_check",
        params=_report_params(params, None, s=s, n_triples=n_triples, seed=seed),
        empirical_lower=min(all_ratios),
        empirical_upper=max(all_ratios),
        verdict="pass" if ok else "fail",
        samples=len(all_ratios),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Sobolev embedding


def sobolev_check(
    params: HardyParams,
    s: float,
    family: TestFamily,
    grid: Optional[RadialGrid] = None,
    *,
    pass_bound: float = 1e3,
) -> VerificationReport:
    """Embedding ratio ||f||_{L^q} / ||L^{s/2} f|| with q = 2d/(d - alpha s).

    Valid only inside the embedding window: alpha*s < d always, and
    additionally s < d/alpha for nonnegative coupling or
    s < (d - 2 delta)/alpha for negative coupling.
    """
    s = float(s)
    d, alpha = params.d, params.alpha
    if alpha * s >= d:
        raise DomainError(f"alpha*s = {alpha * s:.6g} must stay below d = {d}")
    window = d / alpha if params.a >= 0.0 else (d - 2.0 * params.delta) / alpha
    if not (0.0 < s < window):
        raise DomainError(f"s={s} outside the embedding window (0, {window:.6g})")
    if grid is None:
        grid = _default_grid(params)
    q = 2.0 * d / (d - alpha * s)
    op = build_hardy_operator(grid, params)
    ratios = []
    notes = []
    for member_id, vec in family.members(grid, delta=params.delta):
        lebesgue = float(np.sum(grid.weights * np.abs(vec) ** q)) ** (1.0 / q)
        seminorm = _power_norm(op, vec, s)
        if seminorm <= 0.0 or not math.isfinite(lebesgue):
            notes.append(f"member {member_id} skipped: degenerate norms")
            continue
        ratios.append(lebesgue / seminorm)
    if not ratios:
        return VerificationReport(
            check_name="sobolev_check",
            params=_report_params(params, grid, s=s, family=family.tag),
            empirical_lower=math.nan,
            empirical_upper=math.nan,
            verdict="fail",
            samples=0,
            notes=tuple(notes) + ("no valid family members",),
        )
    lo, hi = min(ratios), max(ratios)
    notes.append(f"ratio spread over family: {hi / lo:.4g}")
    return VerificationReport(
        check_name="sobolev_check",
        params=_report_params(params, grid, s=s, family=family.tag, q=q),
        empirical_lower=lo,
        empirical_upper=hi,
        verdict="pass" if hi <= pass_bound else "fail",
        samples=len(ratios),
        notes=tuple(notes),
    )
