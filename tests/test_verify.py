import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyops import (
    FAMILY_TAGS,
    SWEEP_COLUMNS,
    DomainError,
    PotentialSpec,
    TestFamily,
    VerificationReport,
    build_log_grid,
    difference_envelope_check,
    generalized_hardy_constant,
    hardy_constant,
    heat_sandwich_by_time,
    make_params,
    reverse_hardy_constant,
    riesz_equivalence_check,
    sweep_by_power,
    verify,
)


# ---------------------------------------------------------------------------
# report container

def test_report_to_dict_roundtrip():
    rep = VerificationReport(
        check_name="x", params={"d": 3}, empirical_lower=1.0,
        empirical_upper=2.0, verdict="pass", samples=4, notes=("a", "b"),
    )
    d = rep.to_dict()
    assert set(d) == {
        "check_name", "params", "empirical_lower", "empirical_upper",
        "verdict", "samples", "notes",
    }
    assert d["notes"] == ["a", "b"]


def test_report_rejects_bad_fields():
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 0.0, 1.0, "maybe", 1)
    with pytest.raises(ValueError):
        VerificationReport("x", {}, 2.0, 1.0, "pass", 1)


# ---------------------------------------------------------------------------
# test families

def test_family_members_deterministic(small_grid):
    fam = TestFamily("gaussian-dilates")
    first = list(fam.members(small_grid))
    second = list(fam.members(small_grid))
    assert len(first) == verify.FAMILY_MEMBERS
    ids = [mid for mid, _ in first]
    assert len(set(ids)) == verify.FAMILY_MEMBERS
    for (id1, v1), (id2, v2) in zip(first, second):
        assert id1 == id2
        assert np.array_equal(v1, v2)


def test_family_all_tags_produce_finite_members(small_grid):
    for tag in FAMILY_TAGS:
        fam = TestFamily(tag)
        for member_id, vec in fam.members(small_grid, delta=0.5):
            assert np.all(np.isfinite(vec)), (tag, member_id)
            assert np.any(vec != 0.0), (tag, member_id)


def test_family_cutoff_sigma_defaults_to_near_delta(small_grid):
    implicit = TestFamily("singular-cutoff")
    explicit = TestFamily("singular-cutoff", sigma=0.29)
    got = list(implicit.members(small_grid, delta=0.3))
    want = list(explicit.members(small_grid))
    for (_, v1), (_, v2) in zip(got, want):
        assert np.array_equal(v1, v2)


def test_family_takes_only_tag_sigma_and_eps():
    assert [f.name for f in dataclasses.fields(TestFamily)] == ["tag", "sigma", "eps"]


def test_family_validation():
    with pytest.raises(DomainError):
        TestFamily("no-such-family")
    for eps in (0.0, -1e-3, verify.CUTOFF_MAX, 1.0, math.nan):
        with pytest.raises(DomainError):
            TestFamily("singular-cutoff", eps=eps)


# ---------------------------------------------------------------------------
# norm ratio sweep

def test_sweep_by_power_rows_schema_and_zero_coupling(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates")
    rows, notes, _ = sweep_by_power(params_zero, [0.5, 1.0], fam, small_grid)
    assert notes == []
    assert len(rows) == 2 * verify.FAMILY_MEMBERS
    for row in rows:
        assert tuple(row.keys()) == SWEEP_COLUMNS
        # at zero coupling the two operators coincide, so both ratios
        # come out exactly one
        assert row["ratio_forward"] == 1.0
        assert row["ratio_backward"] == 1.0


def test_norm_ratio_sweep_zero_coupling_passes(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates")
    _, _, reports = sweep_by_power(params_zero, [0.5, 1.0], fam, small_grid)
    for rep in reports:
        assert rep.verdict == "pass"
        assert rep.empirical_lower == pytest.approx(1.0, abs=1e-12)
        assert rep.empirical_upper == pytest.approx(1.0, abs=1e-12)


def test_norm_ratio_sweep_validation(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates")
    with pytest.raises(DomainError):
        sweep_by_power(params_zero, [], fam, small_grid)
    with pytest.raises(DomainError):
        sweep_by_power(params_zero, [2.5], fam, small_grid)


def test_sweep_by_power_matches_one_sweep_per_power(params_half_critical, small_grid):
    fam = TestFamily("singular-cutoff")
    s_values = [0.5, 1.5, 0.5]
    rows, notes, reports = sweep_by_power(params_half_critical, s_values, fam, small_grid)
    # the rows of a multi-s sweep are the one-s sweeps' rows, concatenated
    singles = [sweep_by_power(params_half_critical, [s], fam, small_grid) for s in s_values]
    assert rows == [row for one_rows, _, _ in singles for row in one_rows]
    assert all(one_notes == notes for _, one_notes, _ in singles)
    assert reports == [one_report for _, _, (one_report,) in singles]


def test_sweep_by_power_checks_every_power_before_any_norm(params_zero, small_grid, monkeypatch):
    from hardyops import verify

    def no_norms(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(verify, "_power_norm", no_norms)
    fam = TestFamily("gaussian-dilates")
    for bad in ([], [0.5, 2.5], [0.0]):
        with pytest.raises(DomainError):
            sweep_by_power(params_zero, bad, fam, small_grid)


@pytest.mark.parametrize("bound", [math.nan, 0.0, -1.0])
def test_pass_bounds_must_be_positive(monkeypatch, bound):
    # A NaN bound used to pass every ratio, since no comparison with NaN is
    # true.  A bad bound is rejected before any operator is built.
    def no_build(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(verify, "build_fractional_laplacian", no_build)
    monkeypatch.setattr(verify, "build_hardy_operator", no_build)
    params = make_params(3, 1.0, -0.3)
    fam = TestFamily("gaussian-dilates")
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    with pytest.raises(DomainError, match="pass_bound must be positive"):
        sweep_by_power(params, [1.0, 1.9], fam, grid, pass_bound=bound)


# ---------------------------------------------------------------------------
# refinement ladders

def test_generalized_hardy_zero_coupling_recovers_sharp_constant():
    params = make_params(3, 1.0, 0.0)
    rep = generalized_hardy_constant(params, 1.0, n_refinements=1, grid_n=512)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_generalized_ladder_that_cuts_physical_spectrum_does_not_pass():
    # Above the threshold (s = 1.18 here) the ladder should grow, but at
    # alpha = 1.9 the deep rungs cut hundreds of eigenvalues as rounding
    # zeros and read a flat 67.4, 63.6, 63.4, 64.2.
    params = make_params(3, 1.9, -0.9 * hardy_constant(3, 1.9))
    rep = generalized_hardy_constant(params, 1.43)
    assert rep.verdict == "fail"
    assert rep.notes[-1].startswith("untrusted: rungs 0, 1, 2, 3 cut ")


# Relative error of the worse rung against the exact s = 1 constant
# (H + a)^{-1/2}, at a = -H/2 on the 512-node two-rung ladder, gated at
# what the ladder reads today.  Tighten a gate when a fix lands; never
# loosen one.  Above 1e-6 the guard must keep the verdict off "pass".
S_ONE_ANCHOR_GATES = {
    (2, 0.5): 1e-11, (2, 1.0): 1e-11, (2, 1.5): 0.11, (2, 1.9): 0.7,
    (3, 0.5): 1e-11, (3, 1.0): 1e-11, (3, 1.5): 1e-8, (3, 1.9): 0.04,
    (4, 0.5): 1e-11, (4, 1.0): 1e-11, (4, 1.5): 5e-9, (4, 1.9): 0.01,
    (5, 0.5): 1e-11, (5, 1.0): 1e-11, (5, 1.5): 3e-9, (5, 1.9): 0.005,
}


@pytest.mark.parametrize("d, alpha", sorted(S_ONE_ANCHOR_GATES))
def test_generalized_ladder_at_s_one_against_the_exact_constant(d, alpha):
    h = hardy_constant(d, alpha)
    rep = generalized_hardy_constant(make_params(d, alpha, -0.5 * h), 1.0,
                                     n_refinements=1, grid_n=512)
    exact = (0.5 * h) ** -0.5
    error = max(abs(rep.empirical_lower - exact), abs(rep.empirical_upper - exact)) / exact
    assert error <= S_ONE_ANCHOR_GATES[d, alpha]
    if error > 1e-6:
        assert rep.verdict != "pass"


def test_generalized_hardy_validation(params_zero):
    with pytest.raises(DomainError):
        generalized_hardy_constant(params_zero, 2.5)
    with pytest.raises(DomainError):
        generalized_hardy_constant(params_zero, 1.0, n_refinements=0)


@pytest.mark.parametrize("count", [1.5, 2.5, True, 0, -2, "3", None, np.int64(3)])
def test_counts_must_be_integers(params_zero, count):
    # Each count used to fail as a bare TypeError or slip through as 0 or 1.
    for ladder in (generalized_hardy_constant, reverse_hardy_constant):
        with pytest.raises(DomainError, match="n_refinements must be an integer >= 1"):
            ladder(params_zero, 1.0, n_refinements=count, grid_n=128)
    with pytest.raises(DomainError, match="n_triples must be an integer >= 2"):
        riesz_equivalence_check(params_zero, 1.0, n_triples=count)


def test_riesz_check_needs_two_triples(params_zero):
    with pytest.raises(DomainError, match="n_triples must be an integer >= 2, got 1"):
        riesz_equivalence_check(params_zero, 1.0, n_triples=1)


def test_reverse_constant_zero_coupling_vanishes(params_zero):
    rep = reverse_hardy_constant(params_zero, 1.0, n_refinements=1, grid_n=256)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == 0.0
    assert any("vanishes" in n for n in rep.notes)


def test_reverse_constant_s_two_is_exactly_the_coupling(params_half_critical):
    rep = reverse_hardy_constant(params_half_critical, 2.0,
                                 n_refinements=1, grid_n=256)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == abs(params_half_critical.a)
    assert rep.empirical_lower == abs(params_half_critical.a)
    # the box is still validated, though no grid is read
    for box in ({"r_min": 0.0}, {"r_min": 1e3, "r_max": 1e2}, {"r_max": math.inf},
                {"grid_n": 1}):
        with pytest.raises(DomainError):
            reverse_hardy_constant(params_half_critical, 2.0, n_refinements=1, **box)


# Every ladder path: the generalized ladder, and the reverse ladder through
# its spectral path, its s = 2 closed form and its a = 0 closed form.
LADDER_PATHS = (
    (generalized_hardy_constant, "half", 1.0),
    (reverse_hardy_constant, "half", 0.5),
    (reverse_hardy_constant, "half", 2.0),
    (reverse_hardy_constant, "zero", 1.0),
    (reverse_hardy_constant, "zero", 2.0),
)


@pytest.mark.parametrize("bad", [
    {"r_min": 0.0}, {"r_min": 1e3, "r_max": 1e2}, {"r_max": math.inf}, {"grid_n": 1},
    {"s": 2.5}, {"s": 0.0},
])
def test_every_ladder_path_rejects_a_bad_input_alike(params_zero, params_half_critical, bad):
    params = {"zero": params_zero, "half": params_half_critical}
    messages = set()
    for check, which, s in LADDER_PATHS:
        kwargs = {"n_refinements": 1, "grid_n": 64, **bad}
        with pytest.raises(DomainError) as err:
            check(params[which], kwargs.pop("s", s), **kwargs)
        messages.add(str(err.value))
    if "s" in bad:
        # The sweep checks its powers with the same rule.
        with pytest.raises(DomainError) as err:
            sweep_by_power(params_zero, [bad["s"]], TestFamily("gaussian-dilates"))
        messages.add(str(err.value))
    assert len(messages) == 1, messages
    (message,) = messages
    if "s" in bad:
        assert message == f"s={bad['s']} outside (0, 2]"


def _inject_sign_violations(monkeypatch, gap):
    """Set one sampled entry of the lower (Hardy) kernel in each difference
    pass to the upper kernel's entry plus a multiple of ``gap``: 2.5 gap in
    the refined pass, which runs first, and gap in the base pass.  The
    difference at that pair is then about -2.5 gap and -gap."""
    sampled = verify._sampled_entries
    calls = []

    def entries(op, draws):
        out = sampled(op, draws)
        calls.append(out)
        if len(calls) % 2 == 0:  # the lower (Hardy) operator of a pass
            scale = 2.5 if len(calls) == 2 else 1.0
            out[0][0] = calls[-2][0][0] + scale * gap
        return out

    monkeypatch.setattr(verify, "_sampled_entries", entries)


@pytest.mark.parametrize("case", ["attractive", "repulsive", "potential"])
def test_difference_envelope_flags_a_sign_violation(small_grid, monkeypatch, case):
    kwargs = {"sample_pairs": 40, "grid": small_grid, "seed": 3}
    if case == "attractive":
        params, gap = make_params(3, 1.0, -0.3), -1e-6  # difference expected <= 0
    elif case == "repulsive":
        params, gap = make_params(3, 1.0, 0.3), 1e-6
    else:
        params, gap = make_params(3, 1.0, -0.3), 1e-6
        kwargs["potential"] = PotentialSpec(
            profile=lambda r: -0.2 * r ** -1.0 * (1.0 + 0.5 * np.exp(-r)), a=-0.3, a_tilde=-0.2)
    clean = difference_envelope_check(params, [1.0], **kwargs)
    assert clean.verdict == "pass", clean.notes
    assert not any("sign violation" in note for note in clean.notes)

    _inject_sign_violations(monkeypatch, gap)
    rep = difference_envelope_check(params, [1.0], **kwargs)
    # The worst violation over both passes, with the sign it has.
    expected = "-2.500e-06" if gap > 0 else "2.500e-06"
    note = f"entrywise sign violation {expected} beyond slack 1.0e-10"
    assert rep.verdict == "fail"
    assert [n for n in rep.notes if "sign violation" in n] == [note]
    # Nothing else moved: the violation alone fails the check.
    assert [n for n in rep.notes if n != note] == list(clean.notes)


# ---------------------------------------------------------------------------
# heat kernel comparisons

def test_heat_sandwich_exact_branch_near_unity(params_zero, medium_grid):
    rep = next(heat_sandwich_by_time(params_zero, [1.0], sample_pairs=60,
                                     grid=medium_grid, seed=5))
    assert rep.verdict == "pass"
    assert 0.9 < rep.empirical_lower <= rep.empirical_upper < 1.1


def test_heat_sandwich_profile_branch(params_critical, medium_grid):
    rep = next(heat_sandwich_by_time(params_critical, [1.0], sample_pairs=50,
                                     grid=medium_grid, seed=3))
    assert rep.verdict == "pass"
    assert rep.empirical_lower > 0.0
    assert rep.empirical_upper / rep.empirical_lower < 50.0


def test_heat_sandwich_deterministic(params_critical, medium_grid):
    kw = dict(sample_pairs=30, grid=medium_grid, seed=11)
    rep1 = next(heat_sandwich_by_time(params_critical, [1.0], **kw))
    rep2 = next(heat_sandwich_by_time(params_critical, [1.0], **kw))
    assert rep1.empirical_lower == rep2.empirical_lower
    assert rep1.empirical_upper == rep2.empirical_upper


@pytest.mark.parametrize("bound", [0.0, 0.999, -1.0, math.nan])
def test_band_checks_reject_a_bound_below_one(params_zero, medium_grid, bound):
    # C/c >= 1 for every band, so such a bound could never pass.
    with pytest.raises(DomainError, match="band_bound must be >= 1"):
        next(heat_sandwich_by_time(params_zero, [1.0], grid=medium_grid, band_bound=bound))
    with pytest.raises(DomainError, match="band_bound must be >= 1"):
        riesz_equivalence_check(params_zero, 1.0, n_triples=10, band_bound=bound)


def test_heat_sandwich_rejects_out_of_window_times(params_zero, medium_grid):
    with pytest.raises(DomainError):
        next(heat_sandwich_by_time(params_zero, [1e9], grid=medium_grid))
    with pytest.raises(DomainError):
        next(heat_sandwich_by_time(params_zero, [-1.0], grid=medium_grid))


# ---------------------------------------------------------------------------
# difference envelope

def test_difference_envelope_zero_coupling_short_circuits(params_zero, small_grid):
    rep = difference_envelope_check(params_zero, [1.0], grid=small_grid)
    assert rep.verdict == "pass"
    assert rep.samples == 0
    assert rep.empirical_upper == 0.0


def test_difference_envelope_attractive_coupling(params_half_critical, small_grid):
    rep = difference_envelope_check(params_half_critical, [1.0],
                                    sample_pairs=40, grid=small_grid, seed=3)
    assert rep.verdict == "pass"
    assert math.isfinite(rep.empirical_upper)
    assert rep.empirical_upper > 0.0


def test_difference_envelope_repulsive_coupling(small_grid):
    params = make_params(3, 1.0, 0.3)
    rep = difference_envelope_check(params, [1.0], sample_pairs=40,
                                    grid=small_grid, seed=3)
    assert rep.verdict == "pass"


# ---------------------------------------------------------------------------
# pointwise kernel identity

def test_riesz_equivalence_zero_coupling(params_zero):
    rep = riesz_equivalence_check(params_zero, 1.0, n_triples=40, seed=2)
    assert rep.verdict == "pass"
    assert rep.empirical_lower > 0.0


def test_riesz_equivalence_deterministic(params_zero):
    rep1 = riesz_equivalence_check(params_zero, 0.5, n_triples=30, seed=9)
    rep2 = riesz_equivalence_check(params_zero, 0.5, n_triples=30, seed=9)
    assert rep1.empirical_lower == rep2.empirical_lower
    assert rep1.empirical_upper == rep2.empirical_upper


def test_riesz_equivalence_rejects_exponent_outside_window(params_critical):
    with pytest.raises(DomainError):
        riesz_equivalence_check(params_critical, 2.5, n_triples=10)
    with pytest.raises(DomainError):
        riesz_equivalence_check(params_critical, -1.0, n_triples=10)


def _uniform_triples(seed, n_triples):
    """The triples as three scalar ``uniform`` draws per triple make them."""
    rng = np.random.default_rng(seed)
    lengths = []
    for _ in range(n_triples):
        rx = 10.0 ** rng.uniform(-verify.RIESZ_DECADES, verify.RIESZ_DECADES)
        ry = 10.0 ** rng.uniform(-verify.RIESZ_DECADES, verify.RIESZ_DECADES)
        mu = rng.uniform(-1.0, 1.0)
        lengths.append((rx, ry, math.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - mu))))
    return lengths


def _drawn_triples(params, seed, n_triples):
    drawn = []

    def record(s, q, params):
        drawn.extend(zip(q.rx.tolist(), q.ry.tolist(), q.rxy.tolist()))
        return np.ones(q.rxy.shape)

    with mock.patch.object(verify, "riesz_time_integral", record):
        riesz_equivalence_check(params, 1.0, n_triples=n_triples, seed=seed)
    return drawn


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       n_triples=st.integers(min_value=2, max_value=300), data=st.data())
def test_riesz_triples_equal_scalar_uniform_draws(params_zero, seed, n_triples, data):
    drawn = _drawn_triples(params_zero, seed, n_triples)
    # A shorter check draws the first triples of a longer one, bit for bit.
    k = data.draw(st.integers(min_value=2, max_value=n_triples))
    assert _drawn_triples(params_zero, seed, k) == drawn[:k]
    # The array powers agree with the scalar draws' Python powers to an ulp.
    ref = np.array(_uniform_triples(seed, n_triples))
    assert np.all(np.abs(np.array(drawn) - ref) <= 1e-14 * ref)


# ---------------------------------------------------------------------------
# Gram-form ladder products


def test_ladder_products_are_bitwise_symmetric_gram_forms(small_grid, params_half_critical):
    from hardyops import build_hardy_operator
    from hardyops import verify

    op = build_hardy_operator(small_grid, params_half_critical)
    q = op.modes * np.sqrt(small_grid.weights)[:, None]
    lam = op.eigenvalues
    for s in (0.5, 1.0, 1.7):
        power = verify._sym_power_matrix(op, s)
        assert np.array_equal(power, power.T)
        ref = (q * np.where(lam > 0.0, lam, 0.0) ** (0.5 * s)) @ q.T
        assert np.max(np.abs(power - ref)) <= 1e-12 * np.max(np.abs(ref))

        # ||r^{-alpha s/2} L^{-s/2}|| on the positive subspace, the old way.
        keep = lam > 1e-15 * lam.max()
        phi = q[:, keep] * lam[keep] ** (-0.5 * s)
        mat = phi.T @ (small_grid.nodes[:, None] ** (-params_half_critical.alpha * s) * phi)
        ref_top = math.sqrt(np.linalg.eigvalsh(0.5 * (mat + mat.T))[-1])
        value, cut = verify._generalized_rung(op, params_half_critical, s)
        assert value == pytest.approx(ref_top, rel=1e-12)
        assert cut == np.count_nonzero(~keep)
