import math

import numpy as np
import pytest

from hardyops import (
    FAMILY_TAGS,
    SWEEP_COLUMNS,
    DomainError,
    TestFamily,
    VerificationReport,
    a_star,
    build_log_grid,
    difference_envelope_check,
    generalized_hardy_constant,
    heat_sandwich_check,
    make_params,
    norm_ratio_sweep,
    reverse_hardy_constant,
    riesz_equivalence_check,
    sobolev_check,
    sweep_by_power,
    sweep_rows,
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
    fam = TestFamily("gaussian-dilates", n_members=6)
    first = list(fam.members(small_grid))
    second = list(fam.members(small_grid))
    assert len(first) == 6
    ids = [mid for mid, _ in first]
    assert len(set(ids)) == 6
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


def test_family_validation():
    with pytest.raises(DomainError):
        TestFamily("no-such-family")
    with pytest.raises(DomainError):
        TestFamily("gaussian-dilates", n_members=1)
    with pytest.raises(DomainError):
        TestFamily("gaussian-dilates", dilation_range=(2.0, 1.0))
    with pytest.raises(DomainError):
        TestFamily("singular-cutoff", eps_range=(0.0, 1.0))


# ---------------------------------------------------------------------------
# norm ratio sweep

def test_sweep_rows_schema_and_zero_coupling(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates", n_members=4)
    rows, notes = sweep_rows(params_zero, [0.5, 1.0], fam, small_grid)
    assert notes == []
    assert len(rows) == 8
    for row in rows:
        assert tuple(row.keys()) == SWEEP_COLUMNS
        # at zero coupling the two operators coincide, so both ratios
        # come out exactly one
        assert row["ratio_forward"] == 1.0
        assert row["ratio_backward"] == 1.0


def test_norm_ratio_sweep_zero_coupling_passes(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates", n_members=4)
    rep = norm_ratio_sweep(params_zero, [0.5, 1.0], fam, small_grid)
    assert rep.verdict == "pass"
    assert rep.empirical_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.empirical_upper == pytest.approx(1.0, abs=1e-12)


def test_norm_ratio_sweep_validation(params_zero, small_grid):
    fam = TestFamily("gaussian-dilates")
    with pytest.raises(DomainError):
        norm_ratio_sweep(params_zero, [], fam, small_grid)
    with pytest.raises(DomainError):
        norm_ratio_sweep(params_zero, [2.5], fam, small_grid)


def test_sweep_by_power_matches_sweep_rows_and_one_sweep_per_power(params_half_critical, small_grid):
    fam = TestFamily("singular-cutoff", n_members=4)
    s_values = [0.5, 1.5, 0.5]
    rows, notes, reports = sweep_by_power(params_half_critical, s_values, fam, small_grid)
    assert (rows, notes) == sweep_rows(params_half_critical, s_values, fam, small_grid)
    assert len(reports) == len(s_values)
    for s, report in zip(s_values, reports):
        alone = norm_ratio_sweep(params_half_critical, [s], fam, small_grid)
        assert report.to_dict() == alone.to_dict()


def test_sweep_by_power_checks_every_power_before_any_norm(params_zero, small_grid, monkeypatch):
    from hardyops import verify

    def no_norms(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(verify, "_power_norm", no_norms)
    fam = TestFamily("gaussian-dilates", n_members=4)
    for bad in ([], [0.5, 2.5], [0.0]):
        with pytest.raises(DomainError):
            sweep_by_power(params_zero, bad, fam, small_grid)


# ---------------------------------------------------------------------------
# refinement ladders

def test_generalized_hardy_zero_coupling_recovers_sharp_constant():
    params = make_params(3, 1.0, 0.0)
    rep = generalized_hardy_constant(params, 1.0, n_refinements=1, grid_n=512)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_generalized_hardy_validation(params_zero):
    with pytest.raises(DomainError):
        generalized_hardy_constant(params_zero, 2.5)
    with pytest.raises(DomainError):
        generalized_hardy_constant(params_zero, 1.0, n_refinements=0)


def test_reverse_constant_zero_coupling_vanishes(params_zero):
    rep = reverse_hardy_constant(params_zero, 1.0, n_refinements=1, grid_n=256)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == 0.0
    assert any("vanishes" in n for n in rep.notes)


def test_reverse_constant_s_two_is_exactly_the_coupling(params_half_critical):
    rep = reverse_hardy_constant(params_half_critical, 2.0,
                                 n_refinements=1, grid_n=256)
    assert rep.verdict == "pass"
    assert rep.empirical_upper == pytest.approx(abs(params_half_critical.a), rel=1e-12)


# ---------------------------------------------------------------------------
# heat kernel comparisons

def test_heat_sandwich_exact_branch_near_unity(params_zero, medium_grid):
    rep = heat_sandwich_check(params_zero, [1.0], sample_pairs=60,
                              grid=medium_grid, seed=5)
    assert rep.verdict == "pass"
    assert 0.9 < rep.empirical_lower <= rep.empirical_upper < 1.1


def test_heat_sandwich_profile_branch(params_critical, medium_grid):
    rep = heat_sandwich_check(params_critical, [1.0], sample_pairs=50,
                              grid=medium_grid, seed=3)
    assert rep.verdict == "pass"
    assert rep.empirical_lower > 0.0
    assert rep.empirical_upper / rep.empirical_lower < 50.0


def test_heat_sandwich_deterministic(params_critical, medium_grid):
    kw = dict(sample_pairs=30, grid=medium_grid, seed=11)
    rep1 = heat_sandwich_check(params_critical, [1.0], **kw)
    rep2 = heat_sandwich_check(params_critical, [1.0], **kw)
    assert rep1.empirical_lower == rep2.empirical_lower
    assert rep1.empirical_upper == rep2.empirical_upper


def test_heat_sandwich_rejects_out_of_window_times(params_zero, medium_grid):
    with pytest.raises(DomainError):
        heat_sandwich_check(params_zero, [1e9], grid=medium_grid)
    with pytest.raises(DomainError):
        heat_sandwich_check(params_zero, [-1.0], grid=medium_grid)


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


# ---------------------------------------------------------------------------
# embedding

def test_sobolev_zero_coupling_passes(params_zero, medium_grid):
    fam = TestFamily("gaussian-dilates")
    rep = sobolev_check(params_zero, 1.0, fam, grid=medium_grid)
    assert rep.verdict == "pass"
    assert rep.empirical_upper < 1.0


def test_sobolev_preconditions(medium_grid):
    fam = TestFamily("gaussian-dilates")
    with pytest.raises(DomainError):
        sobolev_check(make_params(3, 1.5, 0.0), 2.2, fam, grid=medium_grid)
    crit = make_params(3, 1.0, a_star(3, 1.0))
    with pytest.raises(DomainError):
        sobolev_check(crit, 1.5, fam, grid=medium_grid)


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
        value = verify._generalized_rung_value(op, params_half_critical, s)
        assert value == pytest.approx(ref_top, rel=1e-12)
