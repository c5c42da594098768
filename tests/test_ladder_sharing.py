"""Sharing of eigensystems between the refinement ladders.

Both ladder functions read their Hardy rungs from a one-slot memo in
``verify``.  The memo may not change a single bit of any result, and the
rebuilt rungs of a cold ladder must equal the shared ones bit for bit.
"""

import weakref

import numpy as np
import pytest

from hardyops import verify
from hardyops.errors import DomainError
from hardyops.operators import _symmetric_free_matrix, build_log_grid
from hardyops.verify import generalized_hardy_constant, reverse_hardy_constant

# Two rungs, so a report's empirical_lower and empirical_upper are the whole
# ladder and comparing them compares every rung value bitwise.
LADDER = {"n_refinements": 1, "grid_n": 128}


@pytest.fixture(autouse=True)
def empty_slot():
    verify._ladder_slot.clear()
    yield
    verify._ladder_slot.clear()


def _values(report):
    return report.empirical_lower, report.empirical_upper, report.verdict


def _cold(check, params, s):
    verify._ladder_slot.clear()
    return _values(check(params, s, **LADDER))


def test_shared_rungs_match_a_cold_computation(params_half_critical, monkeypatch):
    gen = generalized_hardy_constant(params_half_critical, 1.0, **LADDER)

    def no_hardy_build(grid, params):
        raise AssertionError("the Hardy rungs should come from the slot")

    monkeypatch.setattr(verify, "build_hardy_operator", no_hardy_build)
    rev = reverse_hardy_constant(params_half_critical, 1.0, **LADDER)
    monkeypatch.undo()

    assert _values(rev) == _cold(reverse_hardy_constant, params_half_critical, 1.0)
    assert _values(gen) == _cold(generalized_hardy_constant, params_half_critical, 1.0)


def test_slot_holds_only_the_latest_hardy_rungs(params_zero, params_half_critical, monkeypatch):
    generalized_hardy_constant(params_zero, 1.0, **LADDER)
    (old_rungs,) = verify._ladder_slot.values()
    old = [weakref.ref(op) for op in old_rungs]
    del old_rungs

    real_build = verify.build_hardy_operator

    def build_after_release(grid, params):
        assert not verify._ladder_slot, "previous ladder still held while building"
        return real_build(grid, params)

    monkeypatch.setattr(verify, "build_hardy_operator", build_after_release)
    reverse_hardy_constant(params_half_critical, 0.5, **LADDER)

    assert all(ref() is None for ref in old)
    ((key, rungs),) = verify._ladder_slot.items()
    assert key[0] == params_half_critical
    assert len(rungs) == 2


def test_call_order_does_not_change_results(params_half_critical):
    rev_first = _values(reverse_hardy_constant(params_half_critical, 1.0, **LADDER))
    gen_second = _values(generalized_hardy_constant(params_half_critical, 1.0, **LADDER))
    rev_again = _values(reverse_hardy_constant(params_half_critical, 0.5, **LADDER))

    assert gen_second == _cold(generalized_hardy_constant, params_half_critical, 1.0)
    assert rev_first == _cold(reverse_hardy_constant, params_half_critical, 1.0)
    assert rev_again == _cold(reverse_hardy_constant, params_half_critical, 0.5)


def test_s_two_reverse_ladder_leaves_the_slot_alone(params_zero, params_half_critical):
    generalized_hardy_constant(params_zero, 1.0, **LADDER)
    before = dict(verify._ladder_slot)
    reverse_hardy_constant(params_half_critical, 2.0, **LADDER)
    assert verify._ladder_slot == before


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_zero_coupling_reverse_ladder_builds_nothing(params_zero, params_half_critical, s,
                                                     monkeypatch):
    generalized_hardy_constant(params_half_critical, 1.0, **LADDER)
    ((key, rungs),) = verify._ladder_slot.items()

    def no_build(*args):
        raise AssertionError("the zero-coupling reverse ladder is exact and builds no operator")

    monkeypatch.setattr(verify, "build_hardy_operator", no_build)
    monkeypatch.setattr(verify, "build_fractional_laplacian", no_build)
    rep = reverse_hardy_constant(params_zero, s, **LADDER)
    ((key_after, rungs_after),) = verify._ladder_slot.items()
    assert key_after == key and rungs_after is rungs
    assert (rep.empirical_lower, rep.empirical_upper, rep.verdict, rep.samples) == (
        0.0, 0.0, "pass", 2)
    assert rep.notes == ("coupling is zero, difference operator vanishes",)
    # The rungs' boxes are still validated.
    with pytest.raises(DomainError):
        reverse_hardy_constant(params_zero, s, n_refinements=1, r_min=1e3, r_max=1e2)


def test_zero_coupling_reverse_ladder_is_exactly_zero_at_default_grid(params_zero, monkeypatch):
    def no_free_build(grid, alpha):
        raise AssertionError("the zero-coupling reverse ladder builds no free operator")

    monkeypatch.setattr(verify, "build_fractional_laplacian", no_free_build)
    rep = reverse_hardy_constant(params_zero, 1.0, n_refinements=1)
    assert rep.params["grid_n"] == 1024
    assert rep.empirical_lower == rep.empirical_upper == 0.0
    assert rep.verdict == "pass"


def test_twin_grids_give_bitwise_equal_free_matrices():
    # The reverse ladder builds its free operator on a twin of each rung's
    # grid, so twins must assemble the same matrix bit for bit.
    first, twin = (_symmetric_free_matrix(build_log_grid(3, 1e-2, 1e2, 128), 1.3) for _ in range(2))
    assert first is not twin
    assert np.array_equal(first, twin)
