"""End-to-end acceptance checks, one test per contracted behavior.

Each test pins its numeric tolerance and asserts its wall-clock budget,
so a slow regression fails as loudly as a wrong number.  Tests are
ordered so the expensive shared grid is built exactly once.
"""

import json
import math
import time

import numpy as np
import pytest

from hardyops import (
    DomainError,
    KernelTriple,
    PotentialSpec,
    TestFamily,
    a_star,
    a_star_star,
    build_fractional_laplacian,
    build_hardy_operator,
    build_log_grid,
    build_potential_operator,
    difference_envelope_check,
    generalized_hardy_constant,
    hardy_constant,
    heat_kernel_matrix,
    make_params,
    poisson_radial_average,
    psi,
    psi_inv,
    reverse_hardy_constant,
    riesz_equivalence_check,
    riesz_time_integral,
    schur_weight_integral,
    sweep_by_power,
)
from hardyops.operators import _symmetric_free_matrix
from test_operators import apply_function

_timings = {}


@pytest.fixture(scope="module")
def grid_2048():
    t0 = time.perf_counter()
    grid = build_log_grid(3, 1e-4, 1e4, 2048)
    _timings["grid_2048_build"] = time.perf_counter() - t0
    return grid


@pytest.fixture(scope="module")
def default_grid():
    return build_log_grid(3, 1e-3, 1e3, 1024)


def test_01_sharp_constants_anchor():
    t0 = time.perf_counter()
    anchors = [
        (hardy_constant(3, 1.0), 2.0 / math.pi),
        (hardy_constant(3, 2.0), 0.25),
        (a_star_star(3, 1.0), -0.5),
        (psi(3, 1.0, 1.0), -2.0 / math.pi),
        (psi(3, 1.0, 0.5), -0.5),
    ]
    for got, want in anchors:
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    assert time.perf_counter() - t0 < 1.0


def test_02_symbol_inverse_roundtrip():
    t0 = time.perf_counter()
    pairs = [(2, 0.5), (3, 1.0), (3, 1.5), (5, 1.0)]
    for d, alpha in pairs:
        upper = 0.5 * (d - alpha)
        sigmas = np.linspace(-alpha * 0.85, upper, 100)
        for sigma in sigmas:
            sigma = float(sigma)
            back = psi_inv(d, alpha, psi(d, alpha, sigma))
            assert abs(back - sigma) <= 1e-8, (d, alpha, sigma, back)
    for d, alpha in pairs:
        if alpha < d / 2.0:
            assert a_star_star(d, alpha) > a_star(d, alpha)
        else:
            with pytest.raises(DomainError):
                a_star_star(d, alpha)
    assert time.perf_counter() - t0 < 5.0


def test_03_integral_identities():
    t0 = time.perf_counter()
    params = make_params(3, 1.0, 0.0)
    value = riesz_time_integral(1.0, KernelTriple(1.0, 1.0, 1.0), params)
    assert abs(value - 16.0 / 7.0) <= 1e-8 * (16.0 / 7.0)

    res = schur_weight_integral(1.0, 0.0, 3)
    assert not res.divergent
    assert abs(res.value - 6.0 * math.pi) <= 1e-8 * 6.0 * math.pi

    d = 3
    betas = (-0.5, 0.5, 1.0, 2.0, 3.2)
    deltas = (0.0, 0.4, 0.9, 1.4)
    checked = 0
    for beta in betas:
        for delta_plus in deltas:
            out = schur_weight_integral(beta, delta_plus, d)
            finite = delta_plus < beta < d - delta_plus
            assert out.divergent == (not finite), (beta, delta_plus)
            checked += 1
    assert checked == 20
    assert time.perf_counter() - t0 < 10.0


def test_04_kernel_ratio_band():
    t0 = time.perf_counter()
    combos = [
        (3, 1.0, a_star(3, 1.0), 0.5),
        (3, 1.0, a_star(3, 1.0) / 2.0, 1.0),
        (3, 1.5, a_star(3, 1.5), 0.6),
    ]
    for d, alpha, a, s in combos:
        params = make_params(d, alpha, a)
        rep = riesz_equivalence_check(params, s, n_triples=200, seed=11,
                                      band_bound=50.0)
        assert rep.verdict == "pass", (d, alpha, a, s, rep.notes)
        assert rep.samples == 200
        # both geometric cases must actually have been exercised
        assert sum("band" in n for n in rep.notes) == 2, rep.notes
    assert time.perf_counter() - t0 < 30.0


def test_05_discrete_symbol_oracle(grid_2048):
    t0 = time.perf_counter()
    op = build_fractional_laplacian(grid_2048, 1.0)
    r = grid_2048.nodes
    quarter = grid_2048.n // 4
    for sigma in (0.3, 0.5, 0.7):
        out = apply_function(op, lambda lam: lam, r ** -sigma)
        predicted = -psi(3, 1.0, sigma) * r ** -(sigma + 1.0)
        rel = np.abs(out - predicted) / np.abs(predicted)
        worst = float(np.max(rel[quarter:-quarter]))
        assert worst <= 1e-2, (sigma, worst)
    elapsed = time.perf_counter() - t0 + _timings.get("grid_2048_build", 0.0)
    _timings["symbol_oracle_total"] = elapsed
    assert elapsed < 120.0


def test_06_semibounded_at_critical_coupling(default_grid):
    t0 = time.perf_counter()
    params = make_params(3, 1.0, a_star(3, 1.0))
    raw = _symmetric_free_matrix(default_grid, 1.0)
    raw = raw + np.diag(params.a * default_grid.nodes ** -1.0)
    lam = np.linalg.eigvalsh(raw)
    spec_radius = max(abs(lam[0]), abs(lam[-1]))
    assert lam[0] >= -1e-8 * spec_radius, (lam[0], spec_radius)
    elapsed = time.perf_counter() - t0
    assert elapsed + _timings.get("symbol_oracle_total", 0.0) < 120.0


# Median and worst relative error of the t = 1 Poisson kernel on the
# default box at n = 1024, per d, at today's measured values (the d = 3
# worst-case bound predates them), and the most negative kernel entry
# relative to the largest.  d = 2 has entries down to -7.5e-9 of the
# largest, so its sign gate is relative; d >= 3 keeps the absolute one.
_POISSON_GATES = {2: (3.5e-3, 7e-2), 3: (1e-3, 5e-2), 4: (2e-3, 7e-2), 5: (3e-3, 1.1e-1)}


def test_07_poisson_kernel_anchor(default_grid):
    t0 = time.perf_counter()
    for d, (median_gate, worst_gate) in _POISSON_GATES.items():
        grid = default_grid if d == 3 else build_log_grid(d, 1e-3, 1e3, 1024)
        op = build_hardy_operator(grid, make_params(d, 1.0, 0.0))
        kernel = heat_kernel_matrix(op, 1.0)
        floor = -1e-8 * float(kernel.max()) if d == 2 else -1e-10
        assert float(kernel.min()) >= floor, (d, float(kernel.min()))
        rng = np.random.default_rng(404)
        n = grid.n
        i, j = rng.integers(n // 4, 3 * n // 4, size=(150, 2)).T
        exact = poisson_radial_average(1.0, grid.nodes[i], grid.nodes[j], d)
        rel = np.abs(kernel[i, j] - exact) / exact
        assert np.median(rel) <= median_gate, (d, np.median(rel))
        assert rel.max() <= worst_gate, (d, rel.max())
    assert time.perf_counter() - t0 < 60.0


def test_08_norm_sandwich(default_grid):
    t0 = time.perf_counter()
    crit = a_star(3, 1.0)
    free = build_fractional_laplacian(default_grid, 1.0)
    rng = np.random.default_rng(88)
    vectors = rng.standard_normal((200, default_grid.n))
    w = default_grid.weights
    for a in (crit / 2.0, -crit / 2.0):
        op = build_hardy_operator(default_grid, make_params(3, 1.0, a))
        coeff_free = free.modes.T @ (w[:, None] * vectors.T)
        coeff_full = op.modes.T @ (w[:, None] * vectors.T)
        for s in (0.25, 0.5, 0.75):
            factor = (1.0 - a / crit) ** s
            q_free = np.sum(free.eigenvalues[:, None] ** s * coeff_free ** 2, axis=0)
            q_full = np.sum(op.eigenvalues[:, None] ** s * coeff_full ** 2, axis=0)
            if a < 0.0:
                lower, upper = factor * q_free, q_free
            else:
                lower, upper = q_free, factor * q_free
            slack = 1e-6
            assert np.all(q_full >= lower * (1.0 - slack)), (a, s)
            assert np.all(q_full <= upper * (1.0 + slack)), (a, s)
    assert time.perf_counter() - t0 < 30.0


def test_09_threshold_dichotomy(default_grid):
    t0 = time.perf_counter()
    params = make_params(3, 1.0, a_star(3, 1.0))

    stable = generalized_hardy_constant(params, 0.5)
    assert stable.verdict == "pass", stable.notes
    assert stable.empirical_upper / stable.empirical_lower < 2.0

    growing = generalized_hardy_constant(params, 1.5)
    assert growing.verdict == "diverging", growing.notes
    assert growing.empirical_upper / growing.empirical_lower >= 10.0

    fam = TestFamily("singular-cutoff")
    _, _, (ok, bad) = sweep_by_power(params, [0.9, 1.5], fam, default_grid)
    assert ok.verdict == "pass", ok.notes
    assert bad.verdict == "diverging", bad.notes
    assert time.perf_counter() - t0 < 600.0


def test_10_reverse_bound_ladder():
    t0 = time.perf_counter()
    crit = a_star(3, 1.0)
    for a in (crit, crit / 2.0):
        params = make_params(3, 1.0, a)
        exact = reverse_hardy_constant(params, 2.0)
        assert exact.verdict == "pass", exact.notes
        assert abs(exact.empirical_upper - abs(a)) <= 1e-6
        for s in (0.5, 1.0, 1.5):
            rep = reverse_hardy_constant(params, s)
            assert rep.verdict == "pass", (a, s, rep.notes)
    assert time.perf_counter() - t0 < 600.0


def test_11_potential_kernel_ordering(default_grid):
    t0 = time.perf_counter()
    crit = a_star(3, 1.0)
    pot = PotentialSpec(
        profile=lambda r: crit * r ** -1.0 * 0.5 * (1.0 + np.exp(-r)),
        a=crit,
        a_tilde=crit / 2.0,
    )
    params = make_params(3, 1.0, crit)
    op_low = build_hardy_operator(default_grid, params)
    op_mid = build_potential_operator(default_grid, 1.0, pot)
    op_high = build_hardy_operator(default_grid, make_params(3, 1.0, crit / 2.0))
    for t in (0.1, 1.0, 10.0):
        k_low = heat_kernel_matrix(op_low, t)
        k_mid = heat_kernel_matrix(op_mid, t)
        k_high = heat_kernel_matrix(op_high, t)
        assert float((k_low - k_mid).min()) >= -1e-10, t
        assert float((k_mid - k_high).min()) >= -1e-10, t

    rep = difference_envelope_check(
        params, [0.1, 1.0, 10.0], sample_pairs=200,
        potential=pot, grid=default_grid, seed=0,
    )
    assert rep.verdict == "pass", rep.notes
    assert math.isfinite(rep.empirical_upper)
    assert rep.empirical_upper > 0.0
    assert time.perf_counter() - t0 < 300.0


def test_12_benchmark_anchors_hold_their_measured_accuracy(tmp_path, capsys):
    # The benchmark's ladder and heat anchors, gated just above their
    # measured values (2.33e-11 and 9.3467e-3 on 2 cores), far inside the
    # benchmark's own bounds.
    from hardyops.cli import main

    t0 = time.perf_counter()
    target = math.sqrt(0.5 * math.pi)
    gen = generalized_hardy_constant(make_params(3, 1.0, 0.0), 1.0)
    worst = max(abs(gen.empirical_lower - target), abs(gen.empirical_upper - target)) / target
    assert worst <= 2.4e-11, worst

    out_json = tmp_path / "heat.json"
    assert main(["heat-verify", "--d", "3", "--alpha", "1", "--a", "0", "--t", "1",
                 "--out-json", str(out_json)]) == 0
    capsys.readouterr()
    report = json.loads(out_json.read_text())["reports"][0]
    band = max(abs(report["empirical_lower"] - 1.0), abs(report["empirical_upper"] - 1.0))
    assert band <= 9.35e-3, band
    assert time.perf_counter() - t0 < 60.0
