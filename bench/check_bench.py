"""Self-tests of the benchmark.

Run from the repository root (takes about two minutes):

    python3 -m pytest -q bench/check_bench.py

The file is not named ``test_*.py`` so that the package's own test run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hardyops import build_log_grid, kernels, specfun  # noqa: E402

import workloads  # noqa: E402

# Layer -> workload prediction (bench/README.md): metrics that must be
# non-zero on the workload, and metrics that must be exactly zero there.
FIRES = {
    "heat": (
        "specfun.calls", "kernels.angular_average.calls", "kernels.angular_average.s",
        "kernels.triples", "kernels.profile_calls", "kernels.s", "operators.grids",
        "operators.builds", "operators.build.s", "operators.jump_profile.calls",
        "operators.jump_profile.s", "operators.eigh.calls", "operators.eigh.s",
        "operators.eigh.gflop", "operators.heat_kernel.calls", "operators.heat_kernel.s",
        "operators.heat_kernel.mb", "verify.checks", "verify.s", "verify.pairs",
        "cli.calls", "cli.s", "cli.bytes_out",
    ),
    "ladder": (
        "specfun.calls", "operators.grids", "operators.builds", "operators.build.s",
        "operators.jump_profile.calls", "operators.eigh.calls", "operators.eigh.s",
        "operators.eigh.gflop", "verify.checks", "verify.s", "verify.eigvalsh.calls",
        "verify.eigvalsh.s",
    ),
    "riesz": (
        "specfun.calls", "kernels.triples", "kernels.profile_calls", "quadrature.integrals",
        "quadrature.integrand_evals", "quadrature.s", "verify.checks", "verify.s",
        "cli.calls", "cli.s", "cli.bytes_out",
    ),
}
IDLE = {
    "heat": (
        "quadrature.integrals", "quadrature.integrand_evals", "quadrature.s",
        "verify.eigvalsh.calls", "verify.eigvalsh.s",
    ),
    "ladder": (
        "kernels.angular_average.calls", "kernels.angular_average.s", "kernels.triples",
        "kernels.profile_calls", "kernels.s", "quadrature.integrals",
        "quadrature.integrand_evals", "quadrature.s", "operators.heat_kernel.calls",
        "operators.heat_kernel.s", "verify.pairs", "cli.calls", "cli.s", "cli.bytes_out",
    ),
    "riesz": (
        "operators.grids", "operators.builds", "operators.build.s",
        "operators.jump_profile.calls", "operators.jump_profile.s", "operators.eigh.calls",
        "operators.eigh.s", "operators.eigh.gflop", "operators.heat_kernel.calls",
        "operators.heat_kernel.s", "kernels.angular_average.calls", "verify.eigvalsh.calls",
        "verify.pairs",
    ),
}
# Share of an operation's wall time that the spans' self times must cover;
# the rest is the benchmark's bookkeeping around the call.
COVERAGE_SLACK = 0.01


def _take(workload: str, seed: int, n: int) -> list:
    stream = workloads.operations(workload, seed)
    return [next(stream) for _ in range(n)]


def _flag(argv: tuple, name: str) -> str:
    (value,) = [arg.split("=", 1)[1] for arg in argv if arg.startswith(name + "=")]
    return value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert _take(workload, 5, 16) == _take(workload, 5, 16)
    assert _take(workload, 5, 16) != _take(workload, 6, 16)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_draw_is_valid(workload):
    grid = build_log_grid(3, workloads.GRID_R_MIN, workloads.GRID_R_MAX, 1024)
    kinds = []
    for op in _take(workload, 3, 48):
        kinds.append(op.kind)
        assert op.d in workloads.D_VALUES
        assert workloads.ALPHA_RANGE[0] <= op.alpha <= workloads.ALPHA_RANGE[1]
        params = specfun.make_params(op.d, op.alpha, op.a)
        h = specfun.hardy_constant(op.d, op.alpha)
        assert params.a_star <= op.a <= 0.5 * h
        if op.ladder is not None:
            assert workloads.LADDER_S_RANGE[0] <= op.ladder[3] <= workloads.LADDER_S_RANGE[1]
            continue
        assert op.argv[0] == op.kind
        assert float(_flag(op.argv, "--alpha")) == op.alpha
        assert float(_flag(op.argv, "--a")) == op.a
        if op.kind == "riesz-verify":
            window = kernels.riesz_exponent_window(params)
            powers = [float(v) for v in _flag(op.argv, "--s").split(",")]
            assert len(powers) == workloads.RIESZ_POWERS
            assert all(0.05 * window < s < 0.95 * window for s in powers)
            a_lo = workloads.coupling(op.d, op.alpha, workloads.RIESZ_U_RANGE[0])
            assert op.a >= a_lo - 1e-12 * abs(a_lo)
            assert params.delta < 0.95
            continue
        # The window the verify checks apply on the CLI's default grid.
        lo, hi = 10.0 * grid.r_min**op.alpha, grid.r_max**op.alpha / 10.0
        times = [float(v) for v in _flag(op.argv, "--t").split(",")]
        assert len(times) == (workloads.HEAT_TIMES if op.kind == "heat-verify" else 1)
        assert all(lo < t < hi for t in times)
        if any(arg.startswith("--a-tilde=") for arg in op.argv):
            assert op.a <= float(_flag(op.argv, "--a-tilde")) <= 0.5 * h
    if workload == "heat":
        assert kinds[0::2] == ["heat-verify"] * 24
        assert kinds[1::2] == ["diff-verify"] * 24
        diffs = [op for op in _take(workload, 3, 48) if op.kind == "diff-verify"]
        assert [op.argv[-1].startswith("--a-tilde=") for op in diffs] == [False, True] * 12
    assert sorted({op.d for op in _take(workload, 3, 8)}) == list(workloads.D_VALUES)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in workloads.WORKLOADS:
        pair = []
        for _ in range(2):
            proc = _run(workload, 1)
            assert proc.returncode == 0, proc.stderr
            *_, record, result = proc.stdout.strip().splitlines()
            pair.append((json.loads(result), json.loads(record.split(" ", 1)[1])))
        runs[workload] = pair
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_fire_where_predicted_and_idle_elsewhere(traced_runs, workload):
    result, _ = traced_runs[workload][0]
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert [name for name in FIRES[workload] if not metrics[name] > 0] == []
    assert [name for name in IDLE[workload] if metrics[name] != 0] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_outputs_repeat_exactly(traced_runs, workload):
    (first, first_record), (second, second_record) = traced_runs[workload]
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    for key in ("digest", "window_pass_frac", "anchors"):
        assert first_record[key] == second_record[key]
    assert first_record["repeat_identical"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_operation_wall_time(traced_runs, workload):
    _, record = traced_runs[workload][0]
    assert 1.0 - COVERAGE_SLACK <= record["coverage_min"] <= 1.0 + 1e-9


def test_metrics_are_the_declared_ones(traced_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for workload in workloads.WORKLOADS:
        result, _ = traced_runs[workload][0]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == per_layer
    proc = _run("riesz", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == end_to_end
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("heat", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
