"""Benchmark for hardyops: closed-loop workloads, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload heat --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process runs one workload as a closed loop with a single client: the
next operation starts when the previous one has returned.  Operations call
the package's public entry points in-process (``hardyops.cli.main`` with a
generated argv, or the ``verify`` ladder functions, which have no CLI
command).  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the wrappers of ``tracing.py`` are
installed and the metrics are the per-layer ones.  ``--workload all`` runs
every workload untraced and traced in child processes and prints every
metric with its unit, plus the tracing overhead.

The package is imported from ``src/`` next to this directory, never from an
installed copy.  BLAS threads are fixed to the number of usable cores before
numpy is imported.  See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT_JSON = ".bench_work/op.json"
OUT_CSV = ".bench_work/op.csv"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Per-layer metrics, the output digest and the verdict counts cover the first
# WINDOW operations of a run, which every run completes whatever its length,
# so they repeat exactly for a seed.
WINDOW = {"heat": 8, "ladder": 4, "riesz": 12}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
EPS = sys.float_info.epsilon


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``hardyops.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hardyops.cli"], cwd=ROOT, env=env,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# accuracy anchors


def _rel(measured: float, expected: float) -> float:
    return abs(measured - expected) / abs(expected)


def _run_cli(argv: list) -> tuple:
    """Call ``hardyops.cli.main`` with captured stdio; returns (code, text)."""
    from hardyops import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def anchors(workload: str) -> list:
    """``(name, relative error, tolerance)`` of the workload's anchors."""
    from hardyops import kernels, quadrature, specfun, verify

    if workload == "heat":
        # Zero coupling at alpha = 1: the exact Poisson kernel makes the
        # kernel/profile band hug 1.
        _clean_outputs()
        code, _ = _run_cli(["heat-verify", "--d", "3", "--alpha", "1", "--a", "0", "--t", "1",
                            "--out-json", OUT_JSON])
        report = json.loads(Path(OUT_JSON).read_text())["reports"][0]
        band = max(abs(report["empirical_lower"] - 1.0), abs(report["empirical_upper"] - 1.0))
        return [("heat_poisson_band", band if code == 0 else math.inf, 0.1)]
    if workload == "ladder":
        target = math.sqrt(0.5 * math.pi)
        gen = verify.generalized_hardy_constant(specfun.make_params(3, 1.0, 0.0), 1.0)
        a = specfun.a_star(3, 1.0)
        rev = verify.reverse_hardy_constant(specfun.make_params(3, 1.0, a), 2.0)
        return [
            ("generalized_hardy", max(_rel(gen.empirical_lower, target),
                                      _rel(gen.empirical_upper, target)), 0.05),
            ("reverse_hardy_s2", max(_rel(rev.empirical_lower, abs(a)),
                                     _rel(rev.empirical_upper, abs(a))), 1e-12),
        ]
    riesz = quadrature.riesz_time_integral(1.0, kernels.KernelTriple(1.0, 1.0, 1.0),
                                           specfun.make_params(3, 1.0, 0.0))
    schur = quadrature.schur_weight_integral(1.0, 0.0, 3)
    return [
        ("riesz_time_integral", _rel(riesz, 16.0 / 7.0), 1e-8),
        ("schur_weight_integral", _rel(schur.value, 6.0 * math.pi), 1e-8),
    ]


# ---------------------------------------------------------------------------
# operations


def _clean_outputs() -> None:
    for name in (OUT_JSON, OUT_CSV):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)


def _check_cli_outputs(op, code: int, payload: dict, csv_text: str) -> bool:
    reports = payload.get("reports", [])
    if payload.get("command") != op.argv[0]:
        return False
    if code in (1, 3):
        return payload.get("verdict") == "error" and "failure" in payload
    header, *rows = csv_text.splitlines()
    return (
        len(reports) == op.expected_reports
        and len(rows) == op.expected_reports
        and payload.get("verdict") == ("pass" if code == 0 else "fail")
        and all(r.get("verdict") in ("pass", "fail", "diverging") for r in reports)
    )


def _check_ladder(report, name: str) -> bool:
    lo, hi = report.empirical_lower, report.empirical_upper
    return (
        report.check_name == name
        and report.samples == 4
        and report.verdict in ("pass", "fail", "diverging")
        and math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi
    )


def run_op(op, tracer=None) -> dict:
    """Run one operation; returns its wall time, outcome and output bytes."""
    from hardyops import cli, errors, specfun, verify

    typed = (errors.DomainError, errors.ConstructionError, errors.ConvergenceError)
    _clean_outputs()
    out = io.StringIO()
    code, error, result = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        if tracer is not None:
            tracer.begin(op.index)
        start = time.perf_counter()
        try:
            if op.argv is not None:
                code = cli.main(list(op.argv) + ["--out-json", OUT_JSON, "--out-csv", OUT_CSV])
            else:
                d, alpha, a, s = op.ladder
                params = specfun.make_params(d, alpha, a)
                result = (verify.generalized_hardy_constant(params, s),
                          verify.reverse_hardy_constant(params, s))
        except Exception as exc:  # counted as a failed operation below
            error = exc
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end()

    record = {"index": op.index, "kind": op.kind, "d": op.d, "alpha": op.alpha, "wall": wall,
              "bytes_out": len(out.getvalue().encode())}
    if error is not None:
        record.update(status="failed", correct=isinstance(error, typed),
                      error=f"{type(error).__name__}: {error}", material=b"")
    elif op.argv is not None:
        json_bytes = Path(OUT_JSON).read_bytes() if os.path.exists(OUT_JSON) else b""
        csv_bytes = Path(OUT_CSV).read_bytes() if os.path.exists(OUT_CSV) else b""
        record["bytes_out"] += len(json_bytes) + len(csv_bytes)
        try:
            correct = code in (0, 1, 2, 3) and _check_cli_outputs(
                op, code, json.loads(json_bytes), csv_bytes.decode())
        except ValueError:
            correct = False
        status = {0: "pass", 2: "fail"}.get(code, "failed")
        record.update(status=status, correct=correct, exit=code,
                      material=json_bytes + b"\0" + csv_bytes)
    else:
        gen, rev = result
        material = b"\0".join(
            json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")).encode() for r in result)
        passed = gen.verdict == "pass" and rev.verdict == "pass"
        record.update(status="pass" if passed else "fail",
                      correct=_check_ladder(gen, "generalized_hardy_constant")
                      and _check_ladder(rev, "reverse_hardy_constant"),
                      verdicts=[gen.verdict, rev.verdict], material=material)
    return record


# ---------------------------------------------------------------------------
# one workload


def tail(values: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  Below 2 * TAIL_BEYOND samples that
    percentile would fall under the median, so the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result line, record)."""
    import tracing
    from workloads import BLOCK, operations

    WORK.mkdir(exist_ok=True)
    setup = None if trace else setup_seconds()
    anchor_list = anchors(workload)

    tracer = uninstall = None
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    stream = operations(workload, seed)
    window = WINDOW[workload]
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while len(records) < window or time.perf_counter() < deadline:
            for _ in range(BLOCK[workload]):
                records.append(run_op(next(stream), tracer))
        loop_wall = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()

    # Output determinism: the first operation again must give the same bytes.
    repeat_identical = run_op(next(operations(workload, seed)))["material"] == records[0]["material"]

    digest = hashlib.sha256()
    for rec in records[:window]:
        digest.update(rec["index"].to_bytes(8, "little") + rec["material"])

    attempted = len(records)
    failed = sum(rec["status"] == "failed" for rec in records)
    walls = [rec["wall"] for rec in records]
    tail_value, tail_pct = tail(walls)
    anchor_err = max(EPS, max(err for _, err, _ in anchor_list))
    correct = (
        all(rec["correct"] for rec in records)
        and repeat_identical
        and all(err <= tol for _, err, tol in anchor_list)
    )

    if trace:
        metrics = tracing.layer_metrics(tracer, set(range(window)))
        metrics["cli.bytes_out"] = sum(rec["bytes_out"] for rec in records[:window]
                                       if rec["kind"] != "ladder")
        metrics["trace.op_s_p50"] = statistics.median(walls)
        coverage = [tracing.op_coverage(tracer, rec["index"], rec["wall"])
                    for rec in records[:window]]
        spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
    else:
        metrics = {
            "setup_s": setup,
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail_value,
            "ops_per_s": (attempted - failed) / loop_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "completed_frac": (attempted - failed) / attempted,
            "anchor_err": anchor_err,
        }
        coverage = None

    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(seed),
        "window": window,
        "digest": digest.hexdigest(),
        "repeat_identical": repeat_identical,
        "pass_frac": sum(rec["status"] == "pass" for rec in records) / attempted,
        "window_pass_frac": sum(rec["status"] == "pass" for rec in records[:window]) / window,
        "failed_frac": failed / attempted,
        "tail": {"percentile": tail_pct, "samples": attempted, "beyond": TAIL_BEYOND},
        "anchors": {name: {"rel_err": err, "tol": tol} for name, err, tol in anchor_list},
        "coverage_min": min(coverage) if coverage else None,
        "ops": [{k: v for k, v in rec.items() if k != "material"} for rec in records],
    }
    units = declared_units()
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, record


# ---------------------------------------------------------------------------
# every workload, untraced and traced


def run_all(seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        untraced, traced = results[0], results[1]
        overhead = (traced["metrics"]["trace.op_s_p50"]["value"]
                    - untraced["metrics"]["op_s_p50"]["value"])
        print(f"== {workload}: correct={untraced['correct'] and traced['correct']} "
              f"attempted={untraced['attempted']} failed={untraced['failed']}")
        for res in (untraced, traced):
            for name, metric in res["metrics"].items():
                print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
        print(f"  {'trace.overhead_s':32s} {overhead:.6g} s")
        combined["metrics"][f"{workload}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
        combined["correct"] &= untraced["correct"] and traced["correct"]
        combined["attempted"] += untraced["attempted"]
        combined["failed"] += untraced["failed"]
    return combined


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("heat", "ladder", "riesz", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardyops" / "__init__.py").is_file():
        print(f"error: no hardyops sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import hardyops

    if SRC not in Path(hardyops.__file__).resolve().parents:
        print(f"error: hardyops imported from {hardyops.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
