import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyops.cli import build_parser, main
from hardyops.kernels import riesz_exponent_window
from hardyops.specfun import a_star, hardy_constant, make_params

CRITICAL = "-0.6366197723675814"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# constants and scalar commands

def test_constants_prints_anchor_values(capsys):
    rc, out, _ = run(capsys, "constants", "--d", "3", "--alpha", "1")
    assert rc == 0
    assert "hardy_constant = 0.6366197724" in out
    assert "a_star = -0.6366197724" in out
    assert "a_star_star = -0.5000000000" in out
    assert "delta" not in out


def test_constants_with_coupling_prints_delta(capsys):
    rc, out, _ = run(capsys, "constants", "--d", "3", "--alpha", "1", "--a", "0")
    assert rc == 0
    assert "delta = 0.0000000000" in out


def test_constants_reports_undefined_second_threshold(capsys):
    rc, out, _ = run(capsys, "constants", "--d", "3", "--alpha", "1.5")
    assert rc == 0
    assert "undefined" in out


def test_validation_failure_exits_one(capsys):
    rc, _, err = run(capsys, "constants", "--d", "3", "--alpha", "2")
    assert rc == 1
    assert err != ""


def test_unknown_command_exits_one(capsys):
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 1


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "constants" in out


def test_psi_command(capsys):
    rc, out, _ = run(capsys, "psi", "--d", "3", "--alpha", "1", "--sigma", "1")
    assert rc == 0
    assert "psi(sigma=1) = -0.6366197724" in out


def test_non_convergence_exits_three(capsys):
    rc, _, err = run(capsys, "psi-inv", "--d", "3", "--alpha", "1", "--a", "1e300")
    assert rc == 3
    assert err != ""


def test_integrator_non_convergence_exits_three_after_the_reports_before_it(capsys, tmp_path):
    # At s = 1e-6 the time integrand falls off like t^{s/2} as t -> 0, too
    # slowly to turn negligible before the underflow boundary; s = 0.5,
    # integrated first, is reported.
    out_json, out_csv = tmp_path / "riesz.json", tmp_path / "riesz.csv"
    rc, _, err = run(capsys, "riesz-verify", "--d", "3", "--alpha", "1", "--a", "0",
                     "--s", "0.5,1e-6", "--out-json", str(out_json), "--out-csv", str(out_csv))
    failure = "ConvergenceError: left tail did not decay before the underflow boundary"
    assert rc == 3
    assert err == "error: left tail did not decay before the underflow boundary\n"
    header, passed, failed = out_csv.read_text().splitlines()
    assert header == "d,alpha,a,delta,s,ratio_min,ratio_max,spread,verdict"
    assert passed.startswith("3,1.0,0.0,0.0,0.5,") and passed.endswith(",pass")
    assert failed == f"FAILURE,{failure},,,,,,,"
    payload = json.loads(out_json.read_text())
    assert payload["verdict"] == "error"
    assert payload["failure"] == failure
    [report] = payload["reports"]
    assert report["params"]["s"] == 0.5
    assert report["verdict"] == "pass"


def test_schur_finite_and_divergent(capsys):
    rc, out, _ = run(capsys, "schur", "--d", "3", "--beta", "1", "--delta-plus", "0")
    assert rc == 0
    assert "schur_weight_integral = 18.8495559215" in out
    assert "status = finite" in out
    rc, out, _ = run(capsys, "schur", "--d", "3", "--beta", "3.5", "--delta-plus", "0")
    assert rc == 0
    assert "status = divergent" in out
    assert "inf" in out


def test_schur_is_closed_form_without_tolerance(capsys, tmp_path):
    out_json = tmp_path / "schur.json"
    rc, _, _ = run(capsys, "schur", "--d", "3", "--beta", "1", "--out-json", str(out_json))
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert "tol" not in payload["config"]
    assert payload["reports"][0]["values"]["value"] == pytest.approx(6.0 * math.pi, rel=1e-15)
    rc, _, err = run(capsys, "schur", "--d", "3", "--beta", "1", "--tol", "1e-8")
    assert rc == 1
    assert "--tol" in err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_contract(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    rc, _, _ = run(
        capsys, "sweep", "--d", "3", "--alpha", "1", "--a", "0",
        "--s", "1.0", "--grid-n", "256", "--out-csv", str(out_csv),
    )
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "d,alpha,a,delta,s,family,member_id,ratio_forward,ratio_backward"
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "3"
        # floats are emitted as shortest round-trip reprs
        assert cells[7] == "1.0"
        assert cells[8] == "1.0"


def test_sweep_divergence_detected_exits_two(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--d", "3", "--alpha", "1", "--a", CRITICAL,
        "--s", "1.5", "--family", "singular-cutoff", "--grid-n", "512",
    )
    assert rc == 2
    assert "diverging" in out


def test_sweep_rejects_bad_family(capsys):
    rc, _, _ = run(capsys, "sweep", "--d", "3", "--alpha", "1", "--a", "0",
                   "--family", "nope", "--grid-n", "256")
    assert rc == 1


def test_sweep_rejects_bad_eps(capsys, tmp_path):
    out_json = tmp_path / "sweep.json"
    rc, _, _ = run(capsys, "sweep", "--d", "3", "--alpha", "1", "--a", "0",
                   "--eps", "0.5", "--grid-n", "256", "--out-json", str(out_json))
    assert rc == 1
    payload = json.loads(out_json.read_text())
    assert payload["failure"] == "DomainError: eps must lie in (0, 0.03), got 0.5"


def test_sweep_byte_identical_reruns(capsys, tmp_path):
    args = ["sweep", "--d", "3", "--alpha", "1", "--a", CRITICAL,
            "--s", "0.5", "--grid-n", "256"]
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert main(args + ["--out-csv", str(p1)]) == 0
    capsys.readouterr()
    assert main(args + ["--out-csv", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_has_no_seed(capsys, tmp_path):
    # A sweep draws nothing at random, so a seed would only echo in its config.
    args = ["sweep", "--d", "3", "--alpha", "1", "--s", "0.5", "--grid-n", "256"]
    rc, _, err = run(capsys, *args, "--seed", "7")
    assert rc == 1
    assert "--seed" in err
    out_json = tmp_path / "sweep.json"
    rc, _, _ = run(capsys, *args, "--out-json", str(out_json))
    assert rc == 0
    assert "seed" not in json.loads(out_json.read_text())["config"]


def test_sweep_rejects_a_bad_power_before_any_row(capsys, tmp_path):
    out_csv = tmp_path / "bad.csv"
    rc, _, err = run(
        capsys, "sweep", "--d", "3", "--alpha", "1", "--a", "0",
        "--s", "0.5,2.5", "--grid-n", "256", "--out-csv", str(out_csv),
    )
    assert rc == 1
    assert "s=2.5 outside (0, 2]" in err
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("FAILURE,")


def test_sweep_computes_each_power_norm_once(capsys, tmp_path, monkeypatch):
    from hardyops import verify
    from hardyops.operators import build_log_grid
    from hardyops.specfun import make_params

    power_norm = verify._power_norm
    calls = []

    def counting(op, vec, s):
        calls.append(s)
        return power_norm(op, vec, s)

    monkeypatch.setattr(verify, "_power_norm", counting)
    out_json = tmp_path / "sweep.json"
    rc, _, _ = run(
        capsys, "sweep", "--d", "3", "--alpha", "1", "--a", CRITICAL,
        "--s", "0.5,1.5", "--family", "singular-cutoff", "--grid-n", "256",
        "--out-json", str(out_json),
    )
    assert rc == 2
    # two powers x eight members x (free, coupled) operator
    assert len(calls) == 2 * 8 * 2
    monkeypatch.undo()

    # Each power's report is the one a sweep of that power alone gives.
    params = make_params(3, 1.0, float(CRITICAL))
    family = verify.TestFamily("singular-cutoff")
    grid = build_log_grid(3, verify.DEFAULT_R_MIN, verify.DEFAULT_R_MAX, 256)
    reports = json.loads(out_json.read_text())["reports"]
    for s, report in zip((0.5, 1.5), reports):
        _, _, (alone,) = verify.sweep_by_power(params, [s], family, grid)
        assert json.loads(json.dumps(alone.to_dict())) == report


def _readme_usage_commands() -> list:
    """The argv of every command in README's usage block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in usage.splitlines() if line.startswith("hardyops ")]


def test_importing_the_cli_loads_no_heavy_scipy_module(tmp_path):
    # The package runs on numpy alone: importing the CLI loads no scipy
    # module, and every README command exits 0, as it does with scipy
    # installed, in a fresh interpreter where importing scipy fails.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hardyops.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"

    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from hardyops.cli import main; sys.exit(main(sys.argv[1:]))")
    commands = _readme_usage_commands()
    assert len(commands) == 10
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", blocked, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)


# ---------------------------------------------------------------------------
# json reports and failure markers

def test_json_report_structure(capsys, tmp_path):
    out_json = tmp_path / "rep.json"
    rc, _, _ = run(capsys, "constants", "--d", "3", "--alpha", "1",
                   "--out-json", str(out_json))
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert set(doc) == {"command", "config", "reports", "verdict"}
    assert doc["command"] == "constants"
    assert doc["verdict"] == "pass"
    assert doc["config"]["d"] == 3


def test_failure_marker_row_after_partial_success(capsys, tmp_path):
    out_csv = tmp_path / "partial.csv"
    out_json = tmp_path / "partial.json"
    rc, _, err = run(
        capsys, "riesz-verify", "--d", "3", "--alpha", "1", "--a", "0",
        "--s", "0.5,50", "--out-csv", str(out_csv), "--out-json", str(out_json),
    )
    assert rc == 1
    assert err != ""
    lines = out_csv.read_text().splitlines()
    header_width = len(lines[0].split(","))
    marker = lines[-1].split(",")
    assert marker[0] == "FAILURE"
    assert len(marker) == header_width
    # the earlier s value still produced its rows
    assert len(lines) > 2
    doc = json.loads(out_json.read_text())
    assert doc["verdict"] == "error"
    assert "failure" in doc


@pytest.mark.parametrize("command", ["riesz-verify", "heat-verify", "diff-verify"])
def test_negative_seed_is_a_bad_option_value(capsys, tmp_path, command):
    out_json = tmp_path / "rep.json"
    rc, out, err = run(capsys, command, "--d=3", "--alpha=1", "--seed=-1",
                       f"--out-json={out_json}")
    assert rc == 1
    assert err == "error: expected a non-negative integer, got '-1'\n"
    assert out == "" and not out_json.exists()


@pytest.mark.parametrize("argv", [
    ("riesz-verify", "--d=3", "--alpha=1", "--tol=0.5"),
    ("heat-verify", "--d=3", "--alpha=1", "--tol=0"),
])
def test_band_bound_below_one_is_a_domain_error(capsys, tmp_path, argv):
    out_json = tmp_path / "rep.json"
    rc, _, err = run(capsys, *argv, f"--out-json={out_json}")
    assert rc == 1
    assert err.startswith("error: band_bound must be >= 1")
    doc = json.loads(out_json.read_text())
    assert doc["verdict"] == "error"
    assert doc["failure"].startswith("DomainError: band_bound must be >= 1")


def test_construction_error_exits_one(capsys, tmp_path):
    # Ten nodes are too few for the near-field solve of the operator build.
    out_json = tmp_path / "rep.json"
    rc, _, err = run(capsys, "heat-verify", "--d", "3", "--alpha", "1", "--grid-n", "10",
                     f"--out-json={out_json}")
    assert rc == 1
    assert err.startswith("error: grid too coarse")
    doc = json.loads(out_json.read_text())
    assert doc["verdict"] == "error"
    assert doc["failure"].startswith("ConstructionError")


# ---------------------------------------------------------------------------
# exit codes follow the report verdicts

# (argv, exit code, report verdicts): every command, with passes, failed
# and diverging checks, validation errors (1, an infinite coupling among
# them) and non-convergence (3).
_CONTRACT_CASES = [
    (("constants", "--d=3", "--alpha=1"), 0, ["pass"]),
    (("constants", "--d=3", "--alpha=1", "--a=inf"), 1, []),
    (("constants", "--d=3", "--alpha=1", "--a=1e300"), 3, []),
    (("psi", "--d=3", "--alpha=1", "--sigma=0.5"), 0, ["pass"]),
    (("psi", "--d=3", "--alpha=1", "--sigma=5"), 1, []),
    (("psi-inv", "--d=3", "--alpha=1", "--a=-0.5"), 0, ["pass"]),
    (("psi-inv", "--d=3", "--alpha=1", "--a=inf"), 1, []),
    (("psi-inv", "--d=3", "--alpha=1", "--a=1e300"), 3, []),
    (("schur", "--d=3", "--beta=3.5"), 0, ["pass"]),
    (("kernel-eval", "--d=3", "--alpha=1", "--rx=1", "--ry=2", "--rxy=2.5"), 0, ["pass"]),
    (("kernel-eval", "--d=3", "--alpha=1", "--t=1,-1", "--rx=1", "--ry=2", "--rxy=2.5"), 1, []),
    (("kernel-eval", "--d=3", "--alpha=1", "--a=1e300", "--rx=1", "--ry=2", "--rxy=2.5"), 3, []),
    (("riesz-verify", "--d=3", "--alpha=1", "--a=-0.3", "--s=0.5,1", "--seed=2"), 0,
     ["pass", "pass"]),
    (("riesz-verify", "--d=3", "--alpha=1", "--a=-0.3", "--s=0.5,1", "--seed=2", "--tol=1.3"), 2,
     ["fail", "pass"]),
    (("riesz-verify", "--d=3", "--alpha=1", "--s=0.5,50"), 1, ["pass"]),
    (("heat-verify", "--d=3", "--alpha=1", "--t=1", "--grid-n=256"), 0, ["pass"]),
    (("heat-verify", "--d=3", "--alpha=1", "--a=-0.3", "--t=0.5,1", "--grid-n=256",
      "--r-min=1e-2", "--r-max=1e2", "--tol=1"), 2, ["fail", "fail"]),
    (("diff-verify", "--d=3", "--alpha=1", "--a=0.3", "--grid-n=256"), 0, ["pass"]),
    (("diff-verify", "--d=3", "--alpha=1", f"--a={CRITICAL}", "--a-tilde=inf", "--grid-n=128"),
     1, []),
    (("sweep", "--d=3", "--alpha=1", "--a=0", "--s=1", "--grid-n=256"), 0, ["pass"]),
    (("sweep", "--d=3", "--alpha=1", f"--a={CRITICAL}", "--s=1.2", "--grid-n=256"), 2, ["fail"]),
    (("sweep", "--d=3", "--alpha=1", f"--a={CRITICAL}", "--s=0.5,1.5", "--family=singular-cutoff",
      "--grid-n=256"), 2, ["pass", "diverging"]),
    (("sweep", "--d=3", "--alpha=1", "--a=1e300", "--grid-n=128"), 3, []),
    (("suite", "--quick"), 0, ["pass"] * 7),
    (("schur", "--d=-3", "--beta=1"), 1, []),
    (("schur", "--d=1", "--beta=1"), 1, []),
    # A sweep's pass bound must be positive; --tol 0 used to fail every ratio.
    (("sweep", "--d=3", "--alpha=1", "--a=0", "--s=1", "--grid-n=256", "--tol=0"), 1, []),
    (("heat-verify", "--d=3", "--alpha=1", "--a=-0.3", "--t=1,1e9", "--grid-n=256"), 1, ["pass"]),
]


@pytest.mark.parametrize("argv, code, verdicts", _CONTRACT_CASES,
                         ids=[f"{case[0][0]}-{case[1]}-{i}" for i, case in enumerate(_CONTRACT_CASES)])
def test_exit_code_follows_the_report_verdicts(capsys, tmp_path, argv, code, verdicts):
    out_json = tmp_path / "rep.json"
    rc, _, err = run(capsys, *argv, f"--out-json={out_json}")
    doc = json.loads(out_json.read_text())
    assert (rc, [report["verdict"] for report in doc["reports"]]) == (code, verdicts)
    if rc in (1, 3):
        # an error wins over any verdict emitted before it
        assert doc["verdict"] == "error" and "failure" in doc
        assert err.startswith("error: ")
    else:
        assert (rc == 0) == all(verdict == "pass" for verdict in verdicts)
        assert doc["verdict"] == ("pass" if rc == 0 else "fail")
        assert "failure" not in doc and err == ""


def test_suite_reports_a_failed_check(capsys, monkeypatch, tmp_path):
    from hardyops import cli
    from hardyops.specfun import psi_inv

    monkeypatch.setattr(cli, "psi_inv", lambda d, alpha, a: psi_inv(d, alpha, a) + 1e-6)
    out_json = tmp_path / "suite.json"
    rc, out, _ = run(capsys, "suite", "--quick", f"--out-json={out_json}")
    assert rc == 2
    assert out.splitlines()[-1] == "suite: fail"
    doc = json.loads(out_json.read_text())
    assert doc["verdict"] == "fail"
    failed = [report["check_name"] for report in doc["reports"] if report["verdict"] != "pass"]
    assert failed == ["psi-roundtrip"]


def test_suite_sweep_row_fails_on_a_perturbed_ratio(capsys, monkeypatch, tmp_path):
    from hardyops import verify

    sweep_by_power = verify.sweep_by_power

    def perturbed(*args, **kwargs):
        rows, notes, reports = sweep_by_power(*args, **kwargs)
        for row in rows:
            row["ratio_forward"] *= 1.01
        return rows, notes, reports

    monkeypatch.setattr(verify, "sweep_by_power", perturbed)
    out_json = tmp_path / "suite.json"
    rc, out, _ = run(capsys, "suite", "--quick", f"--out-json={out_json}")
    assert rc == 2
    assert "sweep-s1-closed-form: fail" in out.splitlines()
    doc = json.loads(out_json.read_text())
    failed = [report["check_name"] for report in doc["reports"] if report["verdict"] != "pass"]
    assert failed == ["sweep-s1-closed-form"]


# ---------------------------------------------------------------------------
# one parser per process: what main writes does not depend on earlier calls

_FRESH_MAIN = "import sys; from hardyops.cli import main; sys.exit(main(sys.argv[1:]))"
_WIDTH = "100"  # argparse wraps help text to COLUMNS


def _fresh_interpreter(argv, cwd):
    """Exit code and stdout bytes of main(argv) in a new Python process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, COLUMNS=_WIDTH,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout


def _this_interpreter(argv):
    """Exit code and stdout bytes of main(argv) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue().encode()


# Commands run in this process before the one compared: passes, failed
# checks, validation errors of each kind and help output.
_EARLIER = [
    ("constants", "--d=3", "--alpha=1", "--a=0"),
    ("psi", "--d=4", "--alpha=1.5", "--sigma=0.25"),
    ("riesz-verify", "--d=2", "--alpha=0.75", "--s=0.3,0.6", "--seed=3", "--tol=1"),
    ("riesz-verify", "--d=3", "--alpha=1", "--s=50"),
    ("riesz-verify", "--d=3", "--alpha=1", "--seed=-4"),
    ("riesz-verify", "--d=3", "--bogus=1"),
    ("riesz-verify", "--help"),
    ("schur", "--d=3", "--beta=1"),
    ("no-such-command",),
]


@st.composite
def riesz_argv(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    alpha = draw(st.floats(min_value=0.5, max_value=1.9))
    low = a_star(d, alpha)
    a = low + draw(st.floats(min_value=0.15, max_value=1.0)) * (0.5 * hardy_constant(d, alpha) - low)
    window = riesz_exponent_window(make_params(d, alpha, a))
    shares = draw(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=2))
    argv = ["riesz-verify", f"--d={d}", f"--alpha={alpha!r}", f"--a={a!r}",
            "--s=" + ",".join(repr(u * window) for u in shares),
            f"--seed={draw(st.integers(min_value=0, max_value=2**32 - 1))}"]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(st.floats(min_value=1.0, max_value=100.0))!r}")
    return argv


@settings(max_examples=4, deadline=None)
@given(argv=riesz_argv(), earlier=st.permutations(_EARLIER))
def test_riesz_outputs_do_not_depend_on_earlier_calls(argv, earlier, tmp_path_factory):
    out = tmp_path_factory.mktemp("riesz")
    argv = argv + [f"--out-json={out / 'rep.json'}", f"--out-csv={out / 'rep.csv'}"]

    def written():
        files = [(out / name).read_bytes() for name in ("rep.json", "rep.csv")]
        for name in ("rep.json", "rep.csv"):
            (out / name).unlink()
        return files

    fresh = _fresh_interpreter(argv, out), written()
    for other in earlier:
        _this_interpreter(other)
    shared = _this_interpreter(argv), written()
    assert shared == fresh  # exit code, stdout, JSON and CSV, byte for byte


@pytest.mark.parametrize("argv", [("--help",), ("riesz-verify", "--help")])
def test_help_text_does_not_depend_on_earlier_calls(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", _WIDTH)
    fresh = _fresh_interpreter(argv, tmp_path)
    for other in _EARLIER:
        _this_interpreter(other)
    assert _this_interpreter(argv) == fresh
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# config files

def test_config_file_supplies_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\nalpha = 1\n# comment line\nsigma = 0.5\n")
    rc, out, _ = run(capsys, "psi", "--config", str(cfg))
    assert rc == 0
    assert "psi(sigma=0.5) = -0.5000000000" in out
    rc, out, _ = run(capsys, "psi", "--config", str(cfg), "--sigma", "1")
    assert rc == 0
    assert "psi(sigma=1) = -0.6366197724" in out


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 3\nalpha = 1\nsigma = 0.5\nbogus = 1\n")
    rc, _, err = run(capsys, "psi", "--config", str(cfg))
    assert rc == 1
    assert "bogus" in err


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 3\nalpha 1\n")
    rc, _, err = run(capsys, "psi", "--config", str(cfg))
    assert rc == 1
    assert ":2:" in err


def test_missing_required_option_exits_one(capsys):
    rc, _, err = run(capsys, "psi", "--d", "3", "--alpha", "1")
    assert rc == 1
    assert "sigma" in err


# ---------------------------------------------------------------------------
# suite

def test_suite_quick_passes(capsys, tmp_path):
    out_json = tmp_path / "suite.json"
    rc, out, _ = run(capsys, "suite", "--quick", "--out-json", str(out_json))
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert doc["verdict"] == "pass"
    assert len(doc["reports"]) == 7
    for rep in doc["reports"]:
        assert rep["verdict"] == "pass", rep["check_name"]


_QUICK_ROWS = [
    "constants-anchors",
    "psi-roundtrip",
    "riesz-time-anchor",
    "schur-anchor",
    "sweep-s1-closed-form",
    "reverse-zero-coupling",
    "difference-zero-coupling",
]


@pytest.mark.parametrize("argv, rows", [
    (("suite", "--quick"), _QUICK_ROWS),
    (("suite",), _QUICK_ROWS + ["heat-poisson-exact", "generalized-hardy-anchor"]),
])
def test_suite_row_names_in_order(capsys, tmp_path, argv, rows):
    out_json, out_csv = tmp_path / "suite.json", tmp_path / "suite.csv"
    rc, out, _ = run(capsys, *argv, f"--out-json={out_json}", f"--out-csv={out_csv}")
    assert rc == 0
    assert [report["check_name"] for report in json.loads(out_json.read_text())["reports"]] == rows
    assert [line.split(",")[0] for line in out_csv.read_text().splitlines()[1:]] == rows
    assert out.splitlines() == [f"{row}: pass" for row in rows] + ["suite: pass"]
