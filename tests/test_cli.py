import json
import math

import pytest

from hardyops.cli import main

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


def test_sweep_rejects_bad_eps(capsys):
    rc, _, _ = run(capsys, "sweep", "--d", "3", "--alpha", "1", "--a", "0",
                   "--eps", "0.5", "--grid-n", "256")
    assert rc == 1


def test_sweep_byte_identical_reruns(capsys, tmp_path):
    args = ["sweep", "--d", "3", "--alpha", "1", "--a", CRITICAL,
            "--s", "0.5", "--grid-n", "256", "--seed", "7"]
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert main(args + ["--out-csv", str(p1)]) == 0
    capsys.readouterr()
    assert main(args + ["--out-csv", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


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
    assert len(doc["reports"]) == 8
    for rep in doc["reports"]:
        assert rep["verdict"] == "pass", rep["check_name"]
