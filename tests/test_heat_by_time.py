"""heat-verify's times share one Hardy operator, made explicit.

``verify.heat_sandwich_by_time`` yields, time by time, the report that a
run with that time alone gives, from a single operator build.
The CLI's ``heat-verify`` iterates it, so one command runs one ``eigh``
however many ``--t`` it has, and its outputs are those of the per-time
checks, up to the first time that fails.
"""

import json

import pytest

from hardyops import verify
from hardyops.cli import main
from hardyops.errors import DomainError
from hardyops.operators import build_log_grid
from hardyops.specfun import make_params
from hardyops.verify import heat_sandwich_by_time

# Every time lies inside each case's reliable window on this box; 1.0 twice.
TIMES = [0.5, 1.0, 2.0, 1.0]
BOX = ["--grid-n=128", "--r-min=1e-2", "--r-max=1e2"]


def _count_builds(monkeypatch) -> list:
    builds = []
    real = verify.build_hardy_operator

    def counting(grid, params):
        builds.append(params)
        return real(grid, params)

    monkeypatch.setattr(verify, "build_hardy_operator", counting)
    return builds


# Exact Poisson branch, and the profile branch at d = 3 and d = 4.
@pytest.mark.parametrize("d, alpha, a", [(3, 1.0, 0.0), (3, 1.3, -0.2), (4, 0.7, 0.4)])
def test_reports_equal_the_single_time_check_from_one_build(monkeypatch, d, alpha, a):
    params = make_params(d, alpha, a)
    grid = build_log_grid(d, 1e-2, 1e2, 128)
    builds = _count_builds(monkeypatch)
    reports = list(heat_sandwich_by_time(params, TIMES, 40, grid=grid, seed=7, band_bound=50.0))
    assert len(builds) == 1
    monkeypatch.undo()
    assert len(reports) == len(TIMES)
    for t, report in zip(TIMES, reports):
        [alone] = heat_sandwich_by_time(params, [t], 40, grid=grid, seed=7, band_bound=50.0)
        assert report == alone  # floats compared with ==, so bit for bit


def test_heat_verify_builds_one_operator_per_command(capsys, monkeypatch):
    builds = _count_builds(monkeypatch)
    rc = main(["heat-verify", "--d=3", "--alpha=1.3", "--a=-0.2", "--t=0.5,1,2", *BOX])
    capsys.readouterr()
    assert rc in (0, 2)
    assert len(builds) == 1


def test_errors_surface_at_their_time():
    params = make_params(3, 1.0, -0.3)
    grid = build_log_grid(3, 1e-2, 1e2, 128)
    # Nothing is checked before the first report is asked for; then each
    # time is checked only after the reports of the times before it.
    reports = heat_sandwich_by_time(params, [1.0, 1e9, 2.0], 20, grid=grid)
    assert [next(reports)] == list(heat_sandwich_by_time(params, [1.0], 20, grid=grid))
    with pytest.raises(DomainError, match="no t values inside the reliable window"):
        next(reports)
    reports = heat_sandwich_by_time(params, [1.0, -1.0], 20, grid=grid)
    next(reports)
    with pytest.raises(DomainError, match="t values must be positive"):
        next(reports)
    with pytest.raises(DomainError, match="sample_pairs"):
        next(heat_sandwich_by_time(params, [1.0], 0, grid=grid))
    with pytest.raises(DomainError, match="band_bound"):
        next(heat_sandwich_by_time(params, [1.0], grid=grid, band_bound=0.5))


def _heat_verify(capsys, tmp_path, times: str):
    out_json, out_csv = tmp_path / f"{times}.json", tmp_path / f"{times}.csv"
    rc = main(["heat-verify", "--d=3", "--alpha=1", "--a=-0.3", f"--t={times}", *BOX,
               f"--out-json={out_json}", f"--out-csv={out_csv}"])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, json.loads(out_json.read_text()), out_csv.read_text()


def test_out_of_window_time_writes_the_earlier_report_then_the_failure(capsys, tmp_path):
    rc_one, out_one, _, doc_one, csv_one = _heat_verify(capsys, tmp_path, "1")
    rc, out, err, doc, csv = _heat_verify(capsys, tmp_path, "1,1e9")
    failure = "DomainError: no t values inside the reliable window of this grid"
    assert rc_one == 0 and rc == 1
    assert out == out_one
    assert err == "error: no t values inside the reliable window of this grid\n"
    assert csv == csv_one + f"FAILURE,{failure},,,,,,\n"
    assert doc["reports"] == doc_one["reports"]
    assert doc["failure"] == failure
    assert doc["verdict"] == "error"
    assert doc["config"]["t"] == [1.0, 1e9]
    # The one report is the per-time check's.
    params = make_params(3, 1.0, -0.3)
    [alone] = heat_sandwich_by_time(params, [1.0], grid=build_log_grid(3, 1e-2, 1e2, 128))
    assert doc["reports"] == [json.loads(json.dumps(alone.to_dict()))]
