"""CLI surface tests: commands, artifacts, exit codes, and the report
byte-determinism contract."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import landersim
from landersim.cli import main

RUN_ARGS = ["run", "--scenario", "static_clear", "--trials", "2",
            "--seed", "0", "--format", "table", "--assert"]


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runA")
    rc = main(RUN_ARGS + ["--out", str(out)])
    return rc, out


@pytest.fixture(scope="module")
def second_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runB")
    rc = main(RUN_ARGS + ["--out", str(out)])
    return rc, out


def test_run_exit_zero(first_run):
    rc, _ = first_run
    assert rc == 0


def test_run_writes_all_artifacts(first_run):
    _, out = first_run
    names = sorted(p.name for p in out.iterdir())
    assert names == ["report.json", "report.txt", "trial_0.csv",
                     "trial_0.json", "trial_1.csv", "trial_1.json"]


def test_trial_csv_parses(first_run):
    _, out = first_run
    with open(out / "trial_0.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "t"
    assert len(rows) > 10
    assert all(len(r) == len(rows[0]) for r in rows)
    float(rows[1][1])                 # px column holds numbers


def test_trial_sidecar_content(first_run):
    _, out = first_run
    d = json.loads((out / "trial_1.json").read_text())
    assert d["status"] == "LANDED"
    assert d["seed"] == 1
    assert d["solve_ms_mean"] > 0     # timing lives in the sidecar
    assert d["terminal"]["touchdown_time"] > 0


def test_report_json_content(first_run):
    _, out = first_run
    text = (out / "report.json").read_text()
    assert "solve_ms" not in text     # wall clock is not in the canonical report
    d = json.loads(text)
    assert d["scenario"] == "static_clear"
    assert d["aggregates"]["success_rate"] == 1.0
    assert len(d["results"]) == 2


def test_report_txt_content(first_run):
    _, out = first_run
    text = (out / "report.txt").read_text()
    assert "aggregates: success 2/2" in text
    assert "solve_ms_mean" in text    # timing does live in the text report


def test_report_json_byte_identical(first_run, second_run):
    _, a = first_run
    rc, b = second_run
    assert rc == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_stdout_json_format(tmp_path, capsys):
    rc = main(["run", "--scenario", "static_clear", "--trials", "1",
               "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "report.json").read_text()


def test_failed_batch_exits_one(tmp_path):
    sc = tmp_path / "hopeless.json"
    sc.write_text(json.dumps({
        "name": "hopeless", "trials": 1, "timeout": 1.0,
        "platform": {"kind": "static", "p0": [2.0, 0.0, 0.0],
                     "top_height": 0.3},
    }))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(sc), "--out", str(out)])
    assert rc == 1
    d = json.loads((out / "report.json").read_text())
    assert d["aggregates"]["n_success"] == 0
    assert "timeout" in d["results"][0]["failure_reason"]


def test_start_past_the_attitude_limit_exits_one(tmp_path):
    # valid, but the first cycle's state faults the model: the trial fails
    # with its reason and no exception escapes the run
    sc = tmp_path / "tilted.json"
    sc.write_text(json.dumps({"x0": [0, 0, 2, 0, 0, 0, 1.7, 0, 0, 0, 0, 0]}))
    out = tmp_path / "out"
    cp = _lander("run", "--scenario", str(sc), "--trials", "2",
                 "--out", str(out))
    assert cp.returncode == 1
    assert "Traceback" not in cp.stderr
    reasons = [r["failure_reason"] for r in
               json.loads((out / "report.json").read_text())["results"]]
    assert len(reasons) == 2
    assert all(r.startswith("plant fault: attitude outside") for r in reasons)


def test_invalid_scenario_exits_two(tmp_path, capsys):
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps({"nmae": "typo"}))
    rc = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown scenario keys" in capsys.readouterr().err
    assert main(["run", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o2")]) == 2


def _exits_two_naming(tmp_path, capsys, scenario, message):
    """Both validate and run reject the scenario with message, and run
    writes nothing."""
    sc = tmp_path / "bad.json"
    sc.write_text(json.dumps(scenario))
    for cmd in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        assert main([*cmd, "--scenario", str(sc)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("budget", ["max_outer", "max_inner",
                                    "max_inner_total"])
def test_zero_iteration_budget_exits_two(tmp_path, capsys, budget):
    # max_inner_total is the one budget a scenario sets; the outer and
    # per-subproblem caps are solver constants
    message = ("iteration budgets" if budget == "max_inner_total"
               else f"unknown nmpc keys: ['{budget}']")
    _exits_two_naming(tmp_path, capsys,
                      {"name": "no_budget", "nmpc": {budget: 0}}, message)


@pytest.mark.parametrize("tol", [0, -1])
def test_nonpositive_tol_stat_exits_two(tmp_path, capsys, tol):
    # the stationarity tolerance is a solver constant
    _exits_two_naming(tmp_path, capsys, {"nmpc": {"tol_stat": tol}},
                      "unknown nmpc keys: ['tol_stat']")


def test_misshapen_field_exits_two_before_running(tmp_path, capsys):
    # a q of the wrong length would fail to broadcast inside the solver
    sc = tmp_path / "short_q.json"
    sc.write_text(json.dumps({"nmpc": {"q": [1, 2]}}))
    for cmd in (["validate"], ["run", "--out", str(tmp_path / "o")]):
        assert main([*cmd, "--scenario", str(sc)]) == 2
        assert "error: invalid scenario: nmpc.q" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trials_override_validated(tmp_path):
    rc = main(["run", "--scenario", "static_clear", "--trials", "0",
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("where", ["flag", "file"])
def test_negative_seed_exits_two(tmp_path, capsys, where):
    if where == "flag":
        args = ["--scenario", "static_clear", "--seed", "-5"]
    else:
        sc = tmp_path / "neg.json"
        sc.write_text(json.dumps({"name": "neg", "seed": -1}))
        args = ["--scenario", str(sc)]
    rc = main(["run", *args, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_output_path_that_is_a_file_exits_two(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output was checked")

    monkeypatch.setattr("landersim.cli.run_trials", no_trials)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    rc = main(["run", "--scenario", "static_clear", "--trials", "1",
               "--out", str(taken)])
    assert rc == 2
    assert "error: cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_noise_override_still_lands(tmp_path):
    rc = main(["run", "--scenario", "static_clear", "--trials", "1",
               "--noise", "mocap", "--out", str(tmp_path), "--assert"])
    assert rc == 0


def test_validate_command(capsys):
    assert main(["validate", "--scenario", "dynamic_obstacle"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects(tmp_path, capsys):
    sc = tmp_path / "inside.json"
    sc.write_text(json.dumps(
        {"cbf": {"obstacles": [{"center": [0.0, 0.0], "radius": 0.2}]}}))
    assert main(["validate", "--scenario", str(sc)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_check_gradients_passes(capsys):
    assert main(["check-gradients", "--scenario", "static_obstacle"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_gradients_tight_tol_fails(capsys):
    rc = main(["check-gradients", "--scenario", "static_obstacle",
               "--tol", "1e-14"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["--points", "0"], ["--points", "-3"],
                                  ["--tol", "0"], ["--tol=-1e-5"],
                                  ["--tol", "nan"], ["--seed", "-1"]])
def test_check_gradients_rejects_invalid_options(capsys, args):
    rc = main(["check-gradients", "--scenario", "static_obstacle", *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "PASS" not in captured.out


def test_console_script_installed():
    exe = shutil.which("lander")
    assert exe, "console script 'lander' not on PATH"
    cp = subprocess.run([exe, "validate", "--scenario", "static_clear"],
                        capture_output=True, text=True)
    assert cp.returncode == 0


def _lander(*args):
    """python -m landersim.cli in a child process that imports the same
    landersim as the tests, installed or not."""
    root = str(Path(landersim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "landersim.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_invocation():
    assert _lander("validate", "--scenario", "static_clear").returncode == 0
