"""Harness tests: FPE metric, scenario validation, batch reports and their
canonical serialization, table rendering."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from landersim.harness import (BatchReport, ScenarioConfig, ScenarioError,
                               TrialResult, batch_report, final_point_error,
                               load_scenario, render_table, run_trials,
                               trial_result)
from landersim.ocp import NmpcConfig
from landersim.sim import NoiseSigmas, TrialLog, noise_preset


def _mini_log(drone, plat, seed=0, terminal=True):
    """A log with no rows but a terminal record; enough for the metric."""
    return TrialLog(
        scenario="mini", seed=seed, dt=0.1,
        t=np.zeros(0), states=np.zeros((0, 12)), controls=np.zeros((0, 4)),
        predicted=np.zeros((0, 12)), platform_pos=np.zeros((0, 3)),
        platform_vel=np.zeros((0, 3)), phases=[],
        converged=np.zeros(0, dtype=bool), iterations=np.zeros(0, dtype=int),
        inner_iterations=np.zeros(0, dtype=int),
        kkt=np.zeros(0), defect=np.zeros(0), min_residual=np.zeros(0),
        solve_ms=np.zeros(0), held=np.zeros(0, dtype=bool),
        h=np.zeros((0, 0)),
        terminal={"touchdown_time": 4.2,
                  "drone_position": list(drone),
                  "platform_position": list(plat)} if terminal else None,
        failed=not terminal,
        failure_reason="" if terminal else "timeout after 60 s",
    )


@pytest.fixture(scope="module")
def small_batch():
    sc = dataclasses.replace(load_scenario("static_clear"), trials=2)
    logs = run_trials(sc)
    return sc, logs, batch_report(sc, logs)


# -- final point error -------------------------------------------------------


def test_fpe_zero_at_center():
    log = _mini_log((2.0, 0.0, 0.31), (2.0, 0.0, 0.3))
    assert final_point_error(log) == 0.0


def test_fpe_three_four_five():
    log = _mini_log((0.03, 0.04, 0.3), (0.0, 0.0, 0.3))
    assert final_point_error(log) == pytest.approx(5.0, abs=1e-12)


def test_fpe_three_d_variant():
    log = _mini_log((0.03, 0.04, 0.42), (0.0, 0.0, 0.3))
    assert final_point_error(log) == pytest.approx(5.0, abs=1e-12)


def test_fpe_translation_invariant():
    a = final_point_error(_mini_log((0.1, 0.2, 0.3), (0.0, 0.0, 0.3)))
    b = final_point_error(_mini_log((5.1, -3.8, 0.3), (5.0, -4.0, 0.3)))
    assert a == pytest.approx(b, rel=1e-12)


def test_fpe_requires_terminal():
    with pytest.raises(ValueError, match="terminal"):
        final_point_error(_mini_log((0, 0, 0), (0, 0, 0), terminal=False))


# -- scenario validation -----------------------------------------------------


def test_unknown_top_level_key():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        ScenarioConfig.from_dict({"nmae": "typo"})


def test_unknown_nested_key():
    # cbf_margin, the outer and inner iteration caps and the stationarity
    # tolerance are solver constants, not settings
    for key in ("horizon", "cbf_margin", "max_outer", "max_inner",
                "tol_stat"):
        with pytest.raises(ScenarioError, match="unknown nmpc keys"):
            ScenarioConfig.from_dict({"nmpc": {key: 0.1}})


@pytest.mark.parametrize("d, field", [
    ({"cbf": {"obstacles": [{"center": [1], "radius": 0.2}]}},
     r"cbf\.obstacles\[0\]: center"),
    ({"platform": {"p0": [1]}}, r"platform\.p0"),
    ({"params": None, "noise": 3}, "params"),
    ({"noise": 3}, "noise"),
    ({"timeout": "inf"}, "timeout"),
    ({"timeout": float("inf")}, "timeout"),
    ({"nmpc": {"n": 2.5}}, r"nmpc\.n"),
    ({"nmpc": {"q": [1, 2]}}, r"nmpc\.q"),
    ({"platform": {"kind": "constant_velocity", "vel": [0.5]}},
     r"platform\.vel"),
    ({"trials": 2.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"seed": 2.7}, "seed"),
    ([], "scenario"),
    ({"cbf": []}, "cbf"),
])
def test_field_kind_and_shape_checked(d, field):
    # each value takes the kind and shape of its field's default
    with pytest.raises(ScenarioError, match=f"^{field}"):
        ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("change, field", [
    ({"trials": 2.5}, "trials"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"timeout": math.inf}, "timeout"),
    ({"timeout": math.nan}, "timeout"),
    ({"nmpc": NmpcConfig(n=2.5)}, r"nmpc\.n"),
    ({"noise": NoiseSigmas(pos=math.nan)}, r"noise\.pos"),
])
def test_library_scenario_fields_checked(change, field):
    # a scenario built in code passes the checks of a scenario file, into
    # the fields of the section instances it holds
    with pytest.raises(ScenarioError, match=f"^{field} must be"):
        dataclasses.replace(load_scenario("static_clear"), **change)


def test_readme_scenario_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    sc = ScenarioConfig.from_dict(json.loads(example))
    assert sc.name == "custom" and sc.cbf.n_obstacles == 1


def test_trials_and_timeout_bounds():
    with pytest.raises(ScenarioError, match="trials"):
        ScenarioConfig.from_dict({"trials": 0})
    with pytest.raises(ScenarioError, match="timeout"):
        ScenarioConfig.from_dict({"timeout": -1.0})


def test_x0_inside_safety_circle_rejected():
    d = {"cbf": {"obstacles": [{"center": [0.1, 0.0], "radius": 0.2}]}}
    with pytest.raises(ScenarioError, match="initial state inside"):
        ScenarioConfig.from_dict(d)


def test_platform_path_through_safety_circle_rejected():
    d = {
        "platform": {"kind": "constant_velocity", "p0": [0.0, 0.0, 0.0],
                     "vel": [1.0, 0.0, 0.0]},
        "cbf": {"obstacles": [{"center": [3.0, 0.0], "radius": 0.2}]},
        "x0": {"pos": [-1.0, 2.0, 2.0]},
    }
    with pytest.raises(ScenarioError, match="platform path"):
        ScenarioConfig.from_dict(d)


def test_noise_accepts_preset_name():
    sc = ScenarioConfig.from_dict({"noise": "mocap"})
    assert sc.noise == noise_preset("mocap")
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict({"noise": "vicious"})


def test_x0_forms():
    sc = ScenarioConfig.from_dict({"x0": list(range(12))})
    assert np.array_equal(sc.x0, np.arange(12.0))
    sc = ScenarioConfig.from_dict(
        {"x0": {"pos": [1, 2, 3], "vel": [0.1, 0, 0], "yaw": 0.5}})
    assert np.array_equal(sc.x0[0:3], [1, 2, 3])
    assert sc.x0[8] == 0.5
    with pytest.raises(ScenarioError, match="x0"):
        ScenarioConfig.from_dict({"x0": [1, 2, 3]})


def test_from_json_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        ScenarioConfig.from_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        ScenarioConfig.from_json(bad)


def test_builtin_scenarios_listed_and_loadable():
    for want in ("static_clear", "static_obstacle", "dynamic_clear",
                 "dynamic_obstacle"):
        sc = load_scenario(want)
        assert sc.name == want
        assert sc.trials == 10


def test_load_scenario_from_path(tmp_path):
    p = tmp_path / "custom.json"
    p.write_text(json.dumps({"name": "custom", "trials": 1}))
    sc = load_scenario(str(p))
    assert sc.name == "custom"
    assert sc.trials == 1


# -- trial results and batch reports ------------------------------------------


def test_trial_result_failed_log():
    r = trial_result(_mini_log((0, 0, 0), (0, 0, 0), terminal=False))
    assert r.failed
    assert r.fpe_cm is None and r.touchdown_time is None
    assert "timeout" in r.failure_reason
    assert r.inner_iterations == {"APPROACH": 0, "TRACK": 0, "DESCEND": 0}


def test_trial_result_of_real_trial(small_batch):
    _, logs, _ = small_batch
    r = trial_result(logs[0])
    assert not r.failed
    assert 0.0 <= r.fpe_cm < 5.0
    assert r.touchdown_time > 0
    assert r.min_h is None            # no obstacles in static_clear
    assert r.solve_ms_mean > 0 and r.solve_ms_max >= r.solve_ms_mean


def test_run_trials_seed_sequence(small_batch):
    _, logs, _ = small_batch
    assert [lg.seed for lg in logs] == [0, 1]
    sc = dataclasses.replace(load_scenario("static_clear"), trials=1, seed=5)
    shifted = run_trials(sc)
    assert [lg.seed for lg in shifted] == [5]
    assert batch_report(sc, shifted).base_seed == 5


def test_report_aggregates_over_successes():
    rep = BatchReport(scenario="x", base_seed=0, results=[
        TrialResult(seed=0, failed=False, fpe_cm=2.0, touchdown_time=5.0,
                    min_h=0.5),
        TrialResult(seed=1, failed=False, fpe_cm=4.0, touchdown_time=6.0,
                    min_h=0.1),
        TrialResult(seed=2, failed=True, failure_reason="timeout"),
    ])
    assert rep.n_trials == 3 and rep.n_success == 2
    assert rep.success_rate == pytest.approx(2 / 3)
    assert rep.mean_fpe_cm == pytest.approx(3.0)
    assert rep.max_fpe_cm == pytest.approx(4.0)
    assert rep.min_h == pytest.approx(0.1)


def test_report_json_is_canonical_and_timing_free(small_batch):
    _, _, rep = small_batch
    text = rep.to_json()
    assert text == rep.to_json()
    assert text.endswith("\n")
    assert "solve_ms" not in text
    d = json.loads(text)
    assert d["trials"] == 2
    assert d["aggregates"]["n_success"] == 2


def test_empty_batch_renders():
    rep = BatchReport(scenario="empty", base_seed=0, results=[])
    assert rep.success_rate is None and rep.mean_fpe_cm is None
    text = render_table(rep)
    assert "n/a" in text
    json.loads(rep.to_json())         # serializes despite the nulls


def test_batch_report_of_no_trials():
    sc = dataclasses.replace(load_scenario("static_clear"), seed=7)
    rep = batch_report(sc, [])
    assert rep.n_trials == 0 and rep.base_seed == 7
    assert "trials: 0" in render_table(rep)


def test_render_table_golden(datadir):
    rep = BatchReport(scenario="golden", base_seed=3, results=[
        TrialResult(seed=3, failed=False, fpe_cm=1.25, touchdown_time=4.9,
                    min_h=0.0421, solve_ms_mean=12.34, solve_ms_max=56.78),
        TrialResult(seed=4, failed=True, failure_reason="timeout after 60 s",
                    solve_ms_mean=9.87, solve_ms_max=19.75),
    ])
    expect = (datadir / "golden_report.txt").read_text()
    assert render_table(rep) == expect
