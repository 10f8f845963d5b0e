"""Closed-loop executor tests: noise model, trial-log invariants, and the
model-consistency oracle with the plant forced onto the prediction model."""

import csv
import dataclasses
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landersim import sim
from landersim.dynamics import SimulationFault
from landersim.harness import (ScenarioConfig, ScenarioError, load_scenario,
                               run_trials, trial_result)
from landersim.ocp import NmpcSolver, SolverDiverged
from landersim.platform import PlatformModel
from landersim.sim import (H_FLOOR, NOISE_PRESETS, NoiseSigmas,
                           _surface_under, add_state_noise, noise_preset,
                           perturb_initial_state, run_closed_loop)


@pytest.fixture(scope="module")
def static_log():
    return run_closed_loop(load_scenario("static_clear"), seed=0)


@pytest.fixture(scope="module")
def obstacle_log():
    return run_closed_loop(load_scenario("static_obstacle"), seed=0)


@pytest.fixture(scope="module")
def euler_log():
    # the plant replaced by one step of the prediction model per period
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_plant_step", sim.euler_step)
        return run_closed_loop(load_scenario("static_clear"), seed=0)


# -- noise model -------------------------------------------------------------


def test_none_preset_is_zero():
    assert noise_preset("none").is_zero
    assert not NOISE_PRESETS["mocap"].is_zero


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown noise preset"):
        noise_preset("vicious")


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        NoiseSigmas(pos=-0.1)


def test_zero_noise_identity_and_no_draws():
    x = np.arange(12.0)
    rng = np.random.default_rng(7)
    y = add_state_noise(x, NoiseSigmas(), rng)
    assert np.array_equal(y, x)
    # the rng must be untouched: its next draw matches a fresh generator's
    assert rng.normal() == np.random.default_rng(7).normal()


def test_noise_deterministic_per_seed():
    x = np.zeros(12)
    s = noise_preset("coarse")
    a = add_state_noise(x, s, np.random.default_rng(3))
    b = add_state_noise(x, s, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_noise_statistics_match_sigmas():
    # sample std per group within 2% of the configured sigma at n = 1e5
    s = noise_preset("coarse")
    rng = np.random.default_rng(0)
    n = 100_000
    x = np.zeros(12)
    draws = np.array([add_state_noise(x, s, rng) for _ in range(n)])
    expect = np.repeat([s.pos, s.vel, s.att, s.rate], 3)
    assert np.all(np.abs(draws.std(axis=0) / expect - 1.0) < 0.02)
    assert np.all(np.abs(draws.mean(axis=0)) < 5 * expect / np.sqrt(n))


def test_perturb_initial_state_bounds():
    x0 = np.zeros(12)
    for seed in range(100):
        x = perturb_initial_state(x0, np.random.default_rng(seed))
        assert np.all(np.abs(x[0:3]) <= 0.3)
        assert np.all(np.abs(x[6:9]) <= 0.05)
        # velocity and body rates start at the nominal value
        assert np.array_equal(x[3:6], x0[3:6])
        assert np.array_equal(x[9:12], x0[9:12])


# -- trial log invariants ----------------------------------------------------


def test_static_trial_lands(static_log):
    assert static_log.landed
    assert static_log.status == "LANDED"
    assert not static_log.failed
    assert static_log.failure_reason == ""


def test_time_grid_exact(static_log):
    k = np.arange(static_log.n_steps)
    assert np.array_equal(static_log.t, k * static_log.dt)


def test_terminal_record_shape(static_log):
    term = static_log.terminal
    assert set(term) == {"touchdown_time", "drone_position",
                         "platform_position"}
    assert len(term["drone_position"]) == 3
    assert term["touchdown_time"] <= static_log.t[-1]


def test_phase_sequence_is_wellformed(static_log, obstacle_log):
    # run-length compressed, a completed trial reads
    # APPROACH TRACK (DESCEND TRACK)* DESCEND TOUCHDOWN LANDED
    letter = {"APPROACH": "A", "TRACK": "T", "DESCEND": "D",
              "TOUCHDOWN": "C", "LANDED": "L"}
    for log in (static_log, obstacle_log):
        runs = "".join(letter[ph] for ph, _ in itertools.groupby(log.phases))
        assert re.fullmatch(r"AT(DT)*DCL", runs), runs


def test_plant_freezes_after_touchdown(static_log):
    rows = [k for k, ph in enumerate(static_log.phases)
            if ph in ("TOUCHDOWN", "LANDED")]
    assert len(rows) >= 2            # one touchdown row plus the landed row
    frozen = static_log.states[rows]
    assert np.all(frozen == frozen[0])
    # contact happened just above the platform top
    z = frozen[0][2]
    top = 0.3
    assert abs(z - top) <= 0.05


def test_touchdown_inside_envelope(static_log):
    k = static_log.phases.index("TOUCHDOWN")
    x = static_log.states[k]
    p = static_log.platform_pos[k]
    assert np.hypot(x[0] - p[0], x[1] - p[1]) < 0.15
    assert x[2] - p[2] < 0.05
    assert -0.5 <= x[5] <= 0.0


def test_trial_determinism(static_log):
    again = run_closed_loop(load_scenario("static_clear"), seed=0)
    assert np.array_equal(again.states, static_log.states)
    assert np.array_equal(again.controls, static_log.controls)
    assert np.array_equal(again.predicted, static_log.predicted)
    assert again.phases == static_log.phases
    assert again.terminal == static_log.terminal


def test_seeds_differ():
    a = run_closed_loop(load_scenario("static_clear"), seed=1)
    assert a.landed
    b = run_closed_loop(load_scenario("static_clear"), seed=2)
    assert not np.array_equal(a.states[0], b.states[0])


def test_csv_shape_and_parse(static_log):
    rows = list(csv.reader(io.StringIO(static_log.to_csv_string())))
    assert rows[0] == static_log.header()
    assert len(rows) == static_log.n_steps + 1
    assert all(len(r) == len(rows[0]) for r in rows)
    # floats round-trip: repr serialization loses nothing
    assert float(rows[1][3]) == static_log.states[0][2]


def test_csv_h_columns_track_obstacles(static_log, obstacle_log):
    assert "h_0" not in static_log.header()
    assert obstacle_log.header()[-1] == "h_0"


_STATE_NAMES = ["px", "py", "pz", "vx", "vy", "vz",
                "roll", "pitch", "yaw", "wx", "wy", "wz"]
# the CSV columns of a one-obstacle log, in order, under the field each
# group of columns logs
_ONE_OBSTACLE_COLUMNS = {
    "t": ["t"],
    "states": _STATE_NAMES,
    "controls": ["u1", "u2", "u3", "u4"],
    "predicted": ["pred_" + c for c in _STATE_NAMES],
    "platform_pos": ["plat_x", "plat_y", "plat_z"],
    "platform_vel": ["plat_vx", "plat_vy", "plat_vz"],
    "phases": ["phase"],
    "converged": ["converged"],
    "iterations": ["iterations"],
    "inner_iterations": ["inner_iterations"],
    "kkt": ["kkt"],
    "defect": ["defect"],
    "min_residual": ["min_residual"],
    "solve_ms": ["solve_ms"],
    "held": ["held"],
    "h": ["h_0"],
}


def test_csv_header_of_one_obstacle_log(obstacle_log):
    assert obstacle_log.header() == [
        c for cols in _ONE_OBSTACLE_COLUMNS.values() for c in cols]


def test_readme_lists_the_csv_columns(obstacle_log):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Trial logs"):]
    section = section[:section.index("\n## ")]
    cells = [line.split("|")[1] for line in section.splitlines()
             if line.startswith("| `")]
    assert [name for cell in cells for name in re.findall(r"`(.+?)`", cell)] \
        == obstacle_log.header()


def _zero_step_log():
    # round(0.04 / 0.1) = 0 control cycles fit the timeout
    sc = dataclasses.replace(load_scenario("static_obstacle"), timeout=0.04)
    return run_closed_loop(sc, seed=0)


@pytest.mark.parametrize("which", ["seed_0", "zero_step"])
def test_csv_round_trips_bit_for_bit(which, obstacle_log):
    log = obstacle_log if which == "seed_0" else _zero_step_log()
    rows = list(csv.reader(io.StringIO(log.to_csv_string())))
    cols = {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}
    assert list(cols) == log.header()
    for field, names in _ONE_OBSTACLE_COLUMNS.items():
        want = getattr(log, field)
        text = [cols[name] for name in names]
        if field == "phases":
            assert text[0] == want
        elif want.dtype != float:
            # flags and counts print as plain integers, flags as 0 or 1
            assert all(v == str(int(v)) for col in text for v in col)
            assert want.dtype == (bool if field in ("converged", "held")
                                  else int)
            if want.dtype == bool:
                assert set(text[0]) <= {"0", "1"}
            got = np.array(text, dtype=int).T.reshape(want.shape)
            assert np.array_equal(got, want), field
        else:
            got = np.array([[float(v) for v in col] for col in text],
                           dtype=float).T.reshape(want.shape)
            assert got.tobytes() == want.tobytes(), field
    # rows without a solve: NaN in the solver's float columns, 0 elsewhere
    no_solve = [k for k, ph in enumerate(log.phases)
                if ph in ("TOUCHDOWN", "LANDED")]
    assert bool(no_solve) == (which == "seed_0")
    for k in no_solve:
        assert [cols[n][k] for n in (
            "converged", "iterations", "inner_iterations", "kkt", "defect",
            "min_residual", "solve_ms", "held")] \
            == ["0", "0", "0", "nan", "nan", "nan", "0.0", "0"]


def test_inner_iterations_column_is_the_solver_count(monkeypatch):
    counts = []
    solve = NmpcSolver.solve

    def counting(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        counts.append(sol.inner_iterations)
        return sol
    monkeypatch.setattr(NmpcSolver, "solve", counting)
    log = run_closed_loop(load_scenario("static_clear"), seed=0)
    assert log.landed and not log.held.any()
    solved = np.array([p not in ("TOUCHDOWN", "LANDED") for p in log.phases])
    np.testing.assert_array_equal(log.inner_iterations[solved], counts)
    assert np.all(log.inner_iterations[~solved] == 0)
    cols = log.header()
    assert cols.index("inner_iterations") == cols.index("iterations") + 1
    rows = list(csv.DictReader(io.StringIO(log.to_csv_string())))
    assert [int(r["inner_iterations"]) for r in rows] \
        == log.inner_iterations.tolist()


def test_min_h_semantics(static_log, obstacle_log):
    assert static_log.min_h() == float("inf")
    assert static_log.summary_dict()["min_h"] is None
    assert obstacle_log.min_h() >= H_FLOOR
    assert obstacle_log.summary_dict()["min_h"] == obstacle_log.min_h()


def test_summary_timing_flag(static_log):
    with_t = static_log.summary_dict()
    assert "solve_ms_mean" in with_t and "solve_ms_max" in with_t


def test_solve_time_summary_is_over_solver_cycles(static_log):
    # the sidecar and the report row read one summary of the cycles that
    # called the solver; touchdown and landed rows solve nothing
    side = static_log.summary_dict()
    row = trial_result(static_log)
    assert (side["solve_ms_mean"], side["solve_ms_max"]) \
        == (row.solve_ms_mean, row.solve_ms_max)
    solved = [p not in ("TOUCHDOWN", "LANDED") for p in static_log.phases]
    assert not all(solved)
    assert side["solve_ms_mean"] == pytest.approx(
        static_log.solve_ms[solved].mean(), rel=1e-12)
    assert side["solve_ms_max"] == static_log.solve_ms[solved].max()


def test_noisy_trial_still_lands():
    sc = load_scenario("static_clear")
    sc = dataclasses.replace(sc, noise=noise_preset("mocap"))
    log = run_closed_loop(sc, seed=0)
    assert log.landed
    assert not np.array_equal(log.predicted[0], log.states[1])


# -- model-consistency oracle ------------------------------------------------


def test_euler_plant_matches_prediction(euler_log):
    # with the plant forced onto the prediction integrator, the logged
    # prediction must reproduce the next plant state to float precision
    assert euler_log.landed
    err = np.abs(euler_log.states[1:] - euler_log.predicted[:-1]).max()
    assert err < 1e-9


# -- plumbing ----------------------------------------------------------------


def test_surface_under_platform_disc():
    model = PlatformModel(kind="static", p0=(1.0, 0.0, 0.0), top_height=0.3)
    over = np.zeros(12)
    over[0:3] = (1.1, 0.0, 1.0)
    away = np.zeros(12)
    away[0:3] = (3.0, 0.0, 1.0)
    p = np.array([1.0, 0.0, 0.3])
    assert _surface_under(over, p, model) == 0.3
    assert _surface_under(away, p, model) == 0.0


def test_three_holds_fail_the_trial(monkeypatch):
    def explode(self, x_init, plan, warm=None, z_surface=0.0):
        raise SolverDiverged("forced")
    monkeypatch.setattr(NmpcSolver, "solve", explode)
    log = run_closed_loop(load_scenario("static_clear"), seed=0)
    assert log.failed and not log.landed
    assert "diverged" in log.failure_reason
    assert log.n_steps == 3
    assert np.all(log.held)
    assert np.all(np.isnan(log.kkt))


def test_plant_fault_fails_the_trial_not_the_batch(monkeypatch):
    real = sim.rk4_step
    calls = []

    def faulty(*args, **kwargs):
        calls.append(None)
        if len(calls) == 45:        # a substep of the fifth control cycle
            raise SimulationFault("non-finite state component")
        return real(*args, **kwargs)
    monkeypatch.setattr(sim, "rk4_step", faulty)
    sc = dataclasses.replace(load_scenario("static_clear"), timeout=1.0,
                             trials=2)
    logs = run_trials(sc)
    assert [lg.seed for lg in logs] == [0, 1]
    assert logs[0].failed and not logs[0].landed
    assert logs[0].failure_reason == "plant fault: non-finite state component"
    assert logs[0].n_steps == 5
    assert logs[1].failed and "timeout" in logs[1].failure_reason


def test_start_past_the_attitude_limit_fails_the_trial():
    # the start passes validation, but its measured state faults the
    # prediction model on the first cycle, before the plant steps
    sc = ScenarioConfig.from_dict({"x0": [0, 0, 2, 0, 0, 0,
                                          1.7, 0, 0, 0, 0, 0]})
    log = run_closed_loop(sc, seed=0)
    assert log.failed and log.status == "FAILED"
    assert log.failure_reason.startswith(
        "plant fault: attitude outside the nonsingular range")
    assert log.n_steps == 1
    assert np.all(np.isnan(log.predicted[0]))


def test_zero_step_trial():
    log = _zero_step_log()
    assert log.failed and log.status == "FAILED"
    assert log.failure_reason == "timeout after 0.04 s"
    assert log.n_steps == 0 and log.phases == []
    for name in ("t", "converged", "iterations", "inner_iterations", "kkt",
                 "defect", "min_residual", "solve_ms", "held"):
        assert getattr(log, name).shape == (0,), name
    for name, k in (("states", 12), ("controls", 4), ("predicted", 12),
                    ("platform_pos", 3), ("platform_vel", 3), ("h", 1)):
        assert getattr(log, name).shape == (0, k), name
    assert log.to_csv_string() == ",".join(log.header()) + "\n"
    assert log.solve_ms_summary() == (None, None)


def test_timeout_marks_failure():
    sc = dataclasses.replace(load_scenario("static_clear"), timeout=0.5)
    log = run_closed_loop(sc, seed=0)
    assert log.failed
    assert "timeout" in log.failure_reason
    assert log.n_steps == 5
    assert log.terminal is None


def test_broken_safety_floor_fails_the_trial():
    # Seed 21 passes the obstacle at h -0.197: its early approach cycles
    # exhaust the budget and fly plans whose dynamics do not hold. Once
    # they converge (ROADMAP direction 1) it should land above the floor,
    # and this test flips to LANDED. Never re-pick the seed.
    log = run_closed_loop(load_scenario("static_obstacle"), seed=21)
    assert log.min_h() < H_FLOOR
    assert log.failed and not log.landed and log.status == "FAILED"
    assert re.fullmatch(r"safety floor broken: h -0\.197 at t \d+\.\d s",
                        log.failure_reason)
    assert log.terminal is not None     # it did reach the platform


# -- robustness inside the validation limits ----------------------------------


@st.composite
def _valid_scenarios(draw):
    """Scenarios at the edges validation allows: platforms at the 2 m/s
    speed limit, 0-2 obstacles, any noise preset, initial velocities
    anywhere in the solver's 3 m/s box, and initial roll and pitch
    anywhere in (-pi, pi)."""
    unit = lambda a: (math.cos(a), math.sin(a), 0.0)
    d = draw(st.floats(0.0, 2.0 * math.pi))
    kind = draw(st.sampled_from(["static", "constant_velocity",
                                 "sinusoidal"]))
    platform = {"kind": kind, "p0": [draw(st.floats(-2.0, 2.0)),
                                     draw(st.floats(-2.0, 2.0)), 0.0]}
    if kind == "constant_velocity":
        # a hair under 2 m/s, so rounding cannot lift it over the limit
        platform["vel"] = [2.0 * (1 - 1e-12) * c for c in unit(d)]
    elif kind == "sinusoidal":
        period = draw(st.floats(2.0, 8.0))
        peak_amp = period / math.pi * (1 - 1e-12)   # peak speed 2 m/s
        platform.update(period=period,
                        amplitude=[peak_amp * c for c in unit(d)])
    obstacles = draw(st.lists(st.fixed_dictionaries({
        "center": st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        "radius": st.floats(0.05, 0.3)}), max_size=2))
    vel = list(draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3)))
    x0 = {"pos": [0.0, 0.0, 2.0], "vel": vel}
    if draw(st.booleans()):
        # a 12-vector start may tilt anywhere, singular attitudes included
        tilt = st.floats(-math.pi, math.pi, exclude_min=True,
                         exclude_max=True)
        x0 = [0.0, 0.0, 2.0, *vel, draw(tilt), draw(tilt)] + [0.0] * 4
    try:
        sc = ScenarioConfig.from_dict({
            "platform": platform,
            "cbf": {"obstacles": obstacles},
            "x0": x0,
            "noise": draw(st.sampled_from(["none", "mocap", "coarse"])),
            "timeout": 4.0})
    except ScenarioError:
        assume(False)           # an obstacle on the start or the path
    return sc, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_valid_scenarios())
def test_valid_scenarios_run_to_a_verdict(case):
    sc, seed = case
    log = run_closed_loop(sc, seed)
    assert log.status in ("LANDED", "FAILED")
    assert log.landed or log.failure_reason
