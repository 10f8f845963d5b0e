"""Guards on the package surface: the public names, the fields of the
solver's configuration and reference plan, the parameters of a
closed-loop trial, and the attributes the benchmark's tracer
(perfbench/tracing.py) patches in place, so a cleanup that deletes one of
them fails here and not only in the benchmark, and a name or setting
added later shows up as a change to this file. The solver's band
factorization and solve go through the two names the tracer times. Also
guards what importing the package loads: the solver's LAPACK routines
without the scipy.linalg package."""

import dataclasses
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np

import landersim
import landersim.ocp
from landersim.cbf import CbfConfig, ObstacleSpec
from landersim.dynamics import QuadrotorParams, make_state
from landersim.ocp import NmpcConfig, NmpcSolver, ReferencePlan
from landersim.sim import run_closed_loop

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_public_names_resolve_sorted_and_unique():
    names = landersim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(landersim, name), name


def test_public_names():
    assert landersim.__all__ == [
        "BatchReport", "CbfConfig", "DecisionVector", "GradientCheckReport",
        "LandingPhase", "NOISE_PRESETS", "NmpcConfig", "NmpcSolver",
        "NoiseSigmas", "ObstacleSpec", "OcpSolution", "PhaseThresholds",
        "PhaseTracker", "PlatformModel", "QuadrotorParams", "ReferencePlan",
        "ScenarioConfig", "ScenarioError", "SimulationFault",
        "SolverDiverged", "TrialLog", "TrialResult", "WarmStart",
        "add_state_noise", "barrier_value", "barrier_values_all",
        "batch_report", "build_reference_plan", "decay_envelope",
        "derivative", "descent_reference", "euler_step", "final_point_error",
        "gradient_check", "hover_control", "load_scenario", "make_state",
        "noise_preset", "perturb_initial_state", "platform_state_at",
        "render_table", "rk4_step", "run_closed_loop", "run_trials",
        "trial_result", "update_phase"]


def test_solver_config_and_plan_fields():
    assert [f.name for f in dataclasses.fields(NmpcConfig)] == [
        "n", "dt", "q", "r", "q_terminal", "lam", "u_min", "u_max",
        "max_inner_total"]
    assert [f.name for f in dataclasses.fields(ReferencePlan)] == [
        "x_ref", "x_terminal", "anchors"]
    # a trial flies the scenario's RK4 plant; nothing else selects it
    assert list(inspect.signature(run_closed_loop).parameters) == [
        "scenario", "seed"]


def test_traced_boundaries_exist_and_are_restored():
    tracing = _tracing()
    for owner, attr, _ in tracing.BOUNDARIES:
        assert attr in owner.__dict__, (owner.__name__, attr)
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    with tracing.Tracer():
        during = [owner.__dict__[attr]
                  for owner, attr, _ in tracing.BOUNDARIES]
        assert not any(d is b for d, b in zip(during, before))
    after = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    assert all(a is b for a, b in zip(after, before))


def test_import_leaves_scipy_linalg_unloaded():
    # out of process: the test session itself may have imported scipy.linalg
    root = str(pathlib.Path(landersim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, landersim; print(sorted(m for m in ('scipy.linalg',"
             " 'numpy.testing', 'numpy.f2py') if m in sys.modules))")
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                        text=True, env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


def test_solver_lapack_routine_is_scipys():
    import scipy.linalg.lapack
    assert landersim.ocp.cho_factor is scipy.linalg.lapack.dpbtrf
    assert landersim.ocp.cho_solve is scipy.linalg.lapack.dpbtrs


def test_band_solve_goes_through_the_traced_names(monkeypatch):
    # the tracer times the band factorization and solve by replacing these
    # two module attributes, so the solver must look both up at call time
    cfg = NmpcConfig()
    cbf = CbfConfig(obstacles=[ObstacleSpec(center=(1.0, 0.0), radius=0.2)])
    x0 = make_state(pos=(0.0, 0.0, 2.0))
    xr = np.tile(make_state(pos=(2.0, 0.0, 1.3)), (cfg.n + 1, 1))
    plan = ReferencePlan(x_ref=xr, x_terminal=xr[-1].copy())

    def solve():
        return NmpcSolver(cfg, cbf, QuadrotorParams()).solve(x0, plan)

    def counting(name):
        fn = getattr(landersim.ocp, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    plain = solve()
    calls = {"cho_factor": 0, "cho_solve": 0}
    for name in calls:
        monkeypatch.setattr(landersim.ocp, name, counting(name))
    spied = solve()
    assert calls["cho_factor"] >= 1
    assert calls["cho_factor"] == calls["cho_solve"]
    assert spied.u_apply.tobytes() == plain.u_apply.tobytes()
    assert spied.decision.flatten().tobytes() == \
        plain.decision.flatten().tobytes()
    assert spied.inner_iterations == plain.inner_iterations
