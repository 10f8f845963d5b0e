"""Guards on the package surface: the public names, the fields of the
solver's configuration and reference plan, the parameters of a
closed-loop trial, and the attributes the benchmark's tracer
(perfbench/tracing.py) patches in place, so a cleanup that deletes one of
them fails here and not only in the benchmark, and a setting added later
shows up as a change to this file. Also guards what
importing the package loads: the solver's LAPACK routine without the
scipy.linalg package."""

import dataclasses
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import landersim
import landersim.ocp
from landersim.ocp import NmpcConfig, ReferencePlan
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
    assert landersim.ocp.dpbsv is scipy.linalg.lapack.dpbsv
