"""Smoke test of the benchmark itself, at the shortest run length.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the output contract of BENCHMARK.json for every workload, traced
and untraced, each in a fresh copy of the tree; that no per-layer metric
reads 0; that the traced pass reproduces the untraced one; that a wrong
output makes the run exit nonzero; that the tracer puts back every
attribute it replaced; and that a checkout without the package fails
without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def checkout(dest, with_package=True):
    """A fresh tree as the benchmark is run from: no scratch output yet."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / HERE.name, ignore=skip)
    if with_package:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def bench(workload, trace, root):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_line(workload, trace, tmp_path):
    out = bench(workload, trace, checkout(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in res["metrics"].values())
    if trace:   # every layer is measured on every workload
        assert all(v["value"] != 0 for v in res["metrics"].values())


def test_wrong_output_exits_nonzero(monkeypatch):
    """A sidecar that miscounts its steps is caught and fails the run."""
    import landersim.sim
    import run
    summary = landersim.sim.TrialLog.summary_dict

    def wrong(self, *args, **kwargs):
        d = summary(self, *args, **kwargs)
        d["steps"] += 1
        return d
    monkeypatch.setattr(landersim.sim.TrialLog, "summary_dict", wrong)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "reference_mix", "--seed", "3",
                         "--seconds", "1"])
    lines = buf.getvalue().splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any(ln.startswith("WRONG OUTPUT:") for ln in lines)


def test_tracer_restores_attributes():
    import tracing
    before = [owner.__dict__[attr] for owner, attr, _ in tracing.BOUNDARIES]
    import landersim.sim
    state_at = landersim.sim.platform_state_at
    with tracing.Tracer() as tracer:
        assert all(owner.__dict__[attr] is not orig for
                   (owner, attr, _), orig in zip(tracing.BOUNDARIES, before))
        landersim.sim.platform_state_at(
            landersim.load_scenario("static_clear").platform, 0.0)
    assert [owner.__dict__[attr] for owner, attr, _ in
            tracing.BOUNDARIES] == before
    assert landersim.sim.platform_state_at is state_at
    assert [s[0] for s in tracer.spans] == ["platform"]


def test_without_package_fails_cleanly(tmp_path):
    root = checkout(tmp_path, with_package=False)
    out = bench(BENCH["workloads"][0]["name"], 0, root)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
