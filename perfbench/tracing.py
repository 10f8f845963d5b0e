"""Timing spans around landersim's public functions, installed from outside.

The tracer replaces module attributes at each layer boundary with thin
wrappers that record a span (name, start, end, parent, operation id,
control cycle). Nothing in the package is edited: each wrapper sits on
the name that the calling module looks up at run time, so the package's
own code paths and numerics are unchanged. Spans stay in memory and are
written out once, after the traced pass.
"""

import json
from collections import defaultdict
from time import perf_counter

import landersim.cli
import landersim.harness
import landersim.ocp
import landersim.platform
import landersim.sim

# (owner, attribute, span name). The owner is the namespace the caller
# resolves the name in: ocp.py imports cho_factor and the batched
# dynamics by name, sim.py imports rk4_step and the platform functions by
# name, so those are patched where they are looked up, not where defined.
BOUNDARIES = [
    (landersim.harness, "run_closed_loop", "sim"),
    (landersim.cli, "load_scenario", "harness.load"),
    (landersim.cli, "run_trials", "harness.run_trials"),
    (landersim.cli, "batch_report", "harness.report"),
    (landersim.cli, "render_table", "harness.report"),
    (landersim.harness.BatchReport, "to_json", "harness.report"),
    (landersim.sim.TrialLog, "to_csv_string", "harness.csv"),
    (landersim.ocp.NmpcSolver, "solve", "ocp.solve"),
    (landersim.ocp, "cho_factor", "ocp.linalg.factor"),
    (landersim.ocp, "cho_solve", "ocp.linalg.solve"),
    (landersim.ocp, "derivative_and_jacobians_batch", "dynamics.jacobians"),
    (landersim.ocp, "euler_step_batch", "dynamics.rollout"),
    (landersim.ocp, "derivative_batch", "dynamics.derivative"),
    (landersim.ocp, "barrier_value", "cbf"),
    (landersim.sim, "rk4_step", "dynamics.rk4"),
    (landersim.sim, "euler_step", "dynamics.predict"),
    (landersim.sim, "platform_state_at", "platform"),
    (landersim.sim, "build_reference_plan", "platform"),
    (landersim.platform.PhaseTracker, "step", "platform"),
    (landersim.sim, "barrier_values_all", "cbf"),
]


class Tracer:
    """In-memory span recorder. Use as a context manager: entering installs
    the wrappers, leaving restores the original attributes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op, cycle]
        self._stack = []
        self._saved = []
        self.op = None
        self.cycle = 0

    def start_op(self, op):
        """Tag later spans with operation op (a closed-loop trial)."""
        self.op = op
        self.cycle = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.op, self.cycle]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def __enter__(self):
        for owner, attr, name in BOUNDARIES:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))
        # sim.run_closed_loop reads the platform state once at the top of
        # every control cycle, so that call advances the cycle id
        state_at = landersim.sim.platform_state_at

        def next_cycle(*args, **kwargs):
            self.cycle += 1
            return state_at(*args, **kwargs)
        landersim.sim.platform_state_at = next_cycle
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def totals(self):
        """Per span name: calls, total seconds, self seconds (duration
        minus the time covered by direct children), the seconds spent in
        each child name, and the seconds spent inside operations (spans
        recorded while an operation id was set)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        by_child = defaultdict(float)
        in_ops = defaultdict(float)
        for name, t0, t1, parent, op, _ in self.spans:
            d = t1 - t0
            calls[name] += 1
            total[name] += d
            if op is not None:
                in_ops[name] += d
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += d
                by_child[(pname, name)] += d
        selfs = {n: total[n] - child[n] for n in total}
        return calls, total, selfs, by_child, in_ops

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        idx = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"names": names,
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "op", "cycle"],
                       "spans": [[idx[s[0]], *s[1:]] for s in self.spans]},
                      f)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, res, untraced_ops_per_s):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    untraced_ops_per_s is that of the untraced runs of the same trials,
    made alternately with the traced ones.
    """
    calls, total, selfs, by_child, in_ops = tracer.totals()
    solve = total["ocp.solve"]
    inner = sum(r[1] for r in res.solves if r[1] >= 0)
    outer = sum(r[2] for r in res.solves if r[1] >= 0)
    in_solve = lambda *names: sum(by_child[("ocp.solve", n)] for n in names)
    linalg = in_solve("ocp.linalg.factor", "ocp.linalg.solve")
    dyn = in_solve("dynamics.jacobians", "dynamics.rollout",
                   "dynamics.derivative")
    us = lambda n: 1e6 * _ratio(total[n], calls[n])
    traced_ops_per_s = _ratio(res.ops, res.wall_s)
    # operation time outside the closed loop and the harness's load, CSV
    # and report calls: cli.main's own code when a trial is a `lander run`
    front = res.wall_s - sum(in_ops[n] for n in ("sim", "harness.load",
                                                 "harness.csv",
                                                 "harness.report"))
    return {
        "ocp.solve_calls": (calls["ocp.solve"], "count"),
        "ocp.inner_iters": (inner, "count"),
        "ocp.outer_iters": (outer, "count"),
        "ocp.newton_steps": (calls["ocp.linalg.factor"], "count"),
        "ocp.grad_evals": (calls["dynamics.jacobians"], "count"),
        "ocp.rollout_evals": (calls["dynamics.rollout"], "count"),
        "ocp.rollout_evals_per_inner_iter":
            (_ratio(calls["dynamics.rollout"], inner), "ratio"),
        "ocp.ms_per_inner_iter": (1e3 * _ratio(solve, inner), "ms"),
        "ocp.self_ms_per_inner_iter":
            (1e3 * _ratio(selfs["ocp.solve"], inner), "ms"),
        "ocp.linalg.factor_us": (us("ocp.linalg.factor"), "us"),
        "ocp.linalg.solve_us": (us("ocp.linalg.solve"), "us"),
        "ocp.linalg.share_of_solve": (_ratio(linalg, solve), "share"),
        "dynamics.jacobians_us": (us("dynamics.jacobians"), "us"),
        "dynamics.rollout_us": (us("dynamics.rollout"), "us"),
        "dynamics.share_of_solve": (_ratio(dyn, solve), "share"),
        "dynamics.rk4_us": (us("dynamics.rk4"), "us"),
        "dynamics.plant_share_of_wall":
            (_ratio(total["dynamics.rk4"], res.wall_s), "share"),
        "sim.self_share": (_ratio(selfs.get("sim", 0.0), res.wall_s),
                           "share"),
        "platform.us_per_cycle":
            (1e6 * _ratio(total["platform"], res.ops), "us"),
        "cbf.us_per_cycle": (1e6 * _ratio(total["cbf"], res.ops), "us"),
        "harness.csv_ms_per_trial":
            (1e3 * _ratio(total["harness.csv"], res.trials), "ms"),
        "harness.report_ms":
            (1e3 * _ratio(total["harness.report"], res.trials), "ms"),
        "cli.write_ms_per_trial": (1e3 * _ratio(front, res.trials), "ms"),
        "trace.overhead":
            (1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s), "share"),
    }
