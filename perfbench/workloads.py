"""The benchmark workloads and the checks on their outputs.

Every workload is a closed loop in one process and one thread: the next
operation starts only after the previous one returns. Inputs come from the
workload seed alone; the work per pass comes from the seed and the run
length, so a pass is the same work on every run with the same arguments
and all deterministic counts repeat exactly.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import landersim.cli
from landersim import (LandingPhase, NmpcSolver, batch_report,
                       build_reference_plan, final_point_error,
                       load_scenario, noise_preset, platform_state_at,
                       run_closed_loop)

REFERENCE = ("static_clear", "static_obstacle", "dynamic_clear",
             "dynamic_obstacle")
# Mean-FPE acceptance bounds in cm (README, acceptance criteria 1-3),
# keyed by (moving platform, has obstacles). Each trial is held to its
# scenario's bound.
FPE_BOUND_CM = {(False, False): 5.0, (False, True): 8.0,
                (True, False): 10.0, (True, True): 15.0}
H_FLOOR = -1e-5
ACTIVE = (LandingPhase.APPROACH, LandingPhase.TRACK, LandingPhase.DESCEND)
SOLVER_PHASES = {p.value for p in ACTIVE}   # cycles that call the solver

# Trials per second of requested run length: the measured rate on a shared
# 2-vCPU x86 VM (numpy 2.4, scipy 1.17, one OpenBLAS thread; about 50
# control cycles per trial at 33-37 cycles/s), so an untraced pass takes
# about --seconds there. A fixed constant, not a calibration, so the inputs
# depend only on the arguments.
TRIALS_PER_S = 0.67


def fpe_bound(sc) -> float:
    return FPE_BOUND_CM[(sc.platform.kind != "static",
                         bool(sc.cbf.obstacles))]


def trial_plan(rng, seconds):
    """(scenario, trial seed) pairs drawn from rng, scenarios interleaved
    so that every stretch of the run holds the same mix."""
    k = max(1, round(seconds * TRIALS_PER_S / len(REFERENCE)))
    seeds = rng.integers(0, 2 ** 31 - 1, size=(k, len(REFERENCE)))
    return [(n, int(s)) for row in seeds for n, s in zip(REFERENCE, row)]


class SolveProbe:
    """Times every NmpcSolver.solve call and keeps the solver's own counts.

    Installed for the whole run, traced or not: one clock pair per solve.
    A record is (seconds, inner iterations, outer iterations, converged,
    budget); a solve that raised has inner iterations -1.
    """

    def __init__(self):
        self.records = []

    def __enter__(self):
        orig = self._orig = NmpcSolver.__dict__["solve"]
        records = self.records

        def solve(solver, *args, **kwargs):
            t0 = perf_counter()
            try:
                sol = orig(solver, *args, **kwargs)
            except Exception:
                records.append((perf_counter() - t0, -1, 0, False,
                                solver.cfg.max_inner_total))
                raise
            records.append((perf_counter() - t0, sol.inner_iterations,
                            sol.iterations, sol.converged,
                            solver.cfg.max_inner_total))
            return sol
        NmpcSolver.solve = solve
        return self

    def __exit__(self, *exc):
        NmpcSolver.solve = self._orig
        return False


@dataclasses.dataclass
class PassResult:
    """One pass over a workload's inputs."""

    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    trials: int = 0             # closed-loop trials run
    ops: int = 0                # control cycles
    wall_s: float = 0.0         # summed operation time
    solves: list = dataclasses.field(default_factory=list)  # probe records
    errors: list = dataclasses.field(default_factory=list)  # wrong outputs
    outputs: list = dataclasses.field(default_factory=list)  # for the digest
    digest: str = ""

    def add(self, wall, ops, solves):
        """Account one finished operation."""
        self.wall_s += wall
        self.ops += ops
        self.solves += solves

    def counts(self) -> tuple:
        """Deterministic solver counts, in solve order."""
        return tuple(r[1:] for r in self.solves)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _untimed(csv: str) -> str:
    """A trial's CSV without its wall-clock solve_ms column."""
    rows = [row.split(",") for row in csv.splitlines()]
    j = rows[0].index("solve_ms")
    return "\n".join(",".join(row[:j] + row[j + 1:]) for row in rows)


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, scratch: Path):
        self.seconds = seconds
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)

    def make_inputs(self):
        """Trial seeds from the workload seed, after the timed set-up."""
        self.plan = trial_plan(self.rng, self.seconds)

    def warm_up(self, sc):
        """One untimed cold solve at the scenario's nominal start."""
        p, v = platform_state_at(sc.platform, 0.0)
        plan = build_reference_plan(LandingPhase.APPROACH, p, v,
                                    float(sc.x0[8]), sc.nmpc, sc.thresholds)
        NmpcSolver(sc.nmpc, sc.cbf, sc.params).solve(sc.x0, plan)

    def run(self, probe, tracer=None):
        """One pass over the inputs; returns (untraced, traced) results.

        With a tracer every trial runs twice back to back, once untraced
        and once traced, the order swapping from trial to trial, so the
        two passes see the same machine speed and their times compare.
        Without one the traced result is None.
        """
        plain = PassResult()
        traced = None if tracer is None else PassResult()
        for i, (name, seed) in enumerate(self.plan):
            runs = [(plain, None)]
            if tracer is not None:
                runs.insert(i % 2, (traced, tracer))
            for res, tr in runs:
                if tr is None:
                    self.trial(res, name, seed, probe)
                    continue
                tr.start_op(i)
                with tr:
                    self.trial(res, name, seed, probe, tr)
        self.finish(plain)
        if tracer is not None:
            tracer.start_op(None)
            with tracer:
                self.finish(traced, tracer)
        return plain, traced


class ReferenceMix(Workload):
    """The four shipped scenarios at shipped budgets, N=10, one trial per
    `lander run` call through cli.main, written to a scratch directory."""

    name = "reference_mix"

    def setup(self):
        self.scenarios = {n: load_scenario(n) for n in REFERENCE}
        self.warm_up(self.scenarios["static_obstacle"])

    def trial(self, res, name, seed, probe, tracer=None):
        main = landersim.cli.main
        if tracer is not None:
            main = tracer.wrap("cli", main)
        out = self.scratch / f"trial-{seed}"
        argv = ["run", "--scenario", name, "--trials", "1",
                "--seed", str(seed), "--out", str(out), "--assert"]
        n0 = len(probe.records)
        res.attempted += 1
        res.trials += 1
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except Exception as e:
            code, raised = None, e
        wall = perf_counter() - t0
        solves = probe.records[n0:]
        steps = 0
        if code is None:
            res.failures.append(f"{name} seed {seed}: raised "
                                f"{type(raised).__name__}: {raised}")
        elif code not in (0, 1):
            res.errors.append(f"{name} seed {seed}: lander run exited "
                              f"{code}")
        else:
            report, steps = self._check(name, seed, out, code,
                                        buf.getvalue(), solves, res)
            res.outputs.append(report)
        res.add(wall, steps, solves)
        shutil.rmtree(out, ignore_errors=True)

    def finish(self, res, tracer=None):
        res.digest = _sha(res.outputs)

    def _check(self, name, seed, out, code, stdout, solves, res):
        """Validate one trial's files against each other and its bounds;
        returns report.json's bytes, for the pass digest, and the number
        of control cycles logged."""
        sc = self.scenarios[name]
        report_bytes = (out / "report.json").read_bytes()
        report = json.loads(report_bytes)
        side = json.loads((out / f"trial_{seed}.json").read_text())
        rows = (out / f"trial_{seed}.csv").read_text().splitlines()
        r = report["results"][0]
        ok = (not r["failed"] and r["fpe_cm"] <= fpe_bound(sc)
              and (r["min_h"] >= H_FLOOR if sc.cbf.obstacles else True))
        if not ok:
            res.failures.append(f"{name} seed {seed}: failed={r['failed']} "
                                f"fpe_cm={r['fpe_cm']} min_h={r['min_h']} "
                                f"{r['failure_reason']}")
        where = f"{name} seed {seed}"
        if code != (0 if ok else 1):
            res.errors.append(f"{where}: exit code {code} but bounds "
                              f"{'met' if ok else 'missed'}")
        if report["trials"] != 1 or r["seed"] != seed:
            res.errors.append(f"{where}: report.json does not hold the trial")
        if side["status"] != ("FAILED" if r["failed"] else "LANDED"):
            res.errors.append(f"{where}: sidecar status disagrees with "
                              f"report.json")
        if len(rows) != side["steps"] + 1:
            res.errors.append(f"{where}: {len(rows) - 1} csv rows for "
                              f"{side['steps']} steps")
        phase_col = rows[0].split(",").index("phase")
        active = sum(1 for row in rows[1:]
                     if row.split(",")[phase_col] in SOLVER_PHASES)
        if active != len(solves):
            res.errors.append(f"{where}: {len(solves)} solves timed for "
                              f"{active} solver cycles logged")
        if stdout != (out / "report.txt").read_text():
            res.errors.append(f"{where}: printed table differs from "
                              f"report.txt")
        return report_bytes, side["steps"]


class MocapLoop(Workload):
    """The four shipped scenarios with motion-capture-grade sensor noise,
    one run_closed_loop call per trial through the library: no `lander
    run`, so no CSV, sidecar or report files inside the timed operations.
    The pass digest covers every trial's CSV, less its solve times, and
    each scenario's batch report, made after the last trial."""

    name = "mocap_loop"

    def setup(self):
        self.scenarios = {
            n: dataclasses.replace(load_scenario(n),
                                   noise=noise_preset("mocap"))
            for n in REFERENCE}
        self.warm_up(self.scenarios["static_obstacle"])

    def trial(self, res, name, seed, probe, tracer=None):
        loop = run_closed_loop
        if tracer is not None:
            loop = tracer.wrap("sim", loop)
        sc = self.scenarios[name]
        n0 = len(probe.records)
        res.attempted += 1
        res.trials += 1
        t0 = perf_counter()
        try:
            log = loop(sc, seed)
        except Exception as e:
            log, raised = None, e
        wall = perf_counter() - t0
        solves = probe.records[n0:]
        res.add(wall, 0 if log is None else log.n_steps, solves)
        where = f"{name} seed {seed}"
        if log is None:
            res.failures.append(f"{where}: raised "
                                f"{type(raised).__name__}: {raised}")
            return
        res.outputs.append((name, log))
        fpe = final_point_error(log) if log.landed else None
        if not (log.landed and fpe <= fpe_bound(sc)
                and (log.min_h() >= H_FLOOR if sc.cbf.obstacles
                     else True)):
            res.failures.append(f"{where}: {log.status} fpe_cm={fpe} "
                                f"min_h={log.min_h():.6g} "
                                f"{log.failure_reason}")
        active = sum(1 for ph in log.phases if ph in SOLVER_PHASES)
        if active != len(solves):
            res.errors.append(f"{where}: {len(solves)} solves timed for "
                              f"{active} solver cycles logged")

    def finish(self, res, tracer=None):
        report = batch_report
        if tracer is not None:
            report = tracer.wrap("harness.report", report)
        logs = {n: [log for m, log in res.outputs if m == n]
                for n in REFERENCE}
        res.digest = _sha(
            [report(self.scenarios[n], logs[n]).to_json()
             for n in REFERENCE if logs[n]]
            + [_untimed(log.to_csv_string()) for _, log in res.outputs])


WORKLOADS = {w.name: w for w in (ReferenceMix, MocapLoop)}
