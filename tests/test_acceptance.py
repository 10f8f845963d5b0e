"""Acceptance suite: the nine primary criteria, one verdict line each.

The four reference batches run once per session; criteria 1-4 read from
those shared results. The remaining criteria are self-contained.
"""

import re
import time

import numpy as np
import pytest

from landersim import sim
from landersim.cbf import CbfConfig, ObstacleSpec, barrier_value, \
    decay_envelope
from landersim.cli import main
from landersim.dynamics import QuadrotorParams, hover_control, make_state
from landersim.harness import batch_report, load_scenario, run_trials
from landersim.ocp import NmpcConfig, NmpcSolver, ReferencePlan
from landersim.sim import H_FLOOR, run_closed_loop

import oracles

SCENARIOS = ("static_clear", "static_obstacle", "dynamic_clear",
             "dynamic_obstacle")


@pytest.fixture(scope="session")
def batches():
    out = {}
    for name in SCENARIOS:
        sc = load_scenario(name)
        t0 = time.perf_counter()
        logs = run_trials(sc)
        wall = time.perf_counter() - t0
        out[name] = (logs, batch_report(sc, logs), wall)
    return out


def _h_floor(logs) -> float:
    return min(lg.min_h() for lg in logs)


def test_criterion_1_static_landing_accuracy(batches, verdict):
    logs, rep, wall = batches["static_clear"]
    ok = (rep.n_trials == 10 and rep.n_success == 10
          and rep.mean_fpe_cm <= 5.0 and wall < 120.0)
    verdict(1, ok,
            f"static platform, no obstacle: {rep.n_success}/{rep.n_trials} "
            f"landed, mean FPE {rep.mean_fpe_cm:.4f} cm (bound 5 cm), "
            f"batch wall {wall:.1f} s (bound 120 s)")


def test_criterion_2_static_obstacle_accuracy_and_safety(batches, verdict):
    logs, rep, _ = batches["static_obstacle"]
    h = _h_floor(logs)
    ok = (rep.n_success == rep.n_trials and rep.mean_fpe_cm <= 8.0
          and h >= H_FLOOR)
    verdict(2, ok,
            f"static platform, obstacle on path: {rep.n_success}/"
            f"{rep.n_trials} landed, mean FPE {rep.mean_fpe_cm:.4f} cm "
            f"(bound 8 cm), min logged h {h:.5f} m^2 (floor {H_FLOOR:g})")


def test_criterion_3_dynamic_platform_accuracy(batches, verdict):
    _, clear, _ = batches["dynamic_clear"]
    logs_ob, ob, _ = batches["dynamic_obstacle"]
    h = _h_floor(logs_ob)
    ok = (clear.n_success == clear.n_trials and clear.mean_fpe_cm <= 10.0
          and ob.n_success == ob.n_trials and ob.mean_fpe_cm <= 15.0
          and h >= H_FLOOR)
    verdict(3, ok,
            f"dynamic platform at 1 m/s: clear mean FPE "
            f"{clear.mean_fpe_cm:.4f} cm (bound 10), with obstacle "
            f"{ob.mean_fpe_cm:.4f} cm (bound 15), min logged h {h:.5f} m^2")


def test_criterion_4_realtime_budget(batches, verdict):
    worst = {name: max(float(np.max(lg.solve_ms)) for lg in logs)
             for name, (logs, _, _) in batches.items()}
    peak = max(worst.values())
    ok = peak < 100.0
    detail = ", ".join(f"{n} {v:.1f} ms" for n, v in worst.items())
    verdict(4, ok,
            f"worst per-cycle solve across all scenarios {peak:.1f} ms "
            f"(bound 100 ms): {detail}")


def test_tracking_cycles_rarely_exhaust_the_budget(batches):
    # regression guard for the ground-effect model near touchdown: a kink
    # there sends TRACK/DESCEND solves to the full inner-iteration budget
    hits = {}
    for name, (logs, _, _) in batches.items():
        budget = load_scenario(name).nmpc.max_inner_total
        hits[name] = sum(
            int(np.sum((lg.inner_iterations >= budget) & np.isin(
                lg.phases, ("TRACK", "DESCEND")))) for lg in logs)
    assert sum(hits.values()) <= 3, hits


def test_touchdown_solves_rarely_run_long(batches):
    # regression guard for the ground-effect curvature in the Newton
    # matrix: without it, 86 TRACK/DESCEND solves over these batches took
    # 20 or more inner iterations (42 with it, 0 with the C2 blend)
    long = {}
    for name, (logs, _, _) in batches.items():
        long[name] = sum(
            int(np.sum((lg.inner_iterations >= 20) & np.isin(
                lg.phases, ("TRACK", "DESCEND")))) for lg in logs)
    assert sum(long.values()) <= 60, long


@pytest.mark.parametrize("name", ["static_clear", "dynamic_clear"])
def test_touchdown_solves_stay_short(batches, name):
    # regression guard for the C2 ground-effect blend: with the 2 cm C1
    # band the touchdown solves of these seeds took up to 34 inner
    # iterations, with the blend over one rotor radius at most 7
    logs = batches[name][0][:3]
    worst = max(int(lg.inner_iterations[np.isin(
        lg.phases, ("TRACK", "DESCEND"))].max()) for lg in logs)
    assert worst <= 10, worst


def test_obstacle_cycles_rarely_exhaust_the_budget(batches):
    # regression guard for the box-feasible Newton step: a step clipped at
    # a thrust bound used to stall APPROACH solves near the obstacle until
    # the inner-iteration budget ran out (81 such cycles over these batches)
    hits = {}
    for name, (logs, _, _) in batches.items():
        budget = load_scenario(name).nmpc.max_inner_total
        hits[name] = sum(int(np.sum(lg.inner_iterations >= budget))
                         for lg in logs)
    assert sum(hits.values()) <= 40, hits


def test_criterion_5_gradient_check(capsys, verdict):
    errs = {}
    for name in SCENARIOS:
        rc = main(["check-gradients", "--scenario", name])
        out = capsys.readouterr().out
        m = re.search(r"max relative error ([0-9.e+-]+)", out)
        errs[name] = float(m.group(1))
        assert rc == 0, out
    peak = max(errs.values())
    verdict(5, peak < 1e-5,
            f"check-gradients, 20 random points per scenario: worst "
            f"relative error {peak:.3e} (tol 1e-5)")


def test_criterion_6_cbf_forward_invariance(verdict):
    rng = np.random.default_rng(0)
    worst_margin = np.inf
    for _ in range(1000):
        ob = ObstacleSpec(center=rng.uniform(-2, 2, 2),
                          radius=rng.uniform(0.05, 0.5),
                          margin=rng.uniform(0.0, 0.5))
        gamma = rng.uniform(0.05, 0.95)
        # start outside the safety circle: h(x0) >= 0
        theta = rng.uniform(0, 2 * np.pi)
        d0 = ob.r_safe * (1.0 + rng.uniform(0.0, 2.0))
        xy = ob.center + d0 * np.array([np.cos(theta), np.sin(theta)])
        h0 = float(barrier_value(xy, ob))
        assert h0 >= 0.0
        n_steps = int(rng.integers(5, 25))
        hs = [h0]
        for _k in range(n_steps):
            # safe step: decay the barrier no faster than (1 - gamma). The
            # absolute bump keeps the margin above the float noise of the
            # h -> position -> h round trip once h has decayed toward zero
            target = (1.0 - gamma) * hs[-1] * (1.0 + rng.uniform(0.01, 1.0)) \
                + 1e-12
            dist = np.sqrt(target + ob.r_safe ** 2)
            theta = rng.uniform(0, 2 * np.pi)
            nxt = ob.center + dist * np.array([np.cos(theta), np.sin(theta)])
            assert float(oracles.cbf_residual(xy, nxt, ob, gamma)) >= 0.0
            xy = nxt
            hs.append(float(barrier_value(xy, ob)))
        envelope = decay_envelope(h0, gamma, np.arange(n_steps + 1))
        worst_margin = min(worst_margin, float(np.min(hs - envelope)))
    verdict(6, worst_margin >= 0.0,
            f"1000 random safe sequences: h_k - (1-gamma)^k h_0 >= 0 held "
            f"everywhere (worst margin {worst_margin:.3e} m^2)")


def test_criterion_7_model_consistency(monkeypatch, verdict):
    # the plant replaced by one step of the prediction model per period
    monkeypatch.setattr(sim, "_plant_step", sim.euler_step)
    log = run_closed_loop(load_scenario("static_clear"), seed=0)
    err = float(np.abs(log.states[1:] - log.predicted[:-1]).max())
    ok = log.landed and err < 1e-9
    verdict(7, ok,
            f"Euler-forced plant over a full static landing: worst per-step "
            f"|plant - predicted| {err:.2e} (bound 1e-9), "
            f"status {log.status}")


def test_criterion_8_hover_equilibrium(verdict):
    params = QuadrotorParams()
    cfg = NmpcConfig()
    x = make_state(pos=(0.0, 0.0, 1.5))
    plan = ReferencePlan(x_ref=np.tile(x, (cfg.n + 1, 1)), x_terminal=x)
    sol = NmpcSolver(cfg, CbfConfig(), params).solve(x, plan)
    nominal = hover_control(params)[0]          # m g / 4 per motor
    rel = float(np.abs(sol.u_apply / nominal - 1.0).max())
    ok = sol.converged and rel <= 0.01
    verdict(8, ok,
            f"hover problem: converged={sol.converged}, per-motor thrust "
            f"within {100 * rel:.3f}% of m*g/4 (bound 1%)")


def test_criterion_9_report_determinism(tmp_path, verdict):
    args = ["run", "--scenario", "static_clear", "--trials", "3",
            "--seed", "0"]
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = main(args + ["--out", str(a)])
    rc2 = main(args + ["--out", str(b)])
    ra = (a / "report.json").read_bytes()
    rb = (b / "report.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and ra == rb
    verdict(9, ok,
            f"two identical `lander run` invocations: report.json "
            f"{'byte-identical' if ra == rb else 'DIFFERS'} "
            f"({len(ra)} bytes)")
