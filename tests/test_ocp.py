"""Transcription and solver checks: cost oracles against hand arithmetic
and a naive summation loop, constraint sparsity structure, analytic
gradients against central differences, and end-to-end solves on small
landing problems (hover equilibrium, obstacle avoidance, warm starting)."""

import numpy as np
import pytest

from landersim.cbf import CbfConfig, ObstacleSpec, barrier_value
from landersim.dynamics import QuadrotorParams, euler_step, hover_control, hover_state
from landersim.ocp import (
    DecisionVector,
    NmpcConfig,
    NmpcSolver,
    ReferencePlan,
    SolverDiverged,
    _random_decision,
    constraint_eval,
    cost_gradient,
    gradient_check,
    shift_warm_start,
    stage_cost,
    terminal_cost,
    total_cost,
)


@pytest.fixture
def params():
    return QuadrotorParams()


@pytest.fixture
def cfg():
    return NmpcConfig()


def _constant_plan(cfg, pos, track_active=False, v_platform=(0.0, 0.0, 0.0)):
    """Reference fixed at a hover state over the whole horizon."""
    xr = np.tile(hover_state(pos), (cfg.n + 1, 1))
    return ReferencePlan(
        x_ref=xr,
        x_terminal=xr[-1].copy(),
        p_platform=np.asarray(pos, dtype=float),
        v_platform=np.asarray(v_platform, dtype=float),
        track_active=track_active,
    )


# -- cost oracles -----------------------------------------------------------


def test_stage_cost_perfect_tracking(cfg):
    x = hover_state((0.3, -0.2, 1.5))
    assert stage_cost(x, np.zeros(4), x, x[0:3], cfg, track_active=True) == 0.0


def test_stage_cost_single_quadratic_term():
    cfg = NmpcConfig(q=np.ones(12), r=np.ones(4), lam=np.zeros(3))
    x_r = hover_state((1.0, 2.0, 3.0))
    x = x_r.copy()
    x[0] += 1.0                       # unit error in p_x
    assert stage_cost(x, np.zeros(4), x_r, x_r[0:3], cfg) == pytest.approx(1.0)


def test_stage_cost_platform_pull_term(cfg):
    cfg.lam = np.array([2.0, 0.0, 0.0])
    x = hover_state((0.5, 0.0, 1.0))
    p_f = np.array([0.0, 0.0, 1.0])   # drone 0.5 m ahead of the anchor in x
    base = stage_cost(x, np.zeros(4), x, p_f, cfg, track_active=False)
    pulled = stage_cost(x, np.zeros(4), x, p_f, cfg, track_active=True)
    assert base == 0.0
    assert pulled == pytest.approx(2.0 * 0.25)


def test_terminal_cost_zero_and_single_term():
    cfg = NmpcConfig(q_terminal=10.0 * np.ones(12))
    x_rf = hover_state((0.0, 0.0, 1.0))
    assert terminal_cost(x_rf, x_rf, cfg) == 0.0
    x = x_rf.copy()
    x[4] += 1.0
    assert terminal_cost(x, x_rf, cfg) == pytest.approx(10.0)


def test_terminal_cost_is_stage_cost_with_swapped_weights(cfg):
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    x_rf = rng.normal(size=12)
    as_stage = NmpcConfig(q=cfg.q_terminal.copy(), r=np.zeros(4),
                          lam=np.zeros(3))
    assert terminal_cost(x, x_rf, cfg) == pytest.approx(
        stage_cost(x, np.zeros(4), x_rf, np.zeros(3), as_stage), rel=1e-12)


def test_total_cost_zero_at_perfect_tracking(cfg):
    plan = _constant_plan(cfg, (0.0, 0.0, 1.0))
    dec = DecisionVector(states=plan.x_ref.copy(),
                         controls=np.zeros((cfg.n, 4)))
    assert total_cost(dec, plan, cfg) == 0.0


def test_total_cost_horizon_one_reduces_to_stage_plus_terminal():
    cfg = NmpcConfig(n=1)
    rng = np.random.default_rng(7)
    dec = DecisionVector(states=rng.normal(size=(2, 12)),
                         controls=rng.normal(size=(1, 4)))
    plan = ReferencePlan(x_ref=rng.normal(size=(2, 12)),
                         x_terminal=rng.normal(size=12),
                         p_platform=rng.normal(size=3),
                         track_active=True)
    want = stage_cost(dec.states[0], dec.controls[0], plan.x_ref[0],
                      plan.p_platform, cfg, track_active=True)
    want += terminal_cost(dec.states[1], plan.x_terminal, cfg)
    assert total_cost(dec, plan, cfg) == pytest.approx(want, rel=1e-12)


def test_total_cost_matches_naive_loop(cfg):
    # independent scalar-loop oracle, moving anchor included
    rng = np.random.default_rng(11)
    dec = DecisionVector(states=rng.normal(size=(cfg.n + 1, 12)),
                         controls=rng.normal(size=(cfg.n, 4)))
    plan = ReferencePlan(x_ref=rng.normal(size=(cfg.n + 1, 12)),
                         x_terminal=rng.normal(size=12),
                         p_platform=rng.normal(size=3),
                         v_platform=np.array([0.8, -0.3, 0.0]),
                         track_active=True)
    want = 0.0
    for k in range(cfg.n):
        anchor = plan.p_platform + k * cfg.dt * plan.v_platform
        want += stage_cost(dec.states[k], dec.controls[k], plan.x_ref[k],
                           anchor, cfg, track_active=True)
    want += terminal_cost(dec.states[cfg.n], plan.x_terminal, cfg)
    assert total_cost(dec, plan, cfg) == pytest.approx(want, rel=1e-12)


# -- constraint structure ----------------------------------------------------


def _rollout_decision(x_init, controls, cfg, params):
    X = np.empty((cfg.n + 1, 12))
    X[0] = x_init
    for k in range(cfg.n):
        X[k + 1] = euler_step(X[k], controls[k], cfg.dt, params)
    return DecisionVector(states=X, controls=controls)


def test_constraint_eval_rollout_has_zero_defects(cfg, params):
    rng = np.random.default_rng(0)
    x0 = hover_state((0.0, 0.0, 2.0))
    U = rng.uniform(2.0, 3.5, size=(cfg.n, 4))
    dec = _rollout_decision(x0, U, cfg, params)
    bundle = constraint_eval(dec, x0, cfg, CbfConfig(), params)
    # not bitwise zero: the batched evaluation reassociates the thrust
    # mixing matmul differently than the one-row rollout
    assert bundle.defect_norm < 1e-13
    assert np.all(bundle.pin_residual == 0.0)


def test_constraint_eval_defect_sparsity_probe(cfg, params):
    # perturbing shooting node 3 must hit defect 2 by exactly delta in the
    # perturbed component and defect 3 through the dynamics, nothing else
    rng = np.random.default_rng(1)
    x0 = hover_state((0.0, 0.0, 2.0))
    U = rng.uniform(2.0, 3.5, size=(cfg.n, 4))
    dec = _rollout_decision(x0, U, cfg, params)
    base = constraint_eval(dec, x0, cfg, CbfConfig(), params).defects
    delta = 1e-3
    pert = dec.copy()
    pert.states[3, 4] += delta
    d = constraint_eval(pert, x0, cfg, CbfConfig(), params).defects
    diff = d - base
    assert diff[2, 4] == pytest.approx(delta, rel=1e-12)
    changed = np.where(np.any(diff != 0.0, axis=1))[0]
    assert set(changed.tolist()) <= {2, 3}


def test_constraint_eval_no_obstacles_empty_residuals(cfg, params):
    dec = _rollout_decision(hover_state((0, 0, 1)), np.zeros((cfg.n, 4)),
                            cfg, params)
    bundle = constraint_eval(dec, dec.states[0], cfg, CbfConfig(), params)
    assert bundle.cbf_residuals.shape == (cfg.n, 0)
    assert bundle.min_cbf_residual == np.inf


def test_constraint_eval_residuals_match_barrier_recursion(cfg, params):
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    cbf = CbfConfig(obstacles=[ob])
    rng = np.random.default_rng(2)
    dec = DecisionVector(states=rng.normal(size=(cfg.n + 1, 12)) + 2.0,
                         controls=rng.uniform(2, 3, size=(cfg.n, 4)))
    bundle = constraint_eval(dec, dec.states[0], cfg, cbf, params)
    h = barrier_value(dec.states[:, 0:2], ob)
    np.testing.assert_allclose(bundle.cbf_residuals[:, 0],
                               h[1:] - (1 - cbf.gamma) * h[:-1])


def test_constraint_eval_reports_bound_violation(cfg, params):
    X = np.tile(hover_state((0, 0, 1)), (cfg.n + 1, 1))
    U = np.tile(hover_control(params), (cfg.n, 1))
    dec = DecisionVector(X, U)
    dec.controls[4, 2] = cfg.u_max + 0.25
    bundle = constraint_eval(dec, dec.states[0], cfg, CbfConfig(), params)
    assert bundle.bound_violation == pytest.approx(0.25)


# -- warm-start shifting -----------------------------------------------------


def test_shift_constant_sequences_are_fixed_points():
    X = np.tile(hover_state((0, 0, 1)), (11, 1))
    U = np.full((10, 4), 2.5)
    out = shift_warm_start(DecisionVector(X, U))
    np.testing.assert_array_equal(out.states, X)
    np.testing.assert_array_equal(out.controls, U)


def test_shift_preserves_lengths():
    rng = np.random.default_rng(4)
    dec = DecisionVector(rng.normal(size=(11, 12)), rng.normal(size=(10, 4)))
    out = shift_warm_start(dec)
    assert out.states.shape == (11, 12)
    assert out.controls.shape == (10, 4)


def test_double_shift_of_ramp_is_shift_by_two():
    k = np.arange(11)[:, None].astype(float)
    dec = DecisionVector(k * np.ones(12), k[:-1] * np.ones(4))
    twice = shift_warm_start(shift_warm_start(dec))
    # interior rows move by two; the duplicated tail saturates
    np.testing.assert_array_equal(twice.states[:-2], dec.states[2:])
    np.testing.assert_array_equal(twice.states[-2:], dec.states[[-1, -1]])
    np.testing.assert_array_equal(twice.controls[:-2], dec.controls[2:])


# -- gradients ----------------------------------------------------------------


def test_cost_gradient_matches_central_differences(cfg):
    rng = np.random.default_rng(5)
    dec = DecisionVector(rng.normal(size=(cfg.n + 1, 12)),
                         rng.normal(size=(cfg.n, 4)))
    plan = ReferencePlan(x_ref=rng.normal(size=(cfg.n + 1, 12)),
                         x_terminal=rng.normal(size=12),
                         p_platform=rng.normal(size=3),
                         v_platform=np.array([0.5, 0.2, 0.0]),
                         track_active=True)
    g = cost_gradient(dec, plan, cfg)
    z = dec.flatten()
    # the objective is quadratic, so central differences are exact for any
    # step; a generous one keeps the cancellation noise far below tolerance
    eps = 1e-3
    idx = rng.choice(z.size, size=25, replace=False)
    for j in idx:
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        fd = (total_cost(DecisionVector.from_flat(zp, cfg.n), plan, cfg)
              - total_cost(DecisionVector.from_flat(zm, cfg.n), plan, cfg)
              ) / (2 * eps)
        assert g[j] == pytest.approx(fd, rel=1e-9, abs=1e-9)


def test_gradient_check_full_problem(cfg, params):
    cbf = CbfConfig(obstacles=[ObstacleSpec(center=(1.0, 0.0), radius=0.2)])
    solver = NmpcSolver(cfg, cbf, params)
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    report = gradient_check(solver, plan, n_points=5, seed=0)
    assert report.passed
    assert report.max_rel_err < 1e-5


def test_gradient_check_tracking_term(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    plan = _constant_plan(cfg, (0.5, 0.5, 1.0), track_active=True,
                          v_platform=(1.0, 0.0, 0.0))
    report = gradient_check(solver, plan, n_points=5, seed=1)
    assert report.passed


def test_gradient_check_detects_corruption(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    plan = _constant_plan(cfg, (1.0, 0.0, 1.0))
    report = gradient_check(solver, plan, n_points=3, seed=2, corruption=0.1)
    assert not report.passed


# -- Newton step ----------------------------------------------------------------


def _dense_gn_step(solver, z, G, Jx, Ju, lb, ub, mu, rho, track_active):
    """Reference projected Gauss-Newton step: the full Hessian assembled as
    a dense matrix, one defect and one active barrier at a time, and
    solved directly on the free coordinates."""
    cfg, gamma = solver.cfg, solver.cbf_cfg.gamma
    n, nx, nz = cfg.n, 12 * (cfg.n + 1), z.size
    X = z[:nx].reshape(n + 1, 12)
    diag = np.empty(nz)
    dX = diag[:nx].reshape(n + 1, 12)
    dX[:n] = 2.0 * cfg.q
    if track_active:
        dX[:n, 0:3] += 2.0 * cfg.lam
    dX[n] = 2.0 * cfg.q_terminal
    diag[nx:] = np.tile(2.0 * cfg.r, n)
    H = np.diag(diag)
    diff = X[:, None, 0:2] - solver._centers[None]
    h = np.sum(diff ** 2, axis=2) - solver._rsafe2
    g = h[1:] - (1.0 - gamma) * h[:n] - solver._mrow
    for k in range(n):
        ix, iu = 12 * k, nx + 4 * k
        D = np.zeros((12, nz))          # d defect_k / dz
        D[:, ix:ix + 12] = -(np.eye(12) + cfg.dt * Jx[k])
        D[:, iu:iu + 4] = -cfg.dt * Ju[k]
        D[:, ix + 12:ix + 24] = np.eye(12)
        H += rho * D.T @ D
        for j in np.nonzero(mu[k] - rho * g[k] > 0.0)[0]:
            v = np.zeros(nz)            # d g_kj / dz
            v[ix:ix + 2] = -2.0 * (1.0 - gamma) * diff[k, j]
            v[ix + 12:ix + 14] = 2.0 * diff[k + 1, j]
            H += rho * np.outer(v, v)
    fixed = (ub - lb <= 0.0) | ((z - lb <= 1e-9) & (G > 0.0)) \
        | ((ub - z <= 1e-9) & (G < 0.0))
    free = np.nonzero(~fixed)[0]
    step = np.zeros(nz)
    step[free] = np.linalg.solve(H[np.ix_(free, free)], -G[free])
    return step, fixed


@pytest.mark.parametrize("n", [1, 10, 40])
@pytest.mark.parametrize("track_active", [False, True])
@pytest.mark.parametrize("rho", [10.0, 1e3])
def test_banded_newton_step_matches_dense_reference(params, n, track_active,
                                                    rho):
    cfg = NmpcConfig(n=n)
    cbf = CbfConfig(gamma=0.4, obstacles=[
        ObstacleSpec(center=(0.5, 0.0), radius=0.3),
        ObstacleSpec(center=(-1.0, 1.5), radius=0.2)])
    solver = NmpcSolver(cfg, cbf, params)
    plan = _constant_plan(cfg, (1.0, -0.5, 1.0), track_active=track_active,
                          v_platform=(0.5, 0.0, 0.0))
    rng = np.random.default_rng(n)
    nx = 12 * (n + 1)
    held = 0
    for _ in range(4):
        z = _random_decision(solver, rng)
        # half the controls sit on a bound
        at_bound = rng.random(4 * n) < 0.5
        z[nx:][at_bound] = rng.choice([cfg.u_min, cfg.u_max], at_bound.sum())
        lb = solver._lb_template.copy()
        ub = solver._ub_template.copy()
        lb[:12] = ub[:12] = z[:12]      # the pinned initial state
        tr = solver._transcribe(z[:12], plan)
        lam_eq = rng.normal(0.0, 1.0, (n, 12))
        mu = rng.uniform(0.0, 5.0 * rho, (n, 2))
        G, lin = solver._al_value_and_grad(z, tr, lam_eq, mu, rho, 0.0)[1:]
        assert np.any(lin[3] > 0.0)     # some barrier is active
        want, fixed = _dense_gn_step(solver, z, G, lin[0], lin[1], lb, ub,
                                     mu, rho, track_active)
        held += fixed[nx:].sum()
        got = solver._gn_step(z, G, lin, lb, ub, rho, track_active)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-6 * np.abs(want).max())
        assert np.all(got[fixed] == 0.0)
    assert held > 0                     # some control was held at its bound


# -- solving -------------------------------------------------------------------


def test_solve_hover_equilibrium(cfg, params):
    x0 = hover_state((0.0, 0.0, 2.0))
    plan = _constant_plan(cfg, (0.0, 0.0, 2.0))
    solver = NmpcSolver(cfg, CbfConfig(), params)
    sol = solver.solve(x0, plan)
    assert sol.converged
    want = hover_control(params)
    np.testing.assert_allclose(sol.u_apply, want, rtol=0.01)
    assert sol.defect_norm <= 1e-4


def test_solve_avoids_obstacle_between(cfg, params):
    # obstacle sits on the straight line to the platform; the converged
    # plan must clear the inflated disc and commit to one side
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = hover_state((0.0, 0.01, 2.0))
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    sol = solver.solve(x0, plan)
    assert sol.converged
    h = barrier_value(sol.decision.states[:, 0:2], ob)
    assert h.min() >= -1e-5
    assert sol.min_cbf_residual >= -1e-5
    y = sol.decision.states[:, 1]
    assert np.abs(y).max() > 0.01            # actually deviates sideways


def test_solve_warm_restart_is_cheap(cfg, params):
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = hover_state((0.0, 0.01, 2.0))
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    cold = solver.solve(x0, plan)
    warm = solver.solve(x0, plan, warm=cold.warm)
    assert warm.converged
    assert warm.iterations <= 3


def test_solve_converged_meets_contract(cfg, params):
    ob = ObstacleSpec(center=(0.6, 0.3), radius=0.15)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = hover_state((0.0, 0.0, 1.5))
    plan = _constant_plan(cfg, (1.2, 0.6, 1.0))
    sol = solver.solve(x0, plan)
    assert sol.converged
    assert sol.defect_norm <= 1e-4
    assert sol.min_cbf_residual >= -1e-5
    z = sol.decision.flatten()
    X, U = sol.decision.states, sol.decision.controls
    assert np.all(U >= cfg.u_min) and np.all(U <= cfg.u_max)
    assert np.all(X >= cfg.x_min - 1e-12) and np.all(X <= cfg.x_max + 1e-12)
    np.testing.assert_array_equal(X[0], x0)


def test_solve_objective_net_decrease(cfg, params):
    # each inner solve must end at or below where it started; spectral
    # steps are allowed transient increases inside their reference window
    solver = NmpcSolver(cfg, CbfConfig(), params)
    x0 = hover_state((0.2, -0.1, 1.8))
    plan = _constant_plan(cfg, (0.0, 0.0, 1.5))
    sol = solver.solve(x0, plan)
    assert sol.converged
    for trace in solver.last_inner_traces:
        assert trace[-1] <= trace[0] + 1e-12
        assert max(trace) <= trace[0] + 1e-12


def test_solve_deterministic(cfg, params):
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)

    def run():
        solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
        return solver.solve(hover_state((0.0, 0.01, 2.0)),
                            _constant_plan(cfg, (2.0, 0.0, 1.3)))

    a, b = run(), run()
    assert a.cost == b.cost
    assert a.kkt_residual == b.kkt_residual
    assert a.decision.flatten().tobytes() == b.decision.flatten().tobytes()
    assert a.iterations == b.iterations


def test_solve_rejects_nonfinite_state(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    x0 = hover_state((0.0, 0.0, 1.0))
    x0[5] = np.nan
    with pytest.raises(SolverDiverged):
        solver.solve(x0, _constant_plan(cfg, (0.0, 0.0, 1.0)))


def test_solve_rejects_mismatched_plan(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    bad = _constant_plan(NmpcConfig(n=4), (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        solver.solve(hover_state((0, 0, 1)), bad)


def test_solve_returns_best_iterate_when_not_converged(cfg, params):
    # starve the budget so the flag must come back false, iterate intact
    tiny = NmpcConfig(max_outer=1, max_inner=2)
    solver = NmpcSolver(tiny, CbfConfig(), params)
    x0 = hover_state((0.0, 0.0, 2.0))
    plan = _constant_plan(tiny, (1.5, 1.5, 1.0))
    sol = solver.solve(x0, plan)
    assert not sol.converged
    assert np.all(np.isfinite(sol.decision.flatten()))
    assert np.all(sol.u_apply >= tiny.u_min)
    assert np.all(sol.u_apply <= tiny.u_max)


# -- config validation ---------------------------------------------------------


def test_config_rejects_bad_horizon():
    with pytest.raises(ValueError):
        NmpcConfig(n=0)


def test_config_rejects_bad_dt():
    with pytest.raises(ValueError):
        NmpcConfig(dt=0.0)


def test_config_rejects_negative_weights():
    with pytest.raises(ValueError):
        NmpcConfig(q=-np.ones(12))


def test_config_rejects_unordered_bounds():
    with pytest.raises(ValueError):
        NmpcConfig(u_min=5.0, u_max=1.0)


def test_plan_rejects_bad_reference_shape():
    with pytest.raises(ValueError):
        ReferencePlan(x_ref=np.zeros((11, 7)), x_terminal=np.zeros(12),
                      p_platform=np.zeros(3))
