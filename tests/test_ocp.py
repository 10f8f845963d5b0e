"""Transcription and solver checks: cost oracles against hand arithmetic
and a naive summation loop, constraint sparsity structure, analytic
gradients against central differences, and end-to-end solves on small
landing problems (hover equilibrium, obstacle avoidance, warm starting)."""

import numpy as np
import pytest

from landersim import ocp
from landersim.cbf import CbfConfig, ObstacleSpec, barrier_value
from landersim.dynamics import (QuadrotorParams,
                                derivative_and_jacobians_batch, euler_step,
                                euler_step_batch, hover_control, make_state)
from landersim.harness import load_scenario
from landersim.ocp import (
    DecisionVector,
    NmpcConfig,
    NmpcSolver,
    ReferencePlan,
    SolverDiverged,
    _PENALTY_INIT,
    _X_MAX,
    _X_MIN,
    _cost,
    _random_decision,
    constraint_eval,
    WarmStart,
    gradient_check,
    total_cost,
)
from landersim.platform import LandingPhase, build_reference_plan


@pytest.fixture
def params():
    return QuadrotorParams()


@pytest.fixture
def cfg():
    return NmpcConfig()


def _moving_anchors(p, v, n, dt):
    """Anchors starting at p and advancing at velocity v, k*dt at stage k."""
    k = np.arange(n)[:, None]
    return np.asarray(p, dtype=float) + k * dt * np.asarray(v, dtype=float)


def _constant_plan(cfg, pos, track_active=False, v_platform=(0.0, 0.0, 0.0)):
    """Reference fixed at a hover state over the whole horizon; with
    track_active, anchors start at pos and move at v_platform."""
    xr = np.tile(make_state(pos=pos), (cfg.n + 1, 1))
    anchors = None
    if track_active:
        anchors = _moving_anchors(pos, v_platform, cfg.n, cfg.dt)
    return ReferencePlan(x_ref=xr, x_terminal=xr[-1].copy(), anchors=anchors)


# -- cost oracles -----------------------------------------------------------


def _naive_cost(dec, plan, cfg):
    """Independent scalar-loop oracle: stage errors, platform pull towards
    each stage's anchor, and the terminal error."""
    c = 0.0
    for k in range(dec.n):
        for i in range(12):
            c += cfg.q[i] * (dec.states[k, i] - plan.x_ref[k, i]) ** 2
        for i in range(4):
            c += cfg.r[i] * dec.controls[k, i] ** 2
        if plan.anchors is not None:
            for i in range(3):
                c += cfg.lam[i] * (dec.states[k, i] - plan.anchors[k, i]) ** 2
    for i in range(12):
        c += cfg.q_terminal[i] * (dec.states[dec.n, i] - plan.x_terminal[i]) ** 2
    return c


def _one_stage(x0, u0, x1, x_ref0, x_terminal, p_f, track_active):
    """A horizon-one decision and plan (anchor at p_f when tracking)."""
    dec = DecisionVector(states=np.array([x0, x1]), controls=np.array([u0]))
    plan = ReferencePlan(x_ref=np.array([x_ref0, x_terminal]),
                         x_terminal=x_terminal,
                         anchors=np.array([p_f]) if track_active else None)
    return dec, plan


def test_stage_cost_perfect_tracking(cfg):
    x = make_state(pos=(0.3, -0.2, 1.5))
    plan = _constant_plan(cfg, x[0:3], track_active=True)
    dec = DecisionVector(states=plan.x_ref.copy(),
                         controls=np.zeros((cfg.n, 4)))
    assert total_cost(dec, plan, cfg) == 0.0


def test_stage_cost_single_quadratic_term():
    cfg = NmpcConfig(n=1, q=np.ones(12), r=np.ones(4), lam=np.zeros(3))
    x_r = make_state(pos=(1.0, 2.0, 3.0))
    x = x_r.copy()
    x[0] += 1.0                       # unit error in p_x
    dec, plan = _one_stage(x, np.zeros(4), x_r, x_r, x_r, x_r[0:3], False)
    assert total_cost(dec, plan, cfg) == pytest.approx(1.0)


def test_stage_cost_platform_pull_term():
    cfg = NmpcConfig(n=1, lam=np.array([2.0, 0.0, 0.0]))
    x = make_state(pos=(0.5, 0.0, 1.0))
    p_f = np.array([0.0, 0.0, 1.0])   # drone 0.5 m ahead of the anchor in x
    base = total_cost(*_one_stage(x, np.zeros(4), x, x, x, p_f, False), cfg)
    pulled = total_cost(*_one_stage(x, np.zeros(4), x, x, x, p_f, True), cfg)
    assert base == 0.0
    assert pulled == pytest.approx(2.0 * 0.25)


def test_terminal_cost_zero_and_single_term():
    cfg = NmpcConfig(n=1, q_terminal=10.0 * np.ones(12))
    x_rf = make_state(pos=(0.0, 0.0, 1.0))
    x0 = make_state(pos=(0.0, 0.0, 2.0))
    assert total_cost(*_one_stage(x0, np.zeros(4), x_rf, x0, x_rf, x_rf[0:3],
                                  False), cfg) == 0.0
    x = x_rf.copy()
    x[4] += 1.0
    assert total_cost(*_one_stage(x0, np.zeros(4), x, x0, x_rf, x_rf[0:3],
                                  False), cfg) == pytest.approx(10.0)


def test_terminal_cost_is_stage_cost_with_swapped_weights(cfg):
    # the terminal term with weights q_terminal equals a stage term whose
    # q is q_terminal, every other term held at zero
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    x_rf = rng.normal(size=12)
    x0 = rng.normal(size=12)
    u0 = np.zeros(4)
    as_terminal = NmpcConfig(n=1)
    as_stage = NmpcConfig(n=1, q=cfg.q_terminal.copy(), r=np.zeros(4),
                          lam=np.zeros(3), q_terminal=np.zeros(12))
    terminal = total_cost(*_one_stage(x0, u0, x, x0, x_rf, x0[0:3], False),
                          as_terminal)
    stage = total_cost(*_one_stage(x, u0, x0, x_rf, x0, x0[0:3], False),
                       as_stage)
    assert terminal == pytest.approx(stage, rel=1e-12)


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
                         anchors=rng.normal(size=(1, 3)))
    e0 = dec.states[0] - plan.x_ref[0]
    dp = dec.states[0, 0:3] - plan.anchors[0]
    eN = dec.states[1] - plan.x_terminal
    want = (np.dot(cfg.q, e0 ** 2) + np.dot(cfg.r, dec.controls[0] ** 2)
            + np.dot(cfg.lam, dp ** 2) + np.dot(cfg.q_terminal, eN ** 2))
    assert total_cost(dec, plan, cfg) == pytest.approx(want, rel=1e-12)
    assert _naive_cost(dec, plan, cfg) == pytest.approx(want, rel=1e-12)


def test_total_cost_matches_naive_loop(cfg):
    # independent scalar-loop oracle, moving anchor included
    rng = np.random.default_rng(11)
    dec = DecisionVector(states=rng.normal(size=(cfg.n + 1, 12)),
                         controls=rng.normal(size=(cfg.n, 4)))
    plan = ReferencePlan(x_ref=rng.normal(size=(cfg.n + 1, 12)),
                         x_terminal=rng.normal(size=12),
                         anchors=_moving_anchors(rng.normal(size=3),
                                                 [0.8, -0.3, 0.0],
                                                 cfg.n, cfg.dt))
    want = _naive_cost(dec, plan, cfg)
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
    x0 = make_state(pos=(0.0, 0.0, 2.0))
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
    x0 = make_state(pos=(0.0, 0.0, 2.0))
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
    dec = _rollout_decision(make_state(pos=(0, 0, 1)), np.zeros((cfg.n, 4)),
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
    X = np.tile(make_state(pos=(0, 0, 1)), (cfg.n + 1, 1))
    U = np.tile(hover_control(params), (cfg.n, 1))
    dec = DecisionVector(X, U)
    dec.controls[4, 2] = cfg.u_max + 0.25
    bundle = constraint_eval(dec, dec.states[0], cfg, CbfConfig(), params)
    assert bundle.bound_violation == pytest.approx(0.25)


# -- warm-start shifting -----------------------------------------------------


def _warm(dec):
    """dec as a warm start with zero multipliers and no obstacles."""
    return WarmStart(dec, np.zeros((dec.n, 12)), np.zeros((dec.n, 0)), 10.0)


def test_shift_constant_sequences_are_fixed_points():
    X = np.tile(make_state(pos=(0, 0, 1)), (11, 1))
    U = np.full((10, 4), 2.5)
    out = _warm(DecisionVector(X, U)).shifted().decision
    np.testing.assert_array_equal(out.states, X)
    np.testing.assert_array_equal(out.controls, U)


def test_shift_preserves_lengths():
    rng = np.random.default_rng(4)
    dec = DecisionVector(rng.normal(size=(11, 12)), rng.normal(size=(10, 4)))
    out = _warm(dec).shifted().decision
    assert out.states.shape == (11, 12)
    assert out.controls.shape == (10, 4)


def test_double_shift_of_ramp_is_shift_by_two():
    k = np.arange(11)[:, None].astype(float)
    dec = DecisionVector(k * np.ones(12), k[:-1] * np.ones(4))
    twice = _warm(dec).shifted().shifted().decision
    # interior rows move by two; the duplicated tail saturates
    np.testing.assert_array_equal(twice.states[:-2], dec.states[2:])
    np.testing.assert_array_equal(twice.states[-2:], dec.states[[-1, -1]])
    np.testing.assert_array_equal(twice.controls[:-2], dec.controls[2:])


# -- gradients ----------------------------------------------------------------


@pytest.mark.parametrize("track_active", [False, True])
def test_cost_gradient_alone_is_the_same_bytes(cfg, track_active):
    # a gradient pass handed its value pass computes only the gradient
    rng = np.random.default_rng(23)
    for _ in range(20):
        plan = ReferencePlan(
            x_ref=rng.normal(size=(cfg.n + 1, 12)),
            x_terminal=rng.normal(size=12),
            anchors=rng.normal(size=(cfg.n, 3)) if track_active else None)
        X = rng.normal(size=(cfg.n + 1, 12))
        U = rng.uniform(cfg.u_min, cfg.u_max, (cfg.n, 4))
        c, g = _cost(X, U, plan, cfg, grad=True, value=False)
        assert c is None
        assert g.tobytes() == _cost(X, U, plan, cfg, grad=True)[1].tobytes()


def test_cost_gradient_matches_central_differences(cfg):
    rng = np.random.default_rng(5)
    dec = DecisionVector(rng.normal(size=(cfg.n + 1, 12)),
                         rng.normal(size=(cfg.n, 4)))
    plan = ReferencePlan(x_ref=rng.normal(size=(cfg.n + 1, 12)),
                         x_terminal=rng.normal(size=12),
                         anchors=_moving_anchors(rng.normal(size=3),
                                                 [0.5, 0.2, 0.0],
                                                 cfg.n, cfg.dt))
    c, g = _cost(dec.states, dec.controls, plan, cfg, grad=True)
    assert c == total_cost(dec, plan, cfg)
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


def test_gradient_check_detects_corruption(cfg, params, monkeypatch):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    plan = _constant_plan(cfg, (1.0, 0.0, 1.0))
    evaluate = solver._evaluate

    def corrupted(*args, **kwargs):
        # inflate the largest analytic gradient entry by 10%
        ev = evaluate(*args, **kwargs)
        if ev.G is None:
            return ev
        G = ev.G.copy()
        G[int(np.abs(G).argmax())] *= 1.1
        return ev._replace(G=G)
    monkeypatch.setattr(solver, "_evaluate", corrupted)
    report = gradient_check(solver, plan, n_points=3, seed=2)
    assert not report.passed


# -- Newton step ----------------------------------------------------------------


def _dense_gn_step(solver, z, G, Jx, Ju, lb, ub, lam_eq, mu, rho,
                   track_active, z_surface):
    """Reference projected Newton step: the full Hessian assembled as a
    dense matrix, one defect and one active barrier at a time, and solved
    directly on the free coordinates. Besides the Gauss-Newton terms, each
    x_k height gets the defect penalty's ground-effect curvature
    v_k . d2(d_k)/dz_k^2, v = rho d - lam_eq, clipped at zero, from central
    differences of the Jacobian's height column. A free coordinate the
    step carries past its bound is pinned at its distance to that bound
    and the rest solved again, the pinned displacement moved into the
    right-hand side, until nothing crosses."""
    cfg, gamma = solver.cfg, solver.cbf_cfg.gamma
    n, nx, nz = cfg.n, 12 * (cfg.n + 1), z.size
    X = z[:nx].reshape(n + 1, 12)
    U = z[nx:].reshape(n, 4)
    v = rho * (X[1:] - euler_step_batch(X[:n], U, cfg.dt, solver.params,
                                        z_surface)) - lam_eq
    h = 1e-6
    Ah = [derivative_and_jacobians_batch(X[:n] + s * h * np.eye(12)[2], U,
                                         solver.params, z_surface)[1]
          for s in (1.0, -1.0)]
    curv = -cfg.dt * np.sum(v * (Ah[0] - Ah[1])[:, :, 2], axis=1) / (2 * h)
    diag = np.empty(nz)
    dX = diag[:nx].reshape(n + 1, 12)
    dX[:n] = 2.0 * cfg.q
    if track_active:
        dX[:n, 0:3] += 2.0 * cfg.lam
    dX[n] = 2.0 * cfg.q_terminal
    diag[nx:] = np.tile(2.0 * cfg.r, n)
    dX[:n, 2] += np.maximum(curv, 0.0)
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
    free = ~fixed
    pinned = np.zeros(nz, dtype=bool)
    step = np.zeros(nz)
    while True:
        f = np.nonzero(free)[0]
        rhs = -G[f] - H[np.ix_(f, pinned)] @ step[pinned]
        step[f] = np.linalg.solve(H[np.ix_(f, f)], rhs)
        up = z + step > ub
        cross = free & (up | (z + step < lb))
        if not cross.any():
            return step, fixed, pinned
        step[cross] = np.where(up, ub, lb)[cross] - z[cross]
        free &= ~cross
        pinned |= cross


def _check_banded_step(params, n, track_active, rho, z_surface=0.0):
    """The banded step against _dense_gn_step at four random iterates,
    half their controls on a bound. With z_surface every node height sits
    in the ground-effect blend band or just above it."""
    cfg = NmpcConfig(n=n)
    cbf = CbfConfig(gamma=0.4, obstacles=[
        ObstacleSpec(center=(0.5, 0.0), radius=0.3),
        ObstacleSpec(center=(-1.0, 1.5), radius=0.2)])
    solver = NmpcSolver(cfg, cbf, params)
    plan = _constant_plan(cfg, (1.0, -0.5, 1.0), track_active=track_active,
                          v_platform=(0.5, 0.0, 0.0))
    rng = np.random.default_rng(n)
    nx = 12 * (n + 1)
    held = pins = curved = 0
    for _ in range(4):
        z = _random_decision(solver, rng)
        if z_surface:
            z[2:nx:12] = z_surface + np.linspace(0.045, 0.075, n + 1)
        # half the controls sit on a bound
        at_bound = rng.random(4 * n) < 0.5
        z[nx:][at_bound] = rng.choice([cfg.u_min, cfg.u_max], at_bound.sum())
        lb = solver._lb_template.copy()
        ub = solver._ub_template.copy()
        lb[:12] = ub[:12] = z[:12]      # the pinned initial state
        tr = solver._transcribe(z[:12], plan)
        lam_eq = rng.normal(0.0, 1.0, (n, 12))
        mu = rng.uniform(0.0, 5.0 * rho, (n, 2))
        ev = solver._evaluate(z, tr, lam_eq, mu, rho, z_surface, grad=True)
        assert np.any(ev.w > 0.0)       # some barrier is active
        curved += np.sum(ev.hz > 0.0)
        want, fixed, pinned = _dense_gn_step(solver, z, ev.G, ev.Jx, ev.Ju,
                                             lb, ub, lam_eq, mu, rho,
                                             track_active, z_surface)
        held += fixed[nx:].sum()
        pins += pinned.sum()
        got = solver._gn_step(z, ev, lb, ub, rho, tr)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-6 * np.abs(want).max())
        assert np.all(got[fixed] == 0.0)
        # the step stays in the box; a pinned coordinate lands exactly on
        # its bound wherever z + (b - z) rounds to b (else just inside)
        to = z + got
        assert np.all((lb <= to) & (to <= ub))
        b = np.where(ub - to < to - lb, ub, lb)     # the nearer bound
        exact = pinned & (z + (b - z) == b)
        assert np.all(to[exact] == b[exact])
    assert held > 0                     # some control was held at its bound
    assert pins > 0                     # and some coordinate was pinned
    assert curved > 0                   # some height carried curvature


@pytest.mark.parametrize("n", [1, 10, 40])
@pytest.mark.parametrize("track_active", [False, True])
@pytest.mark.parametrize("rho", [10.0, 1e3])
def test_banded_newton_step_matches_dense_reference(params, n, track_active,
                                                    rho):
    _check_banded_step(params, n, track_active, rho)


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("rho", [10.0, 1e3])
def test_banded_newton_step_in_ground_effect_band(params, n, rho):
    _check_banded_step(params, n, True, rho, z_surface=0.3)


def test_newton_step_holds_thrust_at_its_bound(cfg, params):
    # a 2 m climb from an Euler rollout at 6 N per motor, deep in the
    # penalty regime: the unconstrained step asks for about 10.6 N, past
    # u_max. Pinned at 7.5 N, the step is taken whole
    solver = NmpcSolver(cfg, CbfConfig(), params)
    n = cfg.n
    x0 = make_state(pos=(0.0, 0.0, 1.0))
    U = np.full((n, 4), 6.0)
    X = np.empty((n + 1, 12))
    X[0] = x0
    for k in range(n):
        X[k + 1] = euler_step(X[k], U[k], cfg.dt, params)
    z = np.concatenate([X.ravel(), U.ravel()])
    lb = solver._lb_template.copy()
    ub = solver._ub_template.copy()
    lb[:12] = ub[:12] = x0
    tr = solver._transcribe(x0, _constant_plan(cfg, (0.0, 0.0, 3.0)))
    prob = (tr, np.zeros((n, 12)), np.zeros((n, 0)), 1e4, 0.0)
    ev = solver._evaluate(z, *prob, grad=True)
    hit = solver._newton_step(z, ev, lb, ub, *prob)
    assert hit is not None
    z_new, new, a = hit
    assert a == 1.0
    assert z_new[12 * (n + 1):].max() == cfg.u_max
    assert np.abs(new.d).max() < 0.01
    assert new.L < ev.L


# -- solving -------------------------------------------------------------------


def test_solve_hover_equilibrium(cfg, params):
    x0 = make_state(pos=(0.0, 0.0, 2.0))
    plan = _constant_plan(cfg, (0.0, 0.0, 2.0))
    solver = NmpcSolver(cfg, CbfConfig(), params)
    sol = solver.solve(x0, plan)
    assert sol.converged
    assert sol.stop == "converged"
    want = hover_control(params)
    np.testing.assert_allclose(sol.u_apply, want, rtol=0.01)
    assert sol.defect_norm <= 1e-4


def test_solve_reports_budget_stop(params):
    cfg = NmpcConfig(max_inner_total=1)
    solver = NmpcSolver(cfg, CbfConfig(), params)
    sol = solver.solve(make_state(pos=(0.0, 0.0, 1.0)),
                       _constant_plan(cfg, (1.0, 0.5, 1.5)))
    assert sol.stop == "budget"
    assert not sol.converged
    assert sol.inner_iterations == 1


def test_solve_reports_outer_limit_stop(params, monkeypatch):
    # one outer iteration of at most two inner ones: the caps, not the
    # real-time budget, end the solve
    monkeypatch.setattr(ocp, "_MAX_OUTER", 1)
    monkeypatch.setattr(ocp, "_MAX_INNER", 2)
    cfg = NmpcConfig()
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    sol = solver.solve(make_state(pos=(0.0, 0.01, 2.0)),
                       _constant_plan(cfg, (2.0, 0.0, 1.3)))
    assert sol.stop == "outer_limit"
    assert (sol.iterations, sol.inner_iterations) == (1, 2)


def test_touchdown_solve_converges_in_ground_effect_band():
    # a cold DESCEND solve whose last nodes sit in the ground-effect blend
    # band over a 0.3 m surface. Without the band's curvature in the
    # Newton matrix it spends its whole 70-iteration budget; with it, it
    # converges in 27
    sc = load_scenario("static_clear")
    x0 = make_state(pos=(2.0, 0.0, 0.52), vel=(0.0, 0.0, -0.4))
    plan = build_reference_plan(LandingPhase.DESCEND, (2.0, 0.0, 0.3),
                                np.zeros(3), 0.0, sc.nmpc, sc.thresholds, 2.1)
    sol = NmpcSolver(sc.nmpc, sc.cbf, sc.params).solve(x0, plan,
                                                        z_surface=0.3)
    assert sol.stop == "converged", (sol.stop, sol.inner_iterations)


def test_solve_avoids_obstacle_between(cfg, params):
    # obstacle sits on the straight line to the platform; the converged
    # plan must clear the inflated disc and commit to one side
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = make_state(pos=(0.0, 0.01, 2.0))
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
    x0 = make_state(pos=(0.0, 0.01, 2.0))
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    cold = solver.solve(x0, plan)
    warm = solver.solve(x0, plan, warm=cold.warm)
    assert warm.converged
    assert warm.iterations <= 3


def test_solve_converged_meets_contract(cfg, params):
    ob = ObstacleSpec(center=(0.6, 0.3), radius=0.15)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = make_state(pos=(0.0, 0.0, 1.5))
    plan = _constant_plan(cfg, (1.2, 0.6, 1.0))
    sol = solver.solve(x0, plan)
    assert sol.converged
    assert sol.defect_norm <= 1e-4
    assert sol.min_cbf_residual >= -1e-5
    z = sol.decision.flatten()
    X, U = sol.decision.states, sol.decision.controls
    assert np.all(U >= cfg.u_min) and np.all(U <= cfg.u_max)
    assert np.all(X >= _X_MIN - 1e-12) and np.all(X <= _X_MAX + 1e-12)
    np.testing.assert_array_equal(X[0], x0)


def test_solve_objective_net_decrease(cfg, params, monkeypatch):
    # each inner solve must end at or below where it started; spectral
    # steps are allowed transient increases inside their reference window
    solver = NmpcSolver(cfg, CbfConfig(), params)
    x0 = make_state(pos=(0.2, -0.1, 1.8))
    plan = _constant_plan(cfg, (0.0, 0.0, 1.5))
    # a subproblem's objective trace: its entry gradient pass (at=None)
    # opens it, the gradient pass of each accepted point (at given) extends it
    traces = []
    evaluate = solver._evaluate

    def spy(*args, grad=False, at=None):
        ev = evaluate(*args, grad=grad, at=at)
        if grad and at is None:
            traces.append([ev.L])
        elif grad:
            traces[-1].append(ev.L)
        return ev
    monkeypatch.setattr(solver, "_evaluate", spy)
    sol = solver.solve(x0, plan)
    assert sol.converged
    assert traces
    for trace in traces:
        assert trace[-1] <= trace[0] + 1e-12
        assert max(trace) <= trace[0] + 1e-12


def test_solve_deterministic(cfg, params):
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)

    def run():
        solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
        return solver.solve(make_state(pos=(0.0, 0.01, 2.0)),
                            _constant_plan(cfg, (2.0, 0.0, 1.3)))

    a, b = run(), run()
    assert a.cost == b.cost
    assert a.kkt_residual == b.kkt_residual
    assert a.decision.flatten().tobytes() == b.decision.flatten().tobytes()
    assert a.iterations == b.iterations


def test_relaxed_stage0_floor_does_not_outlive_the_solve(cfg, params):
    # heading into the disc fast enough that the stage-0 decay is already
    # lost, so solve relaxes that stage's floor; the relaxation belongs to
    # that solve alone and must not leak into later evaluations
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    before = solver._mrow.copy()
    check = gradient_check(solver, plan, n_points=2, seed=3)
    x0 = make_state(pos=(0.4, 0.05, 2.0))
    x0[3] = 2.5
    assert np.sum((x0[0:2] + cfg.dt * x0[3:5] - ob.center) ** 2) \
        < ob.r_safe ** 2                # the measured state is committed
    solver.solve(x0, plan)
    np.testing.assert_array_equal(solver._mrow, before)
    assert gradient_check(solver, plan, n_points=2, seed=3) == check


def test_solve_rejects_nonfinite_state(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    x0 = make_state(pos=(0.0, 0.0, 1.0))
    x0[5] = np.nan
    with pytest.raises(SolverDiverged):
        solver.solve(x0, _constant_plan(cfg, (0.0, 0.0, 1.0)))


def test_solve_rejects_mismatched_plan(cfg, params):
    solver = NmpcSolver(cfg, CbfConfig(), params)
    bad = _constant_plan(NmpcConfig(n=4), (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        solver.solve(make_state(pos=(0, 0, 1)), bad)


def test_solve_returns_best_iterate_when_not_converged(cfg, params):
    # starve the budget so the flag must come back false, iterate intact
    tiny = NmpcConfig(max_inner_total=2)
    solver = NmpcSolver(tiny, CbfConfig(), params)
    x0 = make_state(pos=(0.0, 0.0, 2.0))
    plan = _constant_plan(tiny, (1.5, 1.5, 1.0))
    sol = solver.solve(x0, plan)
    assert not sol.converged
    assert np.all(np.isfinite(sol.decision.flatten()))
    assert np.all(sol.u_apply >= tiny.u_min)
    assert np.all(sol.u_apply <= tiny.u_max)


def _certificate_case(case, params, monkeypatch):
    """Solve one small obstacle problem so that it ends the way case names;
    returns the solver, measured state and solution."""
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2)
    cfg = {"converged": NmpcConfig(), "polished": NmpcConfig(),
           "budget": NmpcConfig(max_inner_total=2),
           "no_step": NmpcConfig()}[case]
    if case == "no_step":
        # the subproblem is already solved at entry, so no step is taken
        monkeypatch.setattr(ocp, "_TOL_STAT", 1e3)
        monkeypatch.setattr(ocp, "_MAX_OUTER", 1)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), params)
    x0 = make_state(pos=(0.0, 0.01, 2.0))
    plan = _constant_plan(cfg, (2.0, 0.0, 1.3))
    warm = solver.solve(x0, plan).warm if case == "converged" else None
    polished = []
    polish = NmpcSolver._try_polish

    def spy(self, z, *args):
        out = polish(self, z, *args)
        polished.append(None if out[0] is z else out[0])
        return out

    monkeypatch.setattr(NmpcSolver, "_try_polish", spy)
    sol = solver.solve(x0, plan, warm=warm)
    if case in ("converged", "polished"):
        assert sol.converged
    if case == "polished":
        # the solve returns the polished iterate itself
        assert polished[-1] is not None
        assert sol.decision.flatten().tobytes() == polished[-1].tobytes()
    if case == "budget":
        assert sol.stop == "budget"
        assert sol.inner_iterations == 2
    if case == "no_step":
        assert sol.inner_iterations == 0
    return solver, x0, sol


@pytest.mark.parametrize("case", ["converged", "polished", "budget",
                                  "no_step"])
def test_certificate_is_the_reference_evaluation(params, monkeypatch, case):
    # the solver reports the defect norm, barrier residual and cost of the
    # iterate it returns from its own last evaluation; they must be those
    # of the reference constraint_eval and cost, bit for bit
    solver, x0, sol = _certificate_case(case, params, monkeypatch)
    ref = constraint_eval(sol.decision, x0, solver.cfg, solver.cbf_cfg,
                          solver.params)
    assert sol.defect_norm.hex() == ref.defect_norm.hex()
    assert sol.min_cbf_residual.hex() == ref.min_cbf_residual.hex()
    tr = solver._transcribe(x0, _constant_plan(solver.cfg, (2.0, 0.0, 1.3)))
    assert sol.cost == _cost(sol.decision.states, sol.decision.controls, tr,
                             solver.cfg)
    if case == "no_step":
        # one multiplier update from zero, with the reference defects
        want = 0.0 - _PENALTY_INIT * ref.defects
        assert sol.warm.lam_eq.tobytes() == want.tobytes()


@pytest.mark.parametrize("z_surface", [0.0, 0.05, 0.3])
def test_polish_rollout_matches_one_row_batch_steps(cfg, params, z_surface):
    # the polish steps one 1-D state at a time; each step must be the bits
    # of the same state stepped as a one-row batch, ground-effect band too
    solver = NmpcSolver(cfg, CbfConfig(), params)
    x0 = make_state(pos=(0.0, 0.0, z_surface + 0.08))
    plan = _constant_plan(cfg, (0.5, 0.0, z_surface))
    rng = np.random.default_rng(4)
    dec = DecisionVector(solver.cold_start(x0, plan).states,
                         rng.uniform(cfg.u_min, cfg.u_max, (cfg.n, 4)))
    z = dec.flatten()
    free = np.full(z.size, np.inf)
    tr = solver._transcribe(x0, plan)
    zp, _ = solver._try_polish(z, None, -free, free, tr, np.zeros((cfg.n, 12)),
                               np.zeros((cfg.n, 0)), _PENALTY_INIT,
                               z_surface)
    X = dec.states.copy()
    for k in range(cfg.n):
        X[k + 1] = euler_step_batch(X[k][None], dec.controls[k][None], cfg.dt,
                                    params, z_surface)[0]
    assert zp is not z
    assert zp[:X.size].tobytes() == X.tobytes()


# -- config validation ---------------------------------------------------------


@pytest.mark.parametrize("budget", ["max_inner_total"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_iteration_budget_below_one(budget, value):
    with pytest.raises(ValueError, match="iteration budgets"):
        NmpcConfig(**{budget: value})
    NmpcConfig(**{budget: 1})


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
        ReferencePlan(x_ref=np.zeros((11, 7)), x_terminal=np.zeros(12))
    # one anchor per stage, not one platform point for the whole horizon
    with pytest.raises(ValueError, match="anchors"):
        ReferencePlan(x_ref=np.zeros((11, 12)), x_terminal=np.zeros(12),
                      anchors=np.zeros(3))
