"""Multiple-shooting transcription of the landing problem and a
self-contained constrained solver.

Decision variables are the shooting-node states X[0..N] and stage controls
U[0..N-1], flattened into one vector. Dynamics enter as equality defects

    d_k = X[k+1] - euler_step(X[k], U[k], dt) = 0

and obstacle avoidance as barrier decay inequalities per stage and obstacle.
The solver is an augmented-Lagrangian outer loop (shifted quadratic penalty
for the inequalities) around a projected Gauss-Newton inner loop with a
spectral projected-gradient fallback on the box constraints. X[0] is pinned
to the measured state through the box bounds, so the pin is exact at every
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
# cho_factor and cho_solve stay bound: perfbench/tracing.py patches them here
from scipy.linalg import cho_factor, cho_solve, solveh_banded  # noqa: F401

from landersim.cbf import CbfConfig, barrier_value
from landersim.dynamics import (
    QuadrotorParams,
    derivative_and_jacobians_batch,
    derivative_batch,
    euler_step_batch,
)


class SolverDiverged(RuntimeError):
    """The objective or gradient became non-finite; the iterate is unusable."""


def _default_q():
    return np.array([10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 0.5, 0.5, 0.5])


def _default_x_min():
    b = np.full(12, -np.inf)
    b[2] = 0.0          # stay at or above the ground plane
    b[3:6] = -3.0       # per-axis velocity limit
    b[6:8] = -0.6       # roll/pitch envelope; yaw free
    return b


def _default_x_max():
    b = np.full(12, np.inf)
    b[3:6] = 3.0
    b[6:8] = 0.6
    return b


@dataclass
class NmpcConfig:
    """Horizon, weights, bounds, and solver budgets.

    The diagonal weight vectors q, r, q_terminal multiply squared errors
    elementwise. lam weighs the squared distance of predicted position to
    the platform anchor; callers enable it only while tracking or
    descending. cbf_margin tightens the barrier-decay constraint inside
    the solver so the continuous-time plant, which cuts corners relative
    to the Euler prediction, still clears the nominal boundary.

    ref_governor_speed clips reference and anchor positions to a cone
    reachable at that speed from the measured state before transcription.
    Far-away setpoints otherwise make the penalty subproblems badly
    conditioned (nodes chase the reference across the dynamics constraint);
    the governed problem has the same fixed points once the target is
    within reach. Set to None or inf to disable.

    max_inner_total bounds the summed inner iterations of one solve call.
    It is the real-time budget: deployments that must meet a cycle
    deadline set it so the worst case fits, and the solver returns its
    best iterate unconverged when the budget runs out. Iteration counts,
    unlike wall-clock deadlines, keep the returned control deterministic.
    """

    n: int = 10
    dt: float = 0.1
    q: np.ndarray = field(default_factory=_default_q)
    r: np.ndarray = field(default_factory=lambda: np.full(4, 0.01))
    q_terminal: np.ndarray = field(default_factory=lambda: 5.0 * _default_q())
    lam: np.ndarray = field(default_factory=lambda: np.array([20.0, 20.0, 20.0]))
    u_min: float = 0.0
    u_max: float = 7.5
    x_min: np.ndarray = field(default_factory=_default_x_min)
    x_max: np.ndarray = field(default_factory=_default_x_max)
    max_outer: int = 20
    max_inner: int = 100
    max_inner_total: int = 400
    penalty_init: float = 10.0
    penalty_growth: float = 5.0
    penalty_max: float = 1e6
    tol_feas: float = 5e-5
    tol_stat: float = 5e-4
    tol_ineq: float = 1e-6
    armijo_sigma: float = 1e-4
    cbf_margin: float = 0.05
    ref_governor_speed: float = 2.0
    polish_gate: float = 2e-3

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.q_terminal = np.asarray(self.q_terminal, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.x_min = np.asarray(self.x_min, dtype=float)
        self.x_max = np.asarray(self.x_max, dtype=float)
        if self.n < 1:
            raise ValueError("horizon must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for w in (self.q, self.r, self.q_terminal, self.lam):
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
        if self.u_min > self.u_max or np.any(self.x_min > self.x_max):
            raise ValueError("bounds must be ordered")


@dataclass
class ReferencePlan:
    """Per-stage reference states plus the platform anchor.

    x_ref has N+1 rows; row k is the desired state at stage k. p_platform
    and v_platform give the anchor for the positional pull term, advanced
    by k*dt per stage so a moving platform is chased at its own velocity
    rather than at its current position. track_active turns that term on.
    """

    x_ref: np.ndarray
    x_terminal: np.ndarray
    p_platform: np.ndarray
    v_platform: np.ndarray = field(default_factory=lambda: np.zeros(3))
    track_active: bool = False

    def __post_init__(self):
        self.x_ref = np.asarray(self.x_ref, dtype=float)
        self.x_terminal = np.asarray(self.x_terminal, dtype=float)
        self.p_platform = np.asarray(self.p_platform, dtype=float)
        self.v_platform = np.asarray(self.v_platform, dtype=float)
        if self.x_ref.ndim != 2 or self.x_ref.shape[1] != 12:
            raise ValueError("x_ref must be (N+1, 12)")

    @property
    def n(self) -> int:
        return self.x_ref.shape[0] - 1


@dataclass
class DecisionVector:
    """Shooting-node states (N+1, 12) and stage controls (N, 4)."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise ValueError("need one more state row than control rows")

    @property
    def n(self) -> int:
        return self.controls.shape[0]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.states.ravel(), self.controls.ravel()])

    @classmethod
    def from_flat(cls, z: np.ndarray, n: int) -> "DecisionVector":
        nx = 12 * (n + 1)
        return cls(states=z[:nx].reshape(n + 1, 12).copy(),
                   controls=z[nx:].reshape(n, 4).copy())

    def copy(self) -> "DecisionVector":
        return DecisionVector(self.states.copy(), self.controls.copy())


@dataclass
class ConstraintBundle:
    """Raw constraint values at a decision vector: dynamics defects (N, 12),
    barrier-decay residuals (N, n_obstacles) without solver tightening, the
    initial-state pin residual, and the worst box-bound violation."""

    defects: np.ndarray
    cbf_residuals: np.ndarray
    pin_residual: np.ndarray
    bound_violation: float

    @property
    def defect_norm(self) -> float:
        if self.defects.size == 0:
            return 0.0
        return float(np.abs(self.defects).max())

    @property
    def min_cbf_residual(self) -> float:
        if self.cbf_residuals.size == 0:
            return float("inf")
        return float(self.cbf_residuals.min())


@dataclass
class WarmStart:
    """Everything carried between consecutive solves: the decision vector
    plus the constraint multipliers and the penalty weight reached."""

    decision: DecisionVector
    lam_eq: np.ndarray
    mu_ineq: np.ndarray
    rho: float

    def shifted(self) -> "WarmStart":
        dec = shift_warm_start(self.decision)
        lam = np.roll(self.lam_eq, -1, axis=0)
        lam[-1] = self.lam_eq[-1]
        mu = np.roll(self.mu_ineq, -1, axis=0)
        if mu.shape[0]:
            mu[-1] = self.mu_ineq[-1]
        return WarmStart(dec, lam, mu, self.rho)


@dataclass
class OcpSolution:
    """Solve outcome. converged guarantees defect_norm <= 1e-4,
    min_cbf_residual >= -1e-5, and exact box bounds on the iterate."""

    decision: DecisionVector
    u_apply: np.ndarray
    cost: float
    kkt_residual: float
    defect_norm: float
    min_cbf_residual: float
    iterations: int
    inner_iterations: int
    converged: bool
    warm: WarmStart


def stage_cost(x_u, u, x_r, p_f, cfg: NmpcConfig, track_active: bool = False) -> float:
    """Quadratic tracking cost for one stage, optionally with the platform
    pull term lam .* (pos - p_f)^2."""
    e = np.asarray(x_u, dtype=float) - np.asarray(x_r, dtype=float)
    u = np.asarray(u, dtype=float)
    c = float(e @ (cfg.q * e) + u @ (cfg.r * u))
    if track_active:
        dp = np.asarray(x_u, dtype=float)[0:3] - np.asarray(p_f, dtype=float)
        c += float(dp @ (cfg.lam * dp))
    return c


def terminal_cost(x_n, x_rf, cfg: NmpcConfig) -> float:
    e = np.asarray(x_n, dtype=float) - np.asarray(x_rf, dtype=float)
    return float(e @ (cfg.q_terminal * e))


def total_cost(decision: DecisionVector, plan: ReferencePlan, cfg: NmpcConfig) -> float:
    """Sum of stage costs plus the terminal cost."""
    X, U = decision.states, decision.controls
    n = decision.n
    err = X[:n] - plan.x_ref[:n]
    c = float(np.sum(err * err * cfg.q) + np.sum(U * U * cfg.r))
    if plan.track_active:
        k = np.arange(n)[:, None]
        anchors = plan.p_platform + k * cfg.dt * plan.v_platform
        dp = X[:n, 0:3] - anchors
        c += float(np.sum(dp * dp * cfg.lam))
    eN = X[n] - plan.x_terminal
    c += float(eN @ (cfg.q_terminal * eN))
    return c


def constraint_eval(decision: DecisionVector, x_init, cfg: NmpcConfig,
                    cbf_cfg: CbfConfig, params: QuadrotorParams,
                    z_surface: float = 0.0) -> ConstraintBundle:
    """Evaluate all constraints at a decision vector (raw, untightened)."""
    X, U = decision.states, decision.controls
    n = decision.n
    pred = euler_step_batch(X[:n], U, cfg.dt, params, z_surface)
    defects = X[1:] - pred

    if cbf_cfg.obstacles:
        res = np.empty((n, len(cbf_cfg.obstacles)))
        for j, ob in enumerate(cbf_cfg.obstacles):
            h = barrier_value(X[:, 0:2], ob)
            res[:, j] = h[1:] - (1.0 - cbf_cfg.gamma) * h[:n]
    else:
        res = np.zeros((n, 0))

    lo = np.maximum(cfg.x_min - X[1:], 0.0).max() if n else 0.0
    hi = np.maximum(X[1:] - cfg.x_max, 0.0).max() if n else 0.0
    ulo = np.maximum(cfg.u_min - U, 0.0).max()
    uhi = np.maximum(U - cfg.u_max, 0.0).max()
    return ConstraintBundle(
        defects=defects,
        cbf_residuals=res,
        pin_residual=X[0] - np.asarray(x_init, dtype=float),
        bound_violation=float(max(lo, hi, ulo, uhi)),
    )


def shift_warm_start(prev: DecisionVector) -> DecisionVector:
    """Receding-horizon shift: drop stage 0, duplicate the tail."""
    X = np.roll(prev.states, -1, axis=0)
    X[-1] = prev.states[-1]
    U = np.roll(prev.controls, -1, axis=0)
    U[-1] = prev.controls[-1]
    return DecisionVector(X, U)


class NmpcSolver:
    """Augmented-Lagrangian solver for one receding-horizon problem.

    Construction fixes the configuration, obstacle set, and vehicle
    parameters; solve() may be called repeatedly with fresh measured
    states and reference plans.
    """

    def __init__(self, cfg: NmpcConfig, cbf_cfg: CbfConfig,
                 params: QuadrotorParams):
        self.cfg = cfg
        self.cbf_cfg = cbf_cfg
        self.params = params
        n = cfg.n
        self._nx = 12 * (n + 1)
        self._nz = self._nx + 4 * n
        # static box bounds; the X[0] block is overwritten per solve
        lb = np.empty(self._nz)
        ub = np.empty(self._nz)
        lb[:self._nx] = np.tile(cfg.x_min, n + 1)
        ub[:self._nx] = np.tile(cfg.x_max, n + 1)
        lb[self._nx:] = cfg.u_min
        ub[self._nx:] = cfg.u_max
        self._lb_template = lb
        self._ub_template = ub
        self._centers = np.array([ob.center for ob in cbf_cfg.obstacles]) \
            if cbf_cfg.obstacles else np.zeros((0, 2))
        self._rsafe2 = np.array([ob.r_safe ** 2 for ob in cbf_cfg.obstacles])
        # per-control defect curvature (dt^2 column norms of df/du) for the
        # inner-loop metric, evaluated at nominal conditions
        mixJ = params.mix_matrix() / params.J[:, None]
        self._ucol2 = cfg.dt ** 2 * ((1.0 / params.m) ** 2
                                     + np.sum(mixJ * mixJ, axis=0))
        # Newton system in stage-interleaved order (x0, u0, x1, ..., xN):
        # stage k's block over (x_k, u_k, x_k+1) starts at 16k, so the
        # matrix is banded with half-bandwidth 27 whatever the Jacobians hold
        k = np.arange(n)[:, None]
        self._perm = np.concatenate([
            np.hstack([12 * k + np.arange(12),
                       self._nx + 4 * k + np.arange(4)]).ravel(),
            12 * n + np.arange(12)])
        self._iperm = np.argsort(self._perm)
        self._blk = 16 * k + np.arange(28)
        ta, tb = np.tril_indices(28)
        self._tri = 28 * ta + tb
        self._band_at = ((ta - tb) * self._nz + self._blk[:, tb]).ravel()
        # per-stage linearization rows: defect rows [I, 0, -I] plus one
        # barrier-gradient row per obstacle, filled in per Newton step
        self._m0 = np.zeros((n, 12 + self._centers.shape[0], 28))
        self._m0[:, :12] = np.hstack([np.eye(12), np.zeros((12, 4)),
                                      -np.eye(12)])
        # block cost diagonal without [0] and with [1] the tracking term
        cd = np.zeros((2, n, 28))
        cd[:, :, :12] = 2.0 * cfg.q
        cd[1, :, 0:3] += 2.0 * cfg.lam
        cd[:, :, 12:16] = 2.0 * cfg.r
        cd[:, -1, 16:] = 2.0 * cfg.q_terminal
        self._cdiag = cd
        # per-stage tightening of the decay constraint. Stage 0 carries no
        # margin: the Euler position one step out is fixed by the measured
        # state, so tightening there would only poison the solve. solve()
        # relaxes it further if even the raw stage-0 decay is unattainable.
        self._mrow = np.full((n, max(self._centers.shape[0], 1)),
                             cfg.cbf_margin)
        self._mrow[0] = 0.0
        self.last_inner_traces = []

    # -- problem evaluation over the flat vector -------------------------

    def _views(self, z):
        n = self.cfg.n
        X = z[:self._nx].reshape(n + 1, 12)
        U = z[self._nx:].reshape(n, 4)
        return X, U

    def _transcribe(self, x_init, plan: ReferencePlan):
        """Governed reference arrays for one solve: stage references
        (N+1, 12), terminal reference, and per-stage anchors (N, 3) or None.
        Positions are pulled into the cone reachable at the governor speed."""
        cfg = self.cfg
        n = cfg.n
        x_ref = plan.x_ref
        x_term = plan.x_terminal
        anchors = None
        if plan.track_active:
            k = np.arange(n)[:, None]
            anchors = plan.p_platform + k * cfg.dt * plan.v_platform
        vg = cfg.ref_governor_speed
        if vg is not None and np.isfinite(vg):
            p0 = np.asarray(x_init, dtype=float)[0:3]
            caps = vg * cfg.dt * np.arange(n + 1)

            def pull(points, cap):
                dp = points - p0
                dist = np.linalg.norm(dp, axis=-1)
                scale = np.where(dist > cap, cap / np.maximum(dist, 1e-12), 1.0)
                return p0 + dp * scale[..., None]

            x_ref = x_ref.copy()
            x_ref[:, 0:3] = pull(x_ref[:, 0:3], caps)
            x_term = x_term.copy()
            x_term[0:3] = pull(x_term[None, 0:3], caps[n])[0]
            if anchors is not None:
                anchors = pull(anchors, caps[:n])
        return x_ref, x_term, anchors

    def _barriers(self, X):
        """h per node and obstacle, shape (N+1, n_obs)."""
        d = X[:, None, 0:2] - self._centers[None, :, :]
        return np.sum(d * d, axis=2) - self._rsafe2

    def _constraints(self, X, U, z_surface):
        """Defects (N,12) and tightened decay residuals (N, n_obs)."""
        n = self.cfg.n
        pred = euler_step_batch(X[:n], U, self.cfg.dt, self.params, z_surface)
        defects = X[1:] - pred
        if self._centers.shape[0]:
            h = self._barriers(X)
            g = h[1:] - (1.0 - self.cbf_cfg.gamma) * h[:n] - self._mrow
        else:
            g = np.zeros((n, 0))
        return defects, g

    def _cost_terms(self, X, U, tr):
        cfg = self.cfg
        n = cfg.n
        x_ref, x_term, anchors = tr
        err = X[:n] - x_ref[:n]
        c = np.sum(err * err * cfg.q) + np.sum(U * U * cfg.r)
        if anchors is not None:
            dp = X[:n, 0:3] - anchors
            c += np.sum(dp * dp * cfg.lam)
        eN = X[n] - x_term
        c += eN @ (cfg.q_terminal * eN)
        return float(c)

    def _al_value(self, z, tr, lam_eq, mu, rho, z_surface):
        X, U = self._views(z)
        c = self._cost_terms(X, U, tr)
        d, g = self._constraints(X, U, z_surface)
        c += -np.sum(lam_eq * d) + 0.5 * rho * np.sum(d * d)
        if g.size:
            w = np.maximum(0.0, mu - rho * g)
            c += np.sum(w * w - mu * mu) / (2.0 * rho)
        return float(c)

    def _al_value_and_grad(self, z, tr, lam_eq, mu, rho, z_surface):
        """Augmented objective, its gradient, and the linearization the
        Newton step reuses: dynamics Jacobians, node-to-obstacle position
        differences and barrier penalty weights (both None without
        obstacles)."""
        cfg = self.cfg
        X, U = self._views(z)
        n = cfg.n
        x_ref, x_term, anchors = tr
        G = np.zeros_like(z)
        GX = G[:self._nx].reshape(n + 1, 12)
        GU = G[self._nx:].reshape(n, 4)

        err = X[:n] - x_ref[:n]
        c = np.sum(err * err * cfg.q) + np.sum(U * U * cfg.r)
        GX[:n] += 2.0 * cfg.q * err
        GU += 2.0 * cfg.r * U
        if anchors is not None:
            dp = X[:n, 0:3] - anchors
            c += np.sum(dp * dp * cfg.lam)
            GX[:n, 0:3] += 2.0 * cfg.lam * dp
        eN = X[n] - x_term
        c += eN @ (cfg.q_terminal * eN)
        GX[n] += 2.0 * cfg.q_terminal * eN

        f, Jx, Ju = derivative_and_jacobians_batch(X[:n], U, self.params,
                                                   z_surface)
        d = X[1:] - X[:n] - cfg.dt * f
        c += -np.sum(lam_eq * d) + 0.5 * rho * np.sum(d * d)
        v = rho * d - lam_eq
        GX[1:] += v
        # A = I + dt J_x, B = dt J_u; defect depends on X[k], U[k] via -A, -B
        vc = v[:, :, None]
        GX[:n] -= v + cfg.dt * np.matmul(Jx.transpose(0, 2, 1), vc)[:, :, 0]
        GU -= cfg.dt * np.matmul(Ju.transpose(0, 2, 1), vc)[:, :, 0]

        diff = w = None
        if self._centers.shape[0]:
            h = self._barriers(X)
            g = h[1:] - (1.0 - self.cbf_cfg.gamma) * h[:n] - self._mrow
            w = np.maximum(0.0, mu - rho * g)
            c += np.sum(w * w - mu * mu) / (2.0 * rho)
            # dg/dX[k+1] = grad h(X[k+1]), dg/dX[k] = -(1-gamma) grad h(X[k])
            diff = X[:, None, 0:2] - self._centers[None, :, :]
            GX[1:, 0:2] -= 2.0 * np.sum(w[:, :, None] * diff[1:], axis=1)
            GX[:n, 0:2] += 2.0 * (1.0 - self.cbf_cfg.gamma) * np.sum(
                w[:, :, None] * diff[:n], axis=1)
        return float(c), G, (Jx, Ju, diff, w)

    # -- inner loop: projected Gauss-Newton with spectral fallback ---------

    def _gn_step(self, z, G, lin, lb, ub, rho, track_active):
        """Projected Gauss-Newton direction: zero on the coordinates fixed at
        a bound the gradient pushes against, the solution of the normal
        equations on the rest; None if the factorization fails.

        Stage k contributes rho MᵀM over (x_k, u_k, x_k+1), where M stacks
        the defect Jacobian [I + dt Jx, dt Ju, -I] over one gradient row
        per active barrier on (x_k[0:2], x_k+1[0:2]). That is exact for the
        defect penalty and keeps the outer-product part of the inequality
        penalty, so with the cost diagonal the matrix is positive definite.
        The blocks are summed into band storage and factored by band
        Cholesky, so the cost is linear in the horizon."""
        cfg = self.cfg
        n = cfg.n
        Jx, Ju, diff, w = lin
        fixed = (ub - lb <= 0.0) \
            | ((z - lb <= 1e-9) & (G > 0.0)) \
            | ((ub - z <= 1e-9) & (G < 0.0))
        free = ~fixed[self._perm]
        fb = free[self._blk]
        M = self._m0.copy()
        M[:, :12, :12] += cfg.dt * Jx
        M[:, :12, 12:16] = cfg.dt * Ju
        if diff is not None:
            act = (w > 0.0)[:, :, None]
            M[:, 12:, 0:2] = -2.0 * (1.0 - self.cbf_cfg.gamma) * act * diff[:n]
            M[:, 12:, 16:18] = 2.0 * act * diff[1:]
        M *= fb[:, None, :]     # fixed coordinates drop out of every block
        Hb = (rho * (M.transpose(0, 2, 1) @ M)).reshape(n, -1)
        Hb[:, ::29] += self._cdiag[int(track_active)] * fb
        ab = np.bincount(self._band_at, weights=Hb[:, self._tri].ravel(),
                         minlength=28 * self._nz).reshape(28, self._nz)
        ab[0, ~free] = 1.0
        rhs = np.where(free, -G[self._perm], 0.0)
        try:
            sol = solveh_banded(ab, rhs, overwrite_ab=True, overwrite_b=True,
                                lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        return sol[self._iperm] if np.all(np.isfinite(sol)) else None

    def _newton_step(self, z, G, lin, lb, ub, tr, lam_eq, mu, rho, z_surface,
                     S, l_ref, track_active, a0=1.0):
        """One projected Gauss-Newton iteration: project the _gn_step step
        into the box, backtrack on the augmented objective from step size
        a0. Returns None when the step fails its line search, which hands
        control back to the spectral fallback."""
        step = self._gn_step(z, G, lin, lb, ub, rho, track_active)
        if step is None:
            return None
        sigma = self.cfg.armijo_sigma
        a = a0
        for _ in range(25):
            cand = np.clip(z + a * step, lb, ub)
            dz = cand - z
            ss = float(dz @ (S * dz))
            if ss == 0.0:
                return None
            Lc = self._al_value(cand, tr, lam_eq, mu, rho, z_surface)
            if np.isfinite(Lc) and Lc <= l_ref - sigma * min(a, 1.0) * ss:
                return cand, Lc, a
            a *= 0.5
        return None

    def _metric(self, z, mu, rho, track_active):
        """Diagonal curvature estimate of the augmented objective; steps are
        taken in this metric to tame the wide weight/penalty spread. The
        barrier-penalty curvature is added where the constraint is active."""
        cfg = self.cfg
        n = cfg.n
        sx = 2.0 * cfg.q + 2.0 * rho
        if track_active:
            sx = sx.copy()
            sx[0:3] += 2.0 * cfg.lam
        S = np.empty(self._nz)
        SX = S[:self._nx].reshape(n + 1, 12)
        SX[:] = sx
        SX[n] = 2.0 * cfg.q_terminal + rho
        S[self._nx:] = np.tile(2.0 * cfg.r + rho * self._ucol2, n)
        if self._centers.shape[0]:
            X = z[:self._nx].reshape(n + 1, 12)
            h = self._barriers(X)
            g = h[1:] - (1.0 - self.cbf_cfg.gamma) * h[:n] - self._mrow
            act = (mu - rho * g > 0.0).astype(float)
            diff2 = (X[:, None, 0:2] - self._centers[None, :, :]) ** 2
            omg2 = (1.0 - self.cbf_cfg.gamma) ** 2
            SX[1:, 0:2] += 4.0 * rho * np.sum(act[:, :, None] * diff2[1:], axis=1)
            SX[:n, 0:2] += 4.0 * rho * omg2 * np.sum(
                act[:, :, None] * diff2[:n], axis=1)
        return S

    def _inner(self, z, lb, ub, tr, lam_eq, mu, rho, z_surface, tol, budget,
               track_active):
        sigma = self.cfg.armijo_sigma
        S = self._metric(z, mu, rho, track_active)
        D = 1.0 / S
        L, G, lin = self._al_value_and_grad(z, tr, lam_eq, mu, rho,
                                            z_surface)
        if not np.isfinite(L) or not np.all(np.isfinite(G)):
            raise SolverDiverged("non-finite objective at inner-loop entry")
        alpha = 1.0
        na = 1.0
        used = 0
        trace = [L]
        # nonmonotone reference: accept against the worst of the last few
        # values so full spectral steps survive more often
        hist = [L]
        newton = True
        # fixed-point residual of the scaled projected-gradient map: how far
        # a unit step in the metric would move the iterate
        pg = float(np.abs(np.clip(z - D * G, lb, ub) - z).max())
        for _ in range(budget):
            if pg <= tol:
                break
            used += 1
            L_ref = max(hist)
            z_new = L_new = None
            if newton:
                # monotone acceptance here: letting a Newton step ride the
                # nonmonotone window sustains two-cycles across the barrier
                # activation kink instead of damping them out
                hit = self._newton_step(z, G, lin, lb, ub, tr, lam_eq, mu,
                                        rho, z_surface, S, L, track_active,
                                        na)
                if hit is None:
                    newton = False      # direction went bad; spectral from here
                else:
                    z_new, L_new, a_acc = hit
                    na = min(1.0, 2.0 * a_acc)
                    if a_acc < 1e-6:
                        # a microscopic accepted step means the quadratic
                        # model is worthless here (model kinks); keep the
                        # point but stop asking Newton
                        newton = False
            if z_new is None:
                a = alpha
                dirn = D * G
                for _ in range(60):
                    cand = np.clip(z - a * dirn, lb, ub)
                    dz = cand - z
                    ss = float(dz @ (S * dz))
                    if ss == 0.0:
                        break
                    Lc = self._al_value(cand, tr, lam_eq, mu, rho, z_surface)
                    if np.isfinite(Lc) and Lc <= L_ref - (sigma / a) * ss:
                        z_new, L_new = cand, Lc
                        break
                    a *= 0.5
                if z_new is None:
                    break   # line search stalled; iterate is numerically tight
            G_new, lin = self._al_value_and_grad(z_new, tr, lam_eq, mu, rho,
                                                 z_surface)[1:]
            s = z_new - z
            y = G_new - G
            sy = float(s @ y)
            if sy > 1e-14:
                alpha = min(max(float(s @ (S * s)) / sy, 1e-4), 1e4)
            z, L, G = z_new, L_new, G_new
            trace.append(L)
            hist.append(L)
            if len(hist) > 8:
                hist.pop(0)
            pg = float(np.abs(np.clip(z - D * G, lb, ub) - z).max())
        return z, L, G, pg, used, trace

    # -- outer loop -------------------------------------------------------

    def _try_polish(self, z, x_init, U, lb, ub, z_surface, d, g, dmax):
        """Replace the state nodes by the exact rollout under the current
        controls. Accepted only when the rollout respects the state boxes
        and keeps at least half the barrier tightening margin, so every
        reported certificate still holds on the returned iterate."""
        cfg = self.cfg
        n = cfg.n
        Xp = np.empty((n + 1, 12))
        Xp[0] = x_init
        for k in range(n):
            Xp[k + 1] = euler_step_batch(Xp[k][None], U[k][None], cfg.dt,
                                         self.params, z_surface)[0]
        if not np.all(np.isfinite(Xp)):
            return z, d, g, dmax
        lbX = lb[:self._nx].reshape(n + 1, 12)
        ubX = ub[:self._nx].reshape(n + 1, 12)
        if np.any(Xp < lbX) or np.any(Xp > ubX):
            return z, d, g, dmax
        if self._centers.shape[0]:
            h = self._barriers(Xp)
            gp = h[1:] - (1.0 - self.cbf_cfg.gamma) * h[:n] - self._mrow
            if float(gp.min()) < -cfg.tol_ineq - 0.5 * cfg.cbf_margin:
                return z, d, g, dmax
        else:
            gp = g
        zp = z.copy()
        zp[:self._nx] = Xp.ravel()
        dp = Xp[1:] - euler_step_batch(Xp[:n], U, cfg.dt, self.params,
                                       z_surface)
        return zp, dp, gp, float(np.abs(dp).max())

    def cold_start(self, x_init, plan: ReferencePlan) -> DecisionVector:
        """Initial iterate for a solve without a warm start. Positions track
        the governed reference, detoured out of every obstacle's safety disc
        so the optimizer starts on the correct side of each barrier, with
        finite-difference velocities and hover thrusts."""
        cfg = self.cfg
        n = cfg.n
        x_init = np.asarray(x_init, dtype=float)
        x_ref = self._transcribe(x_init, plan)[0]
        P = x_ref[:, 0:3].copy()
        for j in range(self._centers.shape[0]):
            c = self._centers[j]
            clear = float(np.sqrt(self._rsafe2[j])) + 0.05
            d = P[:, 0:2] - c
            dist = np.linalg.norm(d, axis=1)
            inside = dist < clear
            if not inside.any():
                continue
            # push offending waypoints radially out of the disc; a waypoint
            # sitting exactly at the center detours left of the travel line
            heading = P[-1, 0:2] - x_init[0:2]
            side = np.array([-heading[1], heading[0]])
            norm = np.linalg.norm(side)
            side = side / norm if norm > 1e-9 else np.array([0.0, 1.0])
            dirs = np.where(dist[:, None] > 1e-9,
                            d / np.maximum(dist, 1e-9)[:, None], side)
            P[inside, 0:2] = c + clear * dirs[inside]
        P[0] = x_init[0:3]
        X = np.zeros((n + 1, 12))
        X[:, 0:3] = P
        X[1:, 3:6] = np.clip((P[1:] - P[:-1]) / cfg.dt,
                             cfg.x_min[3:6], cfg.x_max[3:6])
        X[:, 8] = x_ref[:, 8]
        X[0] = x_init
        u0 = np.clip(self.params.hover_thrust(), cfg.u_min, cfg.u_max)
        U = np.full((n, 4), u0)
        return DecisionVector(X, U)

    def solve(self, x_init, plan: ReferencePlan, warm=None,
              z_surface: float = 0.0) -> OcpSolution:
        """Solve one horizon. warm may be a WarmStart bundle, a plain
        DecisionVector, or None for a cold start."""
        cfg = self.cfg
        n = cfg.n
        x_init = np.asarray(x_init, dtype=float)
        if not np.all(np.isfinite(x_init)):
            raise SolverDiverged("measured state is non-finite")
        if plan.n != n:
            raise ValueError("plan horizon does not match configuration")

        n_obs = self._centers.shape[0]
        if n_obs:
            # the stage-0 decay residual is a constant of the measured state
            # (the Euler position one step out ignores the control); relax
            # its floor to whatever is attainable so the stage cannot poison
            # the whole solve when the vehicle is already committed
            p0 = x_init[0:2] - self._centers
            p1 = (x_init[0:2] + cfg.dt * x_init[3:5]) - self._centers
            h0 = np.sum(p0 * p0, axis=1) - self._rsafe2
            h1 = np.sum(p1 * p1, axis=1) - self._rsafe2
            g0 = h1 - (1.0 - self.cbf_cfg.gamma) * h0
            self._mrow[0] = np.minimum(0.0, g0)
        if isinstance(warm, WarmStart):
            dec = warm.decision
            lam_eq = warm.lam_eq.copy()
            mu = warm.mu_ineq.copy()
            # cap the inherited penalty: the multipliers carry the real
            # information, and restarting deep in the penalty regime makes
            # the first subproblems needlessly stiff
            rho = min(warm.rho, 0.01 * cfg.penalty_max)
        elif isinstance(warm, DecisionVector):
            dec = warm
            lam_eq = np.zeros((n, 12))
            mu = np.zeros((n, n_obs))
            rho = cfg.penalty_init
        else:
            dec = self.cold_start(x_init, plan)
            lam_eq = np.zeros((n, 12))
            mu = np.zeros((n, n_obs))
            rho = cfg.penalty_init

        lb = self._lb_template.copy()
        ub = self._ub_template.copy()
        lb[0:12] = x_init       # pin the first node exactly
        ub[0:12] = x_init
        # stage-1 position and attitude are kinematically forced by the
        # measured state (no control enters those rows in one Euler step);
        # if a forced value falls outside its box, admit it exactly instead
        # of leaving the stage infeasible -- the plant can overshoot the
        # planning envelope and the solver must still steer back from there
        dx0 = derivative_batch(x_init[None], np.zeros((1, 4)), self.params,
                               z_surface)[0]
        kin = np.array([0, 1, 2, 6, 7, 8])
        forced = x_init[kin] + cfg.dt * dx0[kin]
        lb[12 + kin] = np.minimum(lb[12 + kin], forced)
        ub[12 + kin] = np.maximum(ub[12 + kin], forced)
        z = np.clip(dec.flatten(), lb, ub)
        tr = self._transcribe(x_init, plan)

        # with carried multipliers the iterate is already near-optimal, so
        # open at the certifying tolerance instead of the crude cold schedule
        if isinstance(warm, WarmStart):
            tol_inner = cfg.tol_stat
        else:
            tol_inner = max(cfg.tol_stat, 1e-2)
        viol_last = np.inf
        total_inner = 0
        outer = 0
        converged = False
        pg = np.inf
        stall = 0
        self.last_inner_traces = []
        for outer in range(1, cfg.max_outer + 1):
            room = cfg.max_inner_total - total_inner
            if room <= 0:
                break   # real-time budget exhausted; fly the best iterate
            z, L, G, pg, used, trace = self._inner(
                z, lb, ub, tr, lam_eq, mu, rho, z_surface, tol_inner,
                min(cfg.max_inner, room), plan.track_active)
            total_inner += used
            self.last_inner_traces.append(trace)
            X, U = self._views(z)
            d, g = self._constraints(X, U, z_surface)
            dmax = float(np.abs(d).max()) if d.size else 0.0
            # multipliers update at the subproblem solution, where the
            # first-order theory places them; the polish below only swaps
            # the iterate for an exactly-feasible equivalent and must not
            # feed its spent-margin residuals back into mu. An unsolved
            # subproblem (budget ran out far from stationarity) gets no
            # update: rho times the residuals of a garbage iterate would
            # poison the multipliers for every later outer
            if pg <= max(10.0 * tol_inner, cfg.tol_stat):
                lam_eq = lam_eq - rho * d
                if g.size:
                    mu = np.maximum(0.0, mu - rho * g)
            if dmax > cfg.tol_feas and dmax <= cfg.polish_gate \
                    and pg <= cfg.tol_stat:
                # the controls are settled; close the remaining dynamics gap
                # exactly by re-rolling the states, if that stays feasible
                z, d, g, dmax = self._try_polish(z, x_init, U, lb, ub,
                                                 z_surface, d, g, dmax)
                X, U = self._views(z)
            viol = dmax
            if g.size:
                viol = max(viol, float(np.maximum(0.0, -g).max()))
            feas_ok = dmax <= cfg.tol_feas
            # the polished iterate may spend up to half the tightening
            # margin; the raw decay residual stays strictly positive
            gtol = cfg.tol_ineq + 0.5 * cfg.cbf_margin
            ineq_ok = (float(g.min()) >= -gtol) if g.size else True
            if feas_ok and ineq_ok and pg <= cfg.tol_stat:
                converged = True
                break
            # a solved subproblem that leaves the violation untouched for
            # several outers means the constraints are unattainable from this
            # state; stop burning budget and return the compromise honestly.
            # Once the penalty sits at its cap the same logic applies even
            # without an inner certificate: growth can no longer react, so
            # a violation that repeats across outers is not going to move
            if (pg <= cfg.tol_stat or rho >= cfg.penalty_max) \
                    and viol > 0.9 * viol_last \
                    and viol > 20.0 * cfg.tol_feas:
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
            # raise the penalty only on stagnation while clearly infeasible;
            # near the feasibility target the multiplier updates finish the job
            if viol > 0.5 * viol_last and viol > 20.0 * cfg.tol_feas:
                rho = min(rho * cfg.penalty_growth, cfg.penalty_max)
            viol_last = viol
            # tighten the subproblem tolerance geometrically, and faster if
            # the constraint violation is already smaller than the schedule
            tol_inner = min(max(cfg.tol_stat * 0.5, 0.25 * viol),
                            max(cfg.tol_stat * 0.5, tol_inner * 0.5))

        decision = DecisionVector.from_flat(z, n)
        bundle = constraint_eval(decision, x_init, cfg, self.cbf_cfg,
                                 self.params, z_surface)
        X, U = self._views(z)
        u_apply = np.clip(decision.controls[0].copy(), cfg.u_min, cfg.u_max)
        return OcpSolution(
            decision=decision,
            u_apply=u_apply,
            cost=self._cost_terms(X, U, tr),
            kkt_residual=float(pg),
            defect_norm=bundle.defect_norm,
            min_cbf_residual=bundle.min_cbf_residual,
            iterations=outer,
            inner_iterations=total_inner,
            converged=converged,
            warm=WarmStart(decision.copy(), lam_eq.copy(), mu.copy(), rho),
        )


# -- gradient verification -------------------------------------------------


@dataclass
class GradientCheckReport:
    """Worst relative error between analytic and central-difference
    gradients of the augmented objective over sampled points."""

    max_rel_err: float
    worst_point: int
    worst_index: int
    n_points: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _random_decision(solver: NmpcSolver, rng) -> np.ndarray:
    """A random flat iterate inside the box bounds, kept away from the
    ground-effect clamp kink so central differences stay valid."""
    cfg = solver.cfg
    n = cfg.n
    X = np.empty((n + 1, 12))
    X[:, 0:2] = rng.uniform(-3.0, 3.0, (n + 1, 2))
    X[:, 2] = rng.uniform(0.15, 3.0, n + 1)
    X[:, 3:6] = rng.uniform(-2.8, 2.8, (n + 1, 3))
    X[:, 6:8] = rng.uniform(-0.55, 0.55, (n + 1, 2))
    X[:, 8] = rng.uniform(-np.pi, np.pi, n + 1)
    X[:, 9:12] = rng.uniform(-2.0, 2.0, (n + 1, 3))
    U = rng.uniform(cfg.u_min, cfg.u_max, (n, 4))
    return np.concatenate([X.ravel(), U.ravel()])


def gradient_check(solver: NmpcSolver, plan: ReferencePlan, n_points: int = 20,
                   step: float = 1e-6, tol: float = 1e-5, seed: int = 0,
                   z_surface: float = 0.0,
                   corruption: float = 0.0) -> GradientCheckReport:
    """Compare the analytic augmented-objective gradient against central
    differences at random interior points with random multipliers.

    corruption inflates the largest analytic gradient entry by that
    fraction; nonzero values exist to prove the check can fail.
    """
    rng = np.random.default_rng(seed)
    n = solver.cfg.n
    n_obs = solver._centers.shape[0]
    anchors = None
    if plan.track_active:
        k = np.arange(n)[:, None]
        anchors = plan.p_platform + k * solver.cfg.dt * plan.v_platform
    tr = (plan.x_ref, plan.x_terminal, anchors)
    worst = 0.0
    worst_point = -1
    worst_index = -1
    for p in range(n_points):
        z = _random_decision(solver, rng)
        lam_eq = rng.normal(0.0, 1.0, (n, 12))
        mu = np.abs(rng.normal(0.0, 1.0, (n, n_obs)))
        rho = 10.0
        G = solver._al_value_and_grad(z, tr, lam_eq, mu, rho, z_surface)[1]
        if corruption:
            j = int(np.abs(G).argmax())
            G = G.copy()
            G[j] *= 1.0 + corruption
        G_fd = np.empty_like(G)
        for j in range(z.size):
            zp = z.copy()
            zp[j] += step
            zm = z.copy()
            zm[j] -= step
            G_fd[j] = (solver._al_value(zp, tr, lam_eq, mu, rho, z_surface)
                       - solver._al_value(zm, tr, lam_eq, mu, rho, z_surface)
                       ) / (2.0 * step)
        denom = max(1.0, float(np.abs(G_fd).max()))
        err = np.abs(G - G_fd) / denom
        j = int(err.argmax())
        if err[j] > worst:
            worst = float(err[j])
            worst_point = p
            worst_index = j
    return GradientCheckReport(max_rel_err=worst, worst_point=worst_point,
                               worst_index=worst_index, n_points=n_points,
                               tol=tol)


def cost_gradient(decision: DecisionVector, plan: ReferencePlan,
                  cfg: NmpcConfig) -> np.ndarray:
    """Gradient of the pure cost (no constraints); exact for the quadratic
    objective, used as the machine-precision baseline of the check."""
    X, U = decision.states, decision.controls
    n = decision.n
    GX = np.zeros((n + 1, 12))
    GU = np.zeros((n, 4))
    GX[:n] = 2.0 * cfg.q * (X[:n] - plan.x_ref[:n])
    GU[:] = 2.0 * cfg.r * U
    if plan.track_active:
        k = np.arange(n)[:, None]
        anchors = plan.p_platform + k * cfg.dt * plan.v_platform
        GX[:n, 0:3] += 2.0 * cfg.lam * (X[:n, 0:3] - anchors)
    GX[n] = 2.0 * cfg.q_terminal * (X[n] - plan.x_terminal)
    return np.concatenate([GX.ravel(), GU.ravel()])
