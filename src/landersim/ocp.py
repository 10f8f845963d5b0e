"""Multiple-shooting transcription of the landing problem and a
self-contained constrained solver.

Decision variables are the shooting-node states X[0..N] and stage controls
U[0..N-1], flattened into one vector. Dynamics enter as equality defects

    d_k = X[k+1] - euler_step(X[k], U[k], dt) = 0

and obstacle avoidance as barrier decay inequalities per stage and obstacle.
The solver is an augmented-Lagrangian outer loop (shifted quadratic penalty
for the inequalities) around a projected Newton inner loop with a spectral
projected-gradient fallback on the box constraints. The Newton matrix is
Gauss-Newton plus the positive part of the one second-order term that
matters near touchdown: the ground-effect curvature of the thrust in the
node heights. X[0] is pinned to the measured state through the box bounds,
so the pin is exact at every iterate.

The problem is evaluated once per iterate, by NmpcSolver._evaluate: cost,
defects, decay residuals and augmented objective, plus the gradient and
dynamics Jacobians on a gradient pass. The line search's evaluation of the
accepted point feeds its gradient pass, the metric, the multiplier update,
the polish check and the reported certificate. The tests check that
certificate against an independent evaluation of the constraints
(tests/oracles.py).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# the solver does not call barrier_value, but perfbench/tracing.py times
# the barrier layer through this module's name for it
from landersim.cbf import CbfConfig, barrier_value
from landersim.dynamics import (
    QuadrotorParams,
    derivative_and_jacobians_batch,
    derivative_batch,
    euler_step_batch,
)


def _load_flapack():
    """scipy's LAPACK wrapper extension, loaded from its file under its own
    name. Importing it through scipy.linalg would run that package's
    __init__, which pulls in about 300 modules the solver never uses
    (numpy.testing, numpy.f2py, unittest, ...). A later `import
    scipy.linalg` finds this module in sys.modules and reuses it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    # find_spec imports the top-level scipy package only
    (where,) = importlib.util.find_spec("scipy.linalg") \
        .submodule_search_locations
    path = f"{where}/_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)  # ImportError names path
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# LAPACK's band Cholesky factorization and solve, the two halves of the
# dpbsv that scipy.linalg.solveh_banded wraps
cho_factor = _load_flapack().dpbtrf
cho_solve = _load_flapack().dpbtrs


class SolverDiverged(RuntimeError):
    """The objective or gradient became non-finite; the iterate is unusable."""


def _default_q():
    return np.array([10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 0.5, 0.5, 0.5])


# state box: height at or above the ground plane, a 3 m/s per-axis velocity
# limit and a 0.6 rad roll/pitch envelope; position, yaw and rates are free
_X_MIN = np.array([-np.inf, -np.inf, 0.0] + [-3.0] * 3 + [-0.6] * 2
                  + [-np.inf] * 4)
_X_MAX = np.array([np.inf] * 3 + [3.0] * 3 + [0.6] * 2 + [np.inf] * 4)
# augmented-Lagrangian penalty: initial weight, growth factor on stagnation,
# and cap
_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 5.0
_PENALTY_MAX = 1e6
# feasibility a converged solve certifies: the largest defect, and how far
# a tightened decay residual may sit below zero
_TOL_FEAS = 5e-5
_TOL_INEQ = 1e-6
# stationarity (projected-gradient norm) a converged solve certifies
_TOL_STAT = 5e-4
# outer (multiplier) iterations and inner iterations per subproblem. Both
# guard callers with a large max_inner_total only: no reference solve takes
# more than 11 outer iterations, and a subproblem there gets at most the
# 60-70 iterations left in its cycle's budget
_MAX_OUTER = 20
_MAX_INNER = 100
# sufficient-decrease factor of both line searches
_ARMIJO_SIGMA = 1e-4
# tightening of the barrier-decay constraint inside the solver, so the
# continuous-time plant, which cuts corners relative to the Euler
# prediction, still clears the nominal boundary
_CBF_MARGIN = 0.05
# largest defect the rollout polish may close
_POLISH_GATE = 2e-3
# the components of stage 1 that no control enters in one Euler step
_KIN = np.array([0, 1, 2, 6, 7, 8])
# reference and anchor positions are clipped to the cone reachable at this
# speed from the measured state before transcription. Far-away setpoints
# otherwise make the penalty subproblems badly conditioned (nodes chase the
# reference across the dynamics constraint); the governed problem has the
# same fixed points once the target is within reach
_REF_GOVERNOR_SPEED = 2.0


@dataclass
class NmpcConfig:
    """Horizon, weights, control bounds, and the real-time budget.

    The diagonal weight vectors q, r, q_terminal multiply squared errors
    elementwise. lam weighs the squared distance of predicted position to
    the platform anchors of a plan that carries them.

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
    max_inner_total: int = 400

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.q_terminal = np.asarray(self.q_terminal, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.n < 1:
            raise ValueError("horizon must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_inner_total < 1:
            raise ValueError("iteration budgets must be at least 1")
        for w in (self.q, self.r, self.q_terminal, self.lam):
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
        if self.u_min > self.u_max:
            raise ValueError("bounds must be ordered")


@dataclass
class ReferencePlan:
    """Per-stage reference states plus the platform anchors.

    x_ref has N+1 rows; row k is the desired state at stage k. anchors,
    (N, 3), are the per-stage points the positional pull term draws the
    predicted position to, or None while tracking is off.
    """

    x_ref: np.ndarray
    x_terminal: np.ndarray
    anchors: np.ndarray | None = None

    def __post_init__(self):
        self.x_ref = np.asarray(self.x_ref, dtype=float)
        self.x_terminal = np.asarray(self.x_terminal, dtype=float)
        if self.x_ref.ndim != 2 or self.x_ref.shape[1] != 12:
            raise ValueError("x_ref must be (N+1, 12)")
        if self.anchors is not None:
            self.anchors = np.asarray(self.anchors, dtype=float)
            if self.anchors.shape != (self.n, 3):
                raise ValueError("anchors must be (N, 3)")

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
class WarmStart:
    """Everything carried between consecutive solves: the decision vector
    plus the constraint multipliers and the penalty weight reached."""

    decision: DecisionVector
    lam_eq: np.ndarray
    mu_ineq: np.ndarray
    rho: float

    def shifted(self) -> "WarmStart":
        """Receding-horizon shift: drop stage 0, duplicate the tail."""
        def shift(a):
            return np.concatenate((a[1:], a[-1:]))
        prev = self.decision
        return WarmStart(DecisionVector(shift(prev.states),
                                        shift(prev.controls)),
                         shift(self.lam_eq), shift(self.mu_ineq), self.rho)


@dataclass
class OcpSolution:
    """Solve outcome. converged guarantees defect_norm <= 1e-4,
    min_cbf_residual >= -1e-5, and exact box bounds on the iterate. stop
    names the exit: converged, budget, stall or outer_limit."""

    decision: DecisionVector
    u_apply: np.ndarray
    cost: float
    kkt_residual: float
    defect_norm: float
    min_cbf_residual: float
    iterations: int
    inner_iterations: int
    warm: WarmStart
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


class _Transcription(NamedTuple):
    """Per-solve problem data: governed stage references (N+1, 12), the
    terminal reference, per-stage anchors (N, 3) or None, and the floor
    subtracted from each decay residual (N, n_obs)."""

    x_ref: np.ndarray
    x_terminal: np.ndarray
    anchors: np.ndarray | None
    floor: np.ndarray


def _cost(X, U, tr, cfg: NmpcConfig, grad=False, value=True):
    """Tracking cost of states X (N+1, 12) and controls U (N, 4) against
    the references and anchors of tr, a _Transcription or, ungoverned, a
    ReferencePlan: weighted squared stage errors, the platform pull
    lam .* (pos - anchor)^2 where anchors are set, and the terminal error.
    With grad, returns (cost, gradient over the flat decision vector), the
    cost None and not computed when value is False."""
    n = U.shape[0]
    err = X[:n] - tr.x_ref[:n]
    dp = None if tr.anchors is None else X[:n, 0:3] - tr.anchors
    eN = X[n] - tr.x_terminal
    c = None
    if value:
        c = (err * err * cfg.q).sum() + (U * U * cfg.r).sum()
        if dp is not None:
            c += (dp * dp * cfg.lam).sum()
        c = float(c + eN @ (cfg.q_terminal * eN))
    if not grad:
        return c
    G = np.zeros(X.size + U.size)
    GX = G[:X.size].reshape(X.shape)
    GU = G[X.size:].reshape(U.shape)
    GX[:n] += 2.0 * cfg.q * err
    GU += 2.0 * cfg.r * U
    if dp is not None:
        GX[:n, 0:3] += 2.0 * cfg.lam * dp
    GX[n] += 2.0 * cfg.q_terminal * eN
    return c, G


class _Eval(NamedTuple):
    """The problem at one iterate: augmented objective L, tracking cost,
    dynamics defects d (N, 12), raw decay residuals r and tightened ones
    g = r - floor (N, n_obs), and, with obstacles, the node-to-obstacle
    position differences diff (N+1, n_obs, 2) and barrier penalty weights
    w (N, n_obs). A gradient pass adds the gradient G, the dynamics
    Jacobians Jx, Ju and the clipped ground-effect curvature hz (N,) of
    each node's height, which the Newton step reuses."""

    L: float
    cost: float
    d: np.ndarray
    r: np.ndarray
    g: np.ndarray
    diff: np.ndarray | None
    w: np.ndarray | None
    G: np.ndarray | None = None
    Jx: np.ndarray | None = None
    Ju: np.ndarray | None = None
    hz: np.ndarray | None = None


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
        lb[:self._nx] = np.tile(_X_MIN, n + 1)
        ub[:self._nx] = np.tile(_X_MAX, n + 1)
        lb[self._nx:] = cfg.u_min
        ub[self._nx:] = cfg.u_max
        self._lb_template = lb
        self._ub_template = ub
        self._centers = np.array([ob.center for ob in cbf_cfg.obstacles]) \
            if cbf_cfg.obstacles else np.zeros((0, 2))
        self._rsafe2 = np.array([ob.r_safe ** 2 for ob in cbf_cfg.obstacles])
        # governor reach per stage reference, terminal reference and anchor
        caps = _REF_GOVERNOR_SPEED * cfg.dt * np.arange(n + 1)
        self._caps = np.concatenate([caps, caps[n:], caps[:n]])
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
        # relaxes a copy further if even the raw stage-0 decay is
        # unattainable; this array is not written after construction.
        self._mrow = np.full((n, max(self._centers.shape[0], 1)), _CBF_MARGIN)
        self._mrow[0] = 0.0

    # -- problem evaluation over the flat vector -------------------------

    def _views(self, z):
        n = self.cfg.n
        X = z[:self._nx].reshape(n + 1, 12)
        U = z[self._nx:].reshape(n, 4)
        return X, U

    def _transcribe(self, x_init, plan: ReferencePlan,
                    floor=None) -> _Transcription:
        """Problem data for one solve. Reference and anchor positions are
        pulled into the cone reachable at _REF_GOVERNOR_SPEED. floor
        defaults to the static per-stage tightening."""
        n = self.cfg.n
        p0 = np.asarray(x_init, dtype=float)[0:3]
        pts = [plan.x_ref[:, 0:3], plan.x_terminal[None, 0:3]]
        if plan.anchors is not None:
            pts.append(plan.anchors)
        dp = np.concatenate(pts) - p0
        cap = self._caps[:dp.shape[0]]
        dist = np.sqrt((dp * dp).sum(-1))
        scale = np.where(dist > cap, cap / np.maximum(dist, 1e-12), 1.0)
        pts = p0 + dp * scale[:, None]
        x_ref = plan.x_ref.copy()
        x_ref[:, 0:3] = pts[:n + 1]
        x_term = plan.x_terminal.copy()
        x_term[0:3] = pts[n + 1]
        anchors = None if plan.anchors is None else pts[n + 2:]
        return _Transcription(x_ref, x_term, anchors,
                              self._mrow if floor is None else floor)

    def _decay(self, X):
        """Raw decay residuals h_k+1 - (1 - gamma) h_k of the nodes X,
        shape (rows - 1, n_obs), and the node-to-obstacle position
        differences, shape (rows, n_obs, 2); h = |diff|^2 - r_safe^2."""
        diff = X[:, None, 0:2] - self._centers[None, :, :]
        h = (diff * diff).sum(2) - self._rsafe2
        return h[1:] - (1.0 - self.cbf_cfg.gamma) * h[:-1], diff

    def _evaluate(self, z, tr, lam_eq, mu, rho, z_surface, grad=False,
                  at=None) -> _Eval:
        """The problem at iterate z under multipliers lam_eq, mu and
        penalty rho. grad adds the gradient. at, the value pass at the same
        z, hands a gradient pass its objective and residuals, which are
        then not recomputed."""
        cfg = self.cfg
        n = cfg.n
        X, U = self._views(z)
        if grad:
            cost, G = _cost(X, U, tr, cfg, grad=True, value=at is None)
            f, Jx, Ju, Czz = derivative_and_jacobians_batch(
                X[:n], U, self.params, z_surface)
            # the value pass's grouping X[1:] - (X[:n] + dt f) differs from
            # this one in the last bits; the solver's iterates depend on each
            # pass keeping its own, so the two are not unified
            d = X[1:] - X[:n] - cfg.dt * f
        else:
            cost = _cost(X, U, tr, cfg)
            d = X[1:] - euler_step_batch(X[:n], U, cfg.dt, self.params,
                                         z_surface)
        ev = at
        if ev is None:
            L = cost + (-(lam_eq * d).sum() + 0.5 * rho * (d * d).sum())
            r = g = np.zeros((n, 0))
            diff = w = None
            if self._centers.shape[0]:
                r, diff = self._decay(X)
                g = r - tr.floor
                w = np.maximum(0.0, mu - rho * g)
                L += (w * w - mu * mu).sum() / (2.0 * rho)
            ev = _Eval(float(L), cost, d, r, g, diff, w)
        if not grad:
            return ev
        GX = G[:self._nx].reshape(n + 1, 12)
        GU = G[self._nx:].reshape(n, 4)
        v = rho * d - lam_eq
        GX[1:] += v
        # v . d2(defect)/dz_k^2, clipped at zero: the ground-effect
        # curvature the Newton matrix keeps
        hz = np.maximum(0.0, -cfg.dt * np.einsum("ij,ij->i", v[:, 3:6], Czz))
        # A = I + dt J_x, B = dt J_u; defect depends on X[k], U[k] via -A, -B
        vc = v[:, :, None]
        GX[:n] -= v + cfg.dt * np.matmul(Jx.transpose(0, 2, 1), vc)[:, :, 0]
        GU -= cfg.dt * np.matmul(Ju.transpose(0, 2, 1), vc)[:, :, 0]
        if ev.diff is not None:
            # dg/dX[k+1] = grad h(X[k+1]), dg/dX[k] = -(1-gamma) grad h(X[k])
            wd = ev.w[:, :, None]
            GX[1:, 0:2] -= 2.0 * (wd * ev.diff[1:]).sum(1)
            GX[:n, 0:2] += 2.0 * (1.0 - self.cbf_cfg.gamma) * (
                wd * ev.diff[:n]).sum(1)
        return _Eval(*ev[:7], G, Jx, Ju, hz)

    # -- inner loop: projected Newton with spectral fallback ---------------

    def _gn_step(self, z, ev, lb, ub, rho, tr):
        """Projected Newton direction at the gradient pass ev: zero on
        the coordinates fixed at a bound the gradient pushes against, the
        solution of the normal equations on the rest; None if the
        factorization fails.

        Stage k contributes rho MᵀM over (x_k, u_k, x_k+1), where M stacks
        the defect Jacobian [I + dt Jx, dt Ju, -I] over one gradient row
        per active barrier on (x_k[0:2], x_k+1[0:2]): the Gauss-Newton
        part of the defect and inequality penalties. x_k's height diagonal
        also gets ev.hz, the defect penalty's second-order term through the
        ground-effect curvature, v . d2(d_k)/dz_k^2 with v = rho d - lam,
        clipped at zero (Messerer, Baumgaertner & Diehl 2021). With the cost
        diagonal the matrix stays positive definite. The blocks are summed
        into band storage and factored by band Cholesky, so the cost is
        linear in the horizon.

        A coordinate the step carries past its bound is pinned at that
        bound and the rest solved again, the pinned displacement moved to
        the right-hand side, until nothing crosses (projected Newton,
        Bertsekas 1982); z + step stays in the box."""
        cfg = self.cfg
        n = cfg.n
        G = ev.G
        fixed = (ub - lb <= 0.0) \
            | ((z - lb <= 1e-9) & (G > 0.0)) \
            | ((ub - z <= 1e-9) & (G < 0.0))
        free = ~fixed[self._perm]
        fb = free[self._blk]
        M = self._m0.copy()
        M[:, :12, :12] += cfg.dt * ev.Jx
        M[:, :12, 12:16] = cfg.dt * ev.Ju
        if ev.diff is not None:
            act = (ev.w > 0.0)[:, :, None]
            M[:, 12:, 0:2] = -2.0 * (1.0 - self.cbf_cfg.gamma) * act * ev.diff[:n]
            M[:, 12:, 16:18] = 2.0 * act * ev.diff[1:]
        M *= fb[:, None, :]     # fixed coordinates drop out of every block
        H = rho * (M.transpose(0, 2, 1) @ M)
        Hb = H.reshape(n, -1)
        Hb[:, ::29] += self._cdiag[int(tr.anchors is not None)] * fb
        Hb[:, 58] += ev.hz * fb[:, 2]   # x_k's height on the diagonal
        ab = np.bincount(self._band_at, weights=Hb[:, self._tri].ravel(),
                         minlength=28 * self._nz).reshape(28, self._nz)
        ab[0, ~free] = 1.0
        rhs = np.where(free, -G[self._perm], 0.0)
        zp, lo, hi = z[self._perm], lb[self._perm], ub[self._perm]
        while True:     # each round pins one more coordinate at least
            # LAPACK's band Cholesky factor and solve, without the checks
            # of scipy's solveh_banded; dpbtrf factors a copy, so ab is kept
            # for the next round
            c, info = cho_factor(ab, lower=1)
            if info == 0:
                step, info = cho_solve(c, rhs, lower=1)
            if info != 0 or not np.isfinite(step).all():
                return None
            to = zp + step
            cross = (to > hi) | (to < lo)
            if not cross.any():
                return step[self._iperm]
            pin = np.where(to > hi, hi, lo) - zp
            # z + (b - z) can round past b; one ulp toward z keeps it inside
            out = (zp + pin > hi) | (zp + pin < lo)
            pin = np.where(cross, np.where(out, np.nextafter(pin, 0.0), pin), 0.0)
            free &= ~cross
            rhs -= free * np.bincount(self._blk.ravel(), minlength=self._nz,
                                      weights=(H @ pin[self._blk, None]).ravel())
            rhs[cross] = pin[cross]
            # a pinned row and column of the band become the identity's
            i = np.flatnonzero(cross)
            d, at = np.nonzero(i >= np.arange(28)[:, None])
            ab[d, i[at] - d] = 0.0
            ab[:, i] = 0.0
            ab[0, i] = 1.0

    def _newton_step(self, z, ev, lb, ub, tr, lam_eq, mu, rho, z_surface,
                     a0=1.0):
        """One projected Newton iteration: backtrack along the
        _gn_step step, which stays in the box, from step size a0, with
        Armijo's test on its slope Gᵀstep. Returns the accepted point, its
        evaluation and step size, or None when the step is no descent
        direction or the line search fails, which hands control back to
        the spectral fallback."""
        step = self._gn_step(z, ev, lb, ub, rho, tr)
        slope = 0.0 if step is None else float(ev.G @ step)
        if not slope < 0.0:
            return None
        a = a0
        for _ in range(25):
            cand = z + a * step
            c = self._evaluate(cand, tr, lam_eq, mu, rho, z_surface)
            if math.isfinite(c.L) and c.L <= ev.L + _ARMIJO_SIGMA * a * slope:
                return cand, c, a
            a *= 0.5
        return None

    def _metric(self, ev, rho, tr):
        """Diagonal curvature estimate of the augmented objective at the
        evaluation ev; steps are taken in this metric to tame the wide
        weight/penalty spread. The barrier-penalty curvature is added where
        the constraint is active."""
        cfg = self.cfg
        n = cfg.n
        sx = 2.0 * cfg.q + 2.0 * rho
        if tr.anchors is not None:
            sx = sx.copy()
            sx[0:3] += 2.0 * cfg.lam
        S = np.empty(self._nz)
        SX = S[:self._nx].reshape(n + 1, 12)
        SX[:] = sx
        SX[n] = 2.0 * cfg.q_terminal + rho
        S[self._nx:].reshape(n, 4)[:] = 2.0 * cfg.r + rho * self._ucol2
        if ev.diff is not None:
            act = (ev.w > 0.0).astype(float)
            diff2 = ev.diff ** 2
            omg2 = (1.0 - self.cbf_cfg.gamma) ** 2
            SX[1:, 0:2] += 4.0 * rho * (act[:, :, None] * diff2[1:]).sum(1)
            SX[:n, 0:2] += 4.0 * rho * omg2 * (
                act[:, :, None] * diff2[:n]).sum(1)
        return S

    def _inner(self, z, lb, ub, tr, lam_eq, mu, rho, z_surface, tol, budget):
        """Minimize the augmented objective over the box from z. Returns
        the last iterate and its value-pass evaluation, the
        projected-gradient residual and the iterations used."""
        prob = (tr, lam_eq, mu, rho, z_surface)
        ev = entry = self._evaluate(z, *prob, grad=True)
        if not math.isfinite(ev.L) or not np.isfinite(ev.G).all():
            raise SolverDiverged("non-finite objective at inner-loop entry")
        S = self._metric(ev, rho, tr)
        D = 1.0 / S
        alpha = 1.0
        na = 1.0
        used = 0
        # nonmonotone reference: accept against the worst of the last few
        # values so full spectral steps survive more often
        hist = [ev.L]
        newton = True
        # fixed-point residual of the scaled projected-gradient map: how far
        # a unit step in the metric would move the iterate
        pg = float(np.abs(np.minimum(np.maximum(z - D * ev.G, lb), ub)
                          - z).max())
        for _ in range(budget):
            if pg <= tol:
                break
            used += 1
            L_ref = max(hist)
            z_new = new = None
            if newton:
                # monotone acceptance here: letting a Newton step ride the
                # nonmonotone window sustains two-cycles across the barrier
                # activation kink instead of damping them out
                hit = self._newton_step(z, ev, lb, ub, *prob, na)
                if hit is None:
                    newton = False      # direction went bad; spectral from here
                else:
                    z_new, new, a_acc = hit
                    na = min(1.0, 2.0 * a_acc)
                    if a_acc < 1e-6:
                        # a microscopic accepted step means the quadratic
                        # model is worthless here (e.g. across the barrier
                        # activation kink); keep the point but stop asking
                        # Newton
                        newton = False
            if z_new is None:
                a = alpha
                dirn = D * ev.G
                for _ in range(60):
                    cand = np.minimum(np.maximum(z - a * dirn, lb), ub)
                    dz = cand - z
                    ss = float(dz @ (S * dz))
                    if ss == 0.0:
                        break
                    c = self._evaluate(cand, *prob)
                    if math.isfinite(c.L) \
                            and c.L <= L_ref - (_ARMIJO_SIGMA / a) * ss:
                        z_new, new = cand, c
                        break
                    a *= 0.5
                if z_new is None:
                    break   # line search stalled; iterate is numerically tight
            new = self._evaluate(z_new, *prob, grad=True, at=new)
            s = z_new - z
            y = new.G - ev.G
            sy = float(s @ y)
            if sy > 1e-14:
                alpha = min(max(float(s @ (S * s)) / sy, 1e-4), 1e4)
            z, ev = z_new, new
            hist.append(ev.L)
            if len(hist) > 8:
                hist.pop(0)
            pg = float(np.abs(np.minimum(np.maximum(z - D * ev.G, lb), ub)
                              - z).max())
        if ev is entry:
            # no step was taken: the entry pass formed its defects the
            # gradient way, the multiplier update and certificate need the
            # value pass's
            ev = self._evaluate(z, *prob)
        return z, ev, pg, used

    # -- outer loop -------------------------------------------------------

    def _try_polish(self, z, ev, lb, ub, tr, lam_eq, mu, rho, z_surface):
        """Replace the state nodes by the exact rollout under the current
        controls. Accepted only when the rollout respects the state boxes
        and keeps at least half the barrier tightening margin, so every
        reported certificate still holds on the returned iterate. Returns
        the iterate kept and its evaluation; X[0] is already pinned."""
        cfg = self.cfg
        n = cfg.n
        U = self._views(z)[1]
        zp = z.copy()
        Xp = zp[:self._nx].reshape(n + 1, 12)
        for k in range(n):
            Xp[k + 1] = euler_step_batch(Xp[k], U[k], cfg.dt, self.params,
                                         z_surface)
        if not np.isfinite(zp).all() or (zp < lb).any() or (zp > ub).any():
            return z, ev
        evp = self._evaluate(zp, tr, lam_eq, mu, rho, z_surface)
        if evp.g.size and float(evp.g.min()) < -_TOL_INEQ - 0.5 * _CBF_MARGIN:
            return z, ev
        return zp, evp

    def cold_start(self, x_init, plan: ReferencePlan) -> DecisionVector:
        """Initial iterate for a solve without a warm start. Positions track
        the governed reference, detoured out of every obstacle's safety disc
        so the optimizer starts on the correct side of each barrier, with
        finite-difference velocities and hover thrusts."""
        cfg = self.cfg
        n = cfg.n
        x_init = np.asarray(x_init, dtype=float)
        x_ref = self._transcribe(x_init, plan).x_ref
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
                             _X_MIN[3:6], _X_MAX[3:6])
        X[:, 8] = x_ref[:, 8]
        X[0] = x_init
        u0 = np.clip(self.params.hover_thrust(), cfg.u_min, cfg.u_max)
        U = np.full((n, 4), u0)
        return DecisionVector(X, U)

    def solve(self, x_init, plan: ReferencePlan, warm=None,
              z_surface: float = 0.0) -> OcpSolution:
        """Solve one horizon. warm is a WarmStart bundle, or None for a
        cold start."""
        cfg = self.cfg
        n = cfg.n
        x_init = np.asarray(x_init, dtype=float)
        if not np.isfinite(x_init).all():
            raise SolverDiverged("measured state is non-finite")
        if plan.n != n:
            raise ValueError("plan horizon does not match configuration")

        n_obs = self._centers.shape[0]
        floor = self._mrow
        if n_obs:
            # the stage-0 decay residual is a constant of the measured state
            # (the Euler position one step out ignores the control); relax
            # its floor to whatever is attainable so the stage cannot poison
            # the whole solve when the vehicle is already committed
            P = np.array([x_init[0:2], x_init[0:2] + cfg.dt * x_init[3:5]])
            floor = floor.copy()
            floor[0] = np.minimum(0.0, self._decay(P)[0][0])
        lam_eq = np.zeros((n, 12))
        mu = np.zeros((n, n_obs))
        rho = _PENALTY_INIT
        if warm is not None:
            dec = warm.decision
            lam_eq = warm.lam_eq.copy()
            mu = warm.mu_ineq.copy()
            # cap the inherited penalty: the multipliers carry the real
            # information, and restarting deep in the penalty regime makes
            # the first subproblems needlessly stiff
            rho = min(warm.rho, 0.01 * _PENALTY_MAX)
        else:
            dec = self.cold_start(x_init, plan)

        lb = self._lb_template.copy()
        ub = self._ub_template.copy()
        lb[0:12] = x_init       # pin the first node exactly
        ub[0:12] = x_init
        # stage-1 position and attitude are kinematically forced by the
        # measured state (no control enters those rows in one Euler step);
        # if a forced value falls outside its box, admit it exactly instead
        # of leaving the stage infeasible -- the plant can overshoot the
        # planning envelope and the solver must still steer back from there
        dx0 = derivative_batch(x_init, np.zeros(4), self.params, z_surface)
        forced = x_init[_KIN] + cfg.dt * dx0[_KIN]
        lb[12 + _KIN] = np.minimum(lb[12 + _KIN], forced)
        ub[12 + _KIN] = np.maximum(ub[12 + _KIN], forced)
        z = np.minimum(np.maximum(dec.flatten(), lb), ub)
        tr = self._transcribe(x_init, plan, floor)

        # with carried multipliers the iterate is already near-optimal, so
        # open at the certifying tolerance instead of the crude cold schedule
        if warm is not None:
            tol_inner = _TOL_STAT
        else:
            tol_inner = max(_TOL_STAT, 1e-2)
        viol_last = np.inf
        total_inner = 0
        stop = "outer_limit"
        stall = 0
        for outer in range(1, _MAX_OUTER + 1):
            room = cfg.max_inner_total - total_inner
            if room <= 0:
                stop = "budget"     # real-time budget spent; fly the best iterate
                break
            z, ev, pg, used = self._inner(
                z, lb, ub, tr, lam_eq, mu, rho, z_surface, tol_inner,
                min(_MAX_INNER, room))
            total_inner += used
            # multipliers update at the subproblem solution, where the
            # first-order theory places them; the polish below only swaps
            # the iterate for an exactly-feasible equivalent and must not
            # feed its spent-margin residuals back into mu. An unsolved
            # subproblem (budget ran out far from stationarity) gets no
            # update: rho times the residuals of a garbage iterate would
            # poison the multipliers for every later outer
            if pg <= max(10.0 * tol_inner, _TOL_STAT):
                lam_eq = lam_eq - rho * ev.d
                if ev.w is not None:
                    mu = ev.w       # max(0, mu - rho g), the penalty weight
            dmax = float(np.abs(ev.d).max())
            if dmax > _TOL_FEAS and dmax <= _POLISH_GATE \
                    and pg <= _TOL_STAT:
                # the controls are settled; close the remaining dynamics gap
                # exactly by re-rolling the states, if that stays feasible
                z, ev = self._try_polish(z, ev, lb, ub, tr, lam_eq, mu, rho,
                                         z_surface)
                dmax = float(np.abs(ev.d).max())
            g = ev.g
            viol = dmax
            if g.size:
                viol = max(viol, float(np.maximum(0.0, -g).max()))
            feas_ok = dmax <= _TOL_FEAS
            # the polished iterate may spend up to half the tightening
            # margin; the raw decay residual stays strictly positive
            gtol = _TOL_INEQ + 0.5 * _CBF_MARGIN
            ineq_ok = (float(g.min()) >= -gtol) if g.size else True
            if feas_ok and ineq_ok and pg <= _TOL_STAT:
                stop = "converged"
                break
            # a solved subproblem that leaves the violation untouched for
            # several outers means the constraints are unattainable from this
            # state; stop burning budget and return the compromise honestly.
            # Once the penalty sits at its cap the same logic applies even
            # without an inner certificate: growth can no longer react, so
            # a violation that repeats across outers is not going to move
            if (pg <= _TOL_STAT or rho >= _PENALTY_MAX) \
                    and viol > 0.9 * viol_last \
                    and viol > 20.0 * _TOL_FEAS:
                stall += 1
                if stall >= 3:
                    stop = "stall"
                    break
            else:
                stall = 0
            # raise the penalty only on stagnation while clearly infeasible;
            # near the feasibility target the multiplier updates finish the job
            if viol > 0.5 * viol_last and viol > 20.0 * _TOL_FEAS:
                rho = min(rho * _PENALTY_GROWTH, _PENALTY_MAX)
            viol_last = viol
            # tighten the subproblem tolerance geometrically, and faster if
            # the constraint violation is already smaller than the schedule
            tol_inner = min(max(_TOL_STAT * 0.5, 0.25 * viol),
                            max(_TOL_STAT * 0.5, tol_inner * 0.5))

        # the certificate comes from the evaluation of the returned iterate
        # (the budget checks in NmpcConfig guarantee one outer iteration)
        decision = DecisionVector.from_flat(z, n)
        u_apply = np.minimum(np.maximum(decision.controls[0], cfg.u_min),
                             cfg.u_max)
        return OcpSolution(
            decision=decision,
            u_apply=u_apply,
            cost=ev.cost,
            kkt_residual=float(pg),
            defect_norm=dmax,
            min_cbf_residual=float(ev.r.min()) if ev.r.size else float("inf"),
            iterations=outer,
            inner_iterations=total_inner,
            warm=WarmStart(decision.copy(), lam_eq.copy(), mu.copy(), rho),
            stop=stop,
        )


# -- gradient verification -------------------------------------------------

# central-difference step of gradient_check
_FD_STEP = 1e-6


@dataclass
class GradientCheckReport:
    """Worst relative error between analytic and central-difference
    gradients of the augmented objective over sampled points."""

    max_rel_err: float
    n_points: int
    tol: float

    @property
    def passed(self) -> bool:
        # False for a NaN error too
        return self.max_rel_err < self.tol


def _random_decision(solver: NmpcSolver, rng) -> np.ndarray:
    """A random flat iterate inside the box bounds. Heights stay above the
    ground-effect blend band (z* + r_rotor, 0.162 m for the default
    vehicle), where the multiplier is the raw factor and its higher
    derivatives are small, so central differences stay accurate."""
    cfg = solver.cfg
    n = cfg.n
    X = np.empty((n + 1, 12))
    X[:, 0:2] = rng.uniform(-3.0, 3.0, (n + 1, 2))
    X[:, 2] = rng.uniform(0.2, 3.0, n + 1)
    X[:, 3:6] = rng.uniform(-2.8, 2.8, (n + 1, 3))
    X[:, 6:8] = rng.uniform(-0.55, 0.55, (n + 1, 2))
    X[:, 8] = rng.uniform(-np.pi, np.pi, n + 1)
    X[:, 9:12] = rng.uniform(-2.0, 2.0, (n + 1, 3))
    U = rng.uniform(cfg.u_min, cfg.u_max, (n, 4))
    return np.concatenate([X.ravel(), U.ravel()])


def gradient_check(solver: NmpcSolver, plan: ReferencePlan, n_points: int = 20,
                   tol: float = 1e-5, seed: int = 0) -> GradientCheckReport:
    """Compare the analytic augmented-objective gradient against central
    differences of step _FD_STEP at random interior points with random
    multipliers, over a surface at height 0."""
    rng = np.random.default_rng(seed)
    n = solver.cfg.n
    n_obs = solver._centers.shape[0]
    tr = _Transcription(plan.x_ref, plan.x_terminal, plan.anchors,
                        solver._mrow)
    worst = 0.0
    for _ in range(n_points):
        z = _random_decision(solver, rng)
        lam_eq = rng.normal(0.0, 1.0, (n, 12))
        mu = np.abs(rng.normal(0.0, 1.0, (n, n_obs)))
        rho = 10.0
        args = (tr, lam_eq, mu, rho, 0.0)
        G = solver._evaluate(z, *args, grad=True).G
        G_fd = np.empty_like(G)
        for j in range(z.size):
            zp = z.copy()
            zp[j] += _FD_STEP
            zm = z.copy()
            zm[j] -= _FD_STEP
            G_fd[j] = (solver._evaluate(zp, *args).L
                       - solver._evaluate(zm, *args).L) / (2.0 * _FD_STEP)
        denom = max(1.0, float(np.abs(G_fd).max()))
        # np.maximum keeps a NaN error, from either gradient, as the worst
        worst = float(np.maximum(worst, (np.abs(G - G_fd) / denom).max()))
    return GradientCheckReport(max_rel_err=worst, n_points=n_points, tol=tol)

