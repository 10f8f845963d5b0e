"""Closed-loop executor: 10 Hz control over the NMPC solver against an
RK4 plant, with platform motion, the landing phase machine, and full-state
logging.

The plant integrates at a finer step than the solver's Euler prediction
model on purpose; the resulting model mismatch is what the receding
horizon has to absorb. Feedback is ideal by default, with optional
per-group Gaussian noise for robustness experiments.
"""

import io
import time
from dataclasses import dataclass

import numpy as np

from .cbf import barrier_values_all
from .dynamics import SimulationFault, euler_step, hover_control, rk4_step
from .ocp import NmpcSolver, SolverDiverged
from .platform import LandingPhase, PhaseTracker, build_reference_plan, \
    platform_state_at

# RK4 steps of the plant per control period
_PLANT_SUBSTEPS = 10
# safety floor on the logged barrier values (m^2): a trial that ends below
# it has failed, wherever it came to rest
H_FLOOR = -1e-5

# phases whose rows apply no solve
_NO_SOLVE = (LandingPhase.TOUCHDOWN.value, LandingPhase.LANDED.value)

_STATE_COLS = ["px", "py", "pz", "vx", "vy", "vz",
               "roll", "pitch", "yaw", "wx", "wy", "wz"]


@dataclass
class NoiseSigmas:
    """Per-group standard deviations of additive measurement noise."""

    pos: float = 0.0
    vel: float = 0.0
    att: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if min(self.pos, self.vel, self.att, self.rate) < 0:
            raise ValueError("noise sigmas must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.pos == self.vel == self.att == self.rate == 0.0


NOISE_PRESETS = {
    "none": NoiseSigmas(),
    "mocap": NoiseSigmas(pos=0.001, vel=0.005, att=0.002, rate=0.005),
    "coarse": NoiseSigmas(pos=0.005, vel=0.02, att=0.01, rate=0.02),
}


def noise_preset(name: str) -> NoiseSigmas:
    try:
        return NOISE_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown noise preset {name!r}; "
                         f"choose from {sorted(NOISE_PRESETS)}")


def add_state_noise(state, sigmas: NoiseSigmas, rng) -> np.ndarray:
    """Measured state: truth plus zero-mean Gaussian noise per group.
    All-zero sigmas return the state unchanged without consuming draws."""
    x = np.asarray(state, dtype=float).copy()
    if sigmas.is_zero:
        return x
    scale = np.repeat([sigmas.pos, sigmas.vel, sigmas.att, sigmas.rate], 3)
    return x + rng.normal(0.0, 1.0, 12) * scale


@dataclass
class TrialLog:
    """Step-by-step record of one closed-loop trial.

    Rows are logged once per control period at t = k*dt; states are the
    plant truth, predicted is the Euler image of the measured state under
    the applied control (the prediction the next row can be held against).
    iterations and inner_iterations are the solver's outer and inner
    iteration counts (0 on rows without a solve); inner iterations are the
    unit of the real-time budget nmpc.max_inner_total. terminal is present
    exactly when the trial reached the LANDED phase; such a trial still
    fails if its logged barrier minimum broke H_FLOOR.
    """

    scenario: str
    seed: int
    dt: float
    t: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    predicted: np.ndarray
    platform_pos: np.ndarray
    platform_vel: np.ndarray
    phases: list
    converged: np.ndarray
    iterations: np.ndarray
    inner_iterations: np.ndarray
    kkt: np.ndarray
    defect: np.ndarray
    min_residual: np.ndarray
    solve_ms: np.ndarray
    held: np.ndarray
    h: np.ndarray
    terminal: dict = None
    failed: bool = False
    failure_reason: str = ""

    @property
    def n_steps(self) -> int:
        return self.t.shape[0]

    @property
    def landed(self) -> bool:
        return self.terminal is not None and not self.failed

    @property
    def status(self) -> str:
        return "LANDED" if self.landed else "FAILED"

    def min_h(self) -> float:
        """Most-violated barrier value over all logged plant states."""
        if self.h.size == 0:
            return float("inf")
        return float(self.h.min())

    def solve_ms_summary(self) -> tuple:
        """Mean and max solve time over the cycles that called the solver
        (APPROACH, TRACK and DESCEND rows, held ones included), or
        (None, None) when there are none."""
        ms = self.solve_ms[np.isin(self.phases, _NO_SOLVE, invert=True)]
        if not ms.size:
            return None, None
        return float(ms.mean()), float(ms.max())

    def header(self) -> list:
        cols = ["t"] + _STATE_COLS + ["u1", "u2", "u3", "u4"]
        cols += ["pred_" + c for c in _STATE_COLS]
        cols += ["plat_x", "plat_y", "plat_z",
                 "plat_vx", "plat_vy", "plat_vz", "phase", "converged",
                 "iterations", "inner_iterations", "kkt", "defect",
                 "min_residual", "solve_ms", "held"]
        cols += [f"h_{j}" for j in range(self.h.shape[1])]
        return cols

    def to_csv_string(self) -> str:
        """Columnar CSV, one row per step. Floats use repr (shortest
        round-trip), so identical logs serialize to identical bytes."""
        out = io.StringIO()
        out.write(",".join(self.header()) + "\n")
        for k in range(self.n_steps):
            row = [repr(float(self.t[k]))]
            row += [repr(float(v)) for v in self.states[k]]
            row += [repr(float(v)) for v in self.controls[k]]
            row += [repr(float(v)) for v in self.predicted[k]]
            row += [repr(float(v)) for v in self.platform_pos[k]]
            row += [repr(float(v)) for v in self.platform_vel[k]]
            row.append(self.phases[k])
            row.append(str(int(self.converged[k])))
            row.append(str(int(self.iterations[k])))
            row.append(str(int(self.inner_iterations[k])))
            row.append(repr(float(self.kkt[k])))
            row.append(repr(float(self.defect[k])))
            row.append(repr(float(self.min_residual[k])))
            row.append(repr(float(self.solve_ms[k])))
            row.append(str(int(self.held[k])))
            row += [repr(float(v)) for v in self.h[k]]
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write(self.to_csv_string())

    def summary_dict(self) -> dict:
        """Terminal-summary sidecar content, wall-clock solve times
        included."""
        ms_mean, ms_max = self.solve_ms_summary()
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "status": self.status,
            "failed": bool(self.failed),
            "failure_reason": self.failure_reason,
            "steps": int(self.n_steps),
            "min_h": None if self.h.size == 0 else self.min_h(),
            "holds": int(self.held.sum()),
            "terminal": self.terminal,
            "solve_ms_mean": ms_mean,
            "solve_ms_max": ms_max,
        }


class _Recorder:
    """Accumulates per-step rows and freezes them into a TrialLog."""

    def __init__(self, scenario, seed, dt, n_obs):
        self.scenario, self.seed, self.dt, self.n_obs = \
            scenario, seed, dt, n_obs
        self.rows = []

    def add(self, t, x, u, pred, p_plat, v_plat, phase, sol, solve_ms,
            held, h):
        self.rows.append((t, x.copy(), u.copy(), pred.copy(), p_plat.copy(),
                          v_plat.copy(), phase.value,
                          sol is not None and sol.converged,
                          0 if sol is None else sol.iterations,
                          0 if sol is None else sol.inner_iterations,
                          np.nan if sol is None else sol.kkt_residual,
                          np.nan if sol is None else sol.defect_norm,
                          np.nan if sol is None else sol.min_cbf_residual,
                          solve_ms, held, np.asarray(h, dtype=float)))

    def freeze(self, terminal, failed, reason) -> TrialLog:
        n = len(self.rows)
        cols = list(zip(*self.rows)) or [()] * 16
        arr = lambda i, shape: np.array(cols[i], dtype=float).reshape(shape)
        return TrialLog(
            scenario=self.scenario, seed=self.seed, dt=self.dt,
            t=arr(0, (n,)),
            states=arr(1, (n, 12)),
            controls=arr(2, (n, 4)),
            predicted=arr(3, (n, 12)),
            platform_pos=arr(4, (n, 3)),
            platform_vel=arr(5, (n, 3)),
            phases=list(cols[6]),
            converged=np.array(cols[7], dtype=bool),
            iterations=np.array(cols[8], dtype=int),
            inner_iterations=np.array(cols[9], dtype=int),
            kkt=arr(10, (n,)),
            defect=arr(11, (n,)),
            min_residual=arr(12, (n,)),
            solve_ms=arr(13, (n,)),
            held=np.array(cols[14], dtype=bool),
            h=arr(15, (n, self.n_obs)),
            terminal=terminal, failed=failed, failure_reason=reason,
        )


def _surface_under(x, p_plat, model) -> float:
    """Height of the surface beneath the vehicle: the platform top while
    horizontally over the disc, the floor otherwise."""
    if np.hypot(x[0] - p_plat[0], x[1] - p_plat[1]) <= model.surface_radius:
        return float(p_plat[2])
    return 0.0


def perturb_initial_state(x0, rng) -> np.ndarray:
    """Per-seed initial condition: uniform +-0.3 m position and +-0.05 rad
    attitude around the scenario's nominal start."""
    x = np.asarray(x0, dtype=float).copy()
    x[0:3] += rng.uniform(-0.3, 0.3, 3)
    x[6:9] += rng.uniform(-0.05, 0.05, 3)
    return x


def run_closed_loop(scenario, seed: int, plant: str = "rk4") -> TrialLog:
    """Run one seeded landing trial and return its full log.

    scenario carries params, nmpc/cbf configs, the platform model, phase
    thresholds, nominal initial state, noise sigmas, and timeout (see the
    harness module). plant selects the plant integrator: "rk4" (default,
    deliberate model mismatch) or "euler" at the control period, which
    makes the plant coincide with the prediction model for consistency
    oracles.
    """
    if plant not in ("rk4", "euler"):
        raise ValueError("plant must be 'rk4' or 'euler'")
    params, cfg, cbf = scenario.params, scenario.nmpc, scenario.cbf
    model, thr = scenario.platform, scenario.thresholds
    noise = scenario.noise
    rng = np.random.default_rng(seed)
    x = perturb_initial_state(scenario.x0, rng)
    yaw_ref = float(np.asarray(scenario.x0, dtype=float)[8])

    solver = NmpcSolver(cfg, cbf, params)
    tracker = PhaseTracker(thresholds=thr, dt=cfg.dt)
    rec = _Recorder(scenario.name, seed, cfg.dt, cbf.n_obstacles)

    warm = None
    u_prev = hover_control(params)
    u_zero = np.zeros(4)
    holds = 0
    pending = None          # touchdown facts, written out at the LANDED row
    terminal = None
    failed = False
    reason = ""
    max_steps = int(round(scenario.timeout / cfg.dt))

    for k in range(max_steps):
        t = k * cfg.dt
        p_plat, v_plat = platform_state_at(model, t)
        x_meas = add_state_noise(x, noise, rng)
        phase = tracker.step(x_meas, p_plat, v_plat)
        h_now = (barrier_values_all(x[0:2], cbf).ravel()
                 if cbf.obstacles else np.zeros(0))

        if phase is LandingPhase.TOUCHDOWN:
            # thrust cut; contact holds the vehicle, so the plant freezes
            pending = {"touchdown_time": float(t),
                       "drone_position": [float(v) for v in x[0:3]],
                       "platform_position": [float(v) for v in p_plat]}
            rec.add(t, x, u_zero, x, p_plat, v_plat, phase, None, 0.0,
                    False, h_now)
            continue
        if phase is LandingPhase.LANDED:
            terminal = pending
            rec.add(t, x, u_zero, x, p_plat, v_plat, phase, None, 0.0,
                    False, h_now)
            break

        z_surface = _surface_under(x, p_plat, model)
        plan = build_reference_plan(phase, p_plat, v_plat, yaw_ref, cfg,
                                    thr, tracker.time_in_descend)
        tic = time.perf_counter()
        try:
            sol = solver.solve(x_meas, plan, warm=warm, z_surface=z_surface)
            u = sol.u_apply
            warm = sol.warm.shifted()
            holds = 0
        except SolverDiverged:
            sol = None
            u = u_prev
            warm = None
            holds += 1
        solve_ms = (time.perf_counter() - tic) * 1e3

        pred = euler_step(x_meas, u, cfg.dt, params, z_surface)
        rec.add(t, x, u, pred, p_plat, v_plat, phase, sol, solve_ms,
                sol is None, h_now)
        if holds >= 3:
            failed = True
            reason = "solver diverged on 3 consecutive cycles"
            break

        try:
            if plant == "euler":
                x = euler_step(x, u, cfg.dt, params, z_surface)
            else:
                sub = cfg.dt / _PLANT_SUBSTEPS
                for _ in range(_PLANT_SUBSTEPS):
                    x = rk4_step(x, u, sub, params, z_surface)
        except SimulationFault as exc:
            failed = True
            reason = f"plant fault: {exc}"
            break
        u_prev = u
    else:
        failed = True
        reason = f"timeout after {scenario.timeout:g} s"

    log = rec.freeze(terminal, failed, reason)
    if not failed and log.min_h() < H_FLOOR:
        # judged once the trial is over, so no step of the loop changes
        k = int(np.argmin(log.h.min(axis=1)))
        log.failed = True
        log.failure_reason = (f"safety floor broken: h {log.min_h():.3g} "
                              f"at t {log.t[k]:.1f} s")
    return log
