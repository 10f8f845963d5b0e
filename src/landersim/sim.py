"""Closed-loop executor: 10 Hz control over the NMPC solver against an
RK4 plant, with platform motion, the landing phase machine, and full-state
logging.

The plant integrates at a finer step than the solver's Euler prediction
model on purpose; the resulting model mismatch is what the receding
horizon has to absorb. Feedback is ideal by default, with optional
per-group Gaussian noise for robustness experiments.
"""

import time
from dataclasses import dataclass, field, fields

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
    scale = np.array([sigmas.pos, sigmas.vel, sigmas.att, sigmas.rate]) \
        .repeat(3)
    return x + rng.normal(0.0, 1.0, 12) * scale


def _column(names, dtype=float, sol=None):
    """A per-cycle TrialLog field: its CSV column name (one value a row),
    list of names (a row vector) or list as a function of the obstacle
    count, its dtype, and the OcpSolution attribute a solver column logs."""
    return field(metadata={"names": names, "dtype": dtype, "sol": sol})


@dataclass
class TrialLog:
    """Step-by-step record of one closed-loop trial.

    Rows are logged once per control period at t = k*dt. The per-cycle
    fields are declared below in CSV order with their column names, dtype
    and, for a solver column, the OcpSolution attribute it logs (NaN, 0 or
    False, by dtype, on rows without a solve); the recorder, header() and
    to_csv_string() read that declaration only. states are the plant
    truth; predicted is the Euler image of the measured state under the
    applied control (NaN where that state faulted the model). iterations
    and inner_iterations count the solver's outer and inner iterations,
    the latter the unit of the real-time budget nmpc.max_inner_total.
    terminal is present exactly when the trial reached the LANDED phase;
    such a trial still fails if its logged barrier minimum broke H_FLOOR.
    """

    scenario: str
    seed: int
    dt: float
    t: np.ndarray = _column("t")
    states: np.ndarray = _column(_STATE_COLS)
    controls: np.ndarray = _column(["u1", "u2", "u3", "u4"])
    predicted: np.ndarray = _column(["pred_" + c for c in _STATE_COLS])
    platform_pos: np.ndarray = _column(["plat_x", "plat_y", "plat_z"])
    platform_vel: np.ndarray = _column(["plat_vx", "plat_vy", "plat_vz"])
    phases: list = _column("phase", str)
    converged: np.ndarray = _column("converged", bool, "converged")
    iterations: np.ndarray = _column("iterations", int, "iterations")
    inner_iterations: np.ndarray = _column("inner_iterations", int,
                                           "inner_iterations")
    kkt: np.ndarray = _column("kkt", float, "kkt_residual")
    defect: np.ndarray = _column("defect", float, "defect_norm")
    min_residual: np.ndarray = _column("min_residual", float,
                                       "min_cbf_residual")
    solve_ms: np.ndarray = _column("solve_ms")
    held: np.ndarray = _column("held", bool)
    h: np.ndarray = _column(lambda n_obs: [f"h_{j}" for j in range(n_obs)])
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

    def inner_iterations_by_phase(self) -> dict:
        """Inner iterations summed over the rows of each phase that calls
        the solver: APPROACH, TRACK and DESCEND."""
        phases = np.asarray(self.phases)
        return {p.value: int(self.inner_iterations[phases == p.value].sum())
                for p in LandingPhase if p.value not in _NO_SOLVE}

    def header(self) -> list:
        return [c for f in _PER_CYCLE
                for c in _layout(f, self.h.shape[1])[0]]

    def to_csv_string(self) -> str:
        """Columnar CSV, one row per step. Floats use repr (shortest
        round-trip) and flags and counts print as integers, so identical
        logs serialize to identical bytes."""
        cells = []
        for f in _PER_CYCLE:
            dtype = f.metadata["dtype"]
            a = np.asarray(getattr(self, f.name),
                           dtype=int if dtype is bool else dtype)
            width = len(_layout(f, self.h.shape[1])[0])
            fmt = repr if dtype is float else str
            cells.append([[fmt(v) for v in row]
                          for row in a.reshape(self.n_steps, width).tolist()])
        rows = [self.header()] + [sum(row, []) for row in zip(*cells)]
        return "".join(",".join(row) + "\n" for row in rows)

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


_PER_CYCLE = [f for f in fields(TrialLog) if f.metadata]


def _layout(f, n_obs) -> tuple:
    """CSV column names and per-row shape of per-cycle field f."""
    names = f.metadata["names"]
    names = names(n_obs) if callable(names) else names
    return ([names], ()) if isinstance(names, str) else (names, (len(names),))


class _Recorder:
    """Accumulates per-cycle rows and freezes them into a TrialLog."""

    def __init__(self, n_obs, **head):
        self.n_obs, self.head = n_obs, head
        self.cols = {f.name: [] for f in _PER_CYCLE}

    def add(self, sol, **row):
        """One cycle: the solver columns from sol, or NaN, 0 or False when
        the cycle applied no solve (sol None), the others from row."""
        for f in _PER_CYCLE:
            dtype, attr = f.metadata["dtype"], f.metadata["sol"]
            if attr is None:
                v = row[f.name]
            elif sol is None:
                v = np.nan if dtype is float else dtype()
            else:
                v = getattr(sol, attr)
            self.cols[f.name].append(v if dtype is str else np.array(v, dtype))

    def freeze(self, terminal, failed, reason) -> TrialLog:
        n = len(self.cols["t"])
        cols = {f.name: self.cols[f.name] if f.metadata["dtype"] is str
                else np.array(self.cols[f.name], f.metadata["dtype"])
                .reshape((n,) + _layout(f, self.n_obs)[1])
                for f in _PER_CYCLE}
        return TrialLog(**self.head, **cols, terminal=terminal,
                        failed=failed, failure_reason=reason)


def _surface_under(x, p_plat, model) -> float:
    """Height of the surface beneath the vehicle: the platform top while
    horizontally over the disc, the floor otherwise."""
    if np.hypot(x[0] - p_plat[0], x[1] - p_plat[1]) <= model.surface_radius:
        return float(p_plat[2])
    return 0.0


def _plant_step(x, u, dt, params, z_surface) -> np.ndarray:
    """The plant over one control period: _PLANT_SUBSTEPS RK4 steps."""
    for _ in range(_PLANT_SUBSTEPS):
        x = rk4_step(x, u, dt / _PLANT_SUBSTEPS, params, z_surface)
    return x


def perturb_initial_state(x0, rng) -> np.ndarray:
    """Per-seed initial condition: uniform +-0.3 m position and +-0.05 rad
    attitude around the scenario's nominal start."""
    x = np.asarray(x0, dtype=float).copy()
    x[0:3] += rng.uniform(-0.3, 0.3, 3)
    x[6:9] += rng.uniform(-0.05, 0.05, 3)
    return x


def run_closed_loop(scenario, seed: int) -> TrialLog:
    """Run one seeded landing trial against the RK4 plant and return its
    full log.

    scenario carries params, nmpc/cbf configs, the platform model, phase
    thresholds, nominal initial state, noise sigmas, and timeout (see the
    harness module).
    """
    params, cfg, cbf = scenario.params, scenario.nmpc, scenario.cbf
    model, thr = scenario.platform, scenario.thresholds
    noise = scenario.noise
    rng = np.random.default_rng(seed)
    x = perturb_initial_state(scenario.x0, rng)
    yaw_ref = float(np.asarray(scenario.x0, dtype=float)[8])

    solver = NmpcSolver(cfg, cbf, params)
    tracker = PhaseTracker(thresholds=thr, dt=cfg.dt)
    rec = _Recorder(cbf.n_obstacles, scenario=scenario.name, seed=seed,
                    dt=cfg.dt)

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
        # without a solve the thrust is cut; contact holds the vehicle, so
        # the plant freezes
        sol, u, held, solve_ms = None, u_zero, False, 0.0
        pred = x_next = x
        if phase is LandingPhase.TOUCHDOWN:
            pending = {"touchdown_time": float(t),
                       "drone_position": [float(v) for v in x[0:3]],
                       "platform_position": [float(v) for v in p_plat]}
        elif phase is LandingPhase.LANDED:
            terminal = pending
        else:
            z_surface = _surface_under(x, p_plat, model)
            plan = build_reference_plan(phase, p_plat, v_plat, yaw_ref, cfg,
                                        thr, tracker.time_in_descend)
            tic = time.perf_counter()
            try:
                sol = solver.solve(x_meas, plan, warm=warm,
                                   z_surface=z_surface)
                u, warm, holds = sol.u_apply, sol.warm.shifted(), 0
            except SolverDiverged:
                u, warm, held = u_prev, None, True
                holds += 1
            solve_ms = (time.perf_counter() - tic) * 1e3
            if holds >= 3:
                failed = True
                reason = "solver diverged on 3 consecutive cycles"
            pred = np.full(12, np.nan)
            try:
                # the prediction checks the measured state, the plant the truth
                pred = euler_step(x_meas, u, cfg.dt, params, z_surface)
                if not failed:
                    x_next = _plant_step(x, u, cfg.dt, params, z_surface)
            except SimulationFault as exc:
                failed = True
                reason = f"plant fault: {exc}"
        rec.add(sol, t=t, states=x, controls=u, predicted=pred,
                platform_pos=p_plat, platform_vel=v_plat, phases=phase.value,
                solve_ms=solve_ms, held=held,
                h=(barrier_values_all(x[0:2], cbf).ravel()
                   if cbf.obstacles else np.zeros(0)))
        if failed or phase is LandingPhase.LANDED:
            break
        x, u_prev = x_next, u
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
