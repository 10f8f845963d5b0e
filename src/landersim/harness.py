"""Scenario configuration, trial batching, final-point-error metrics, and
report rendering.

A scenario file is plain JSON; every section is optional and falls back
to module defaults, so a minimal file only names the platform motion and
the obstacle set. Reference scenarios ship with the package (see the
scenarios/ directory) covering the static/dynamic x clear/obstacle matrix.
"""

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .cbf import CbfConfig, ObstacleSpec, barrier_value
from .dynamics import QuadrotorParams, make_state
from .ocp import NmpcConfig
from .platform import PhaseThresholds, PlatformModel, platform_state_at
from .sim import NoiseSigmas, TrialLog, noise_preset, run_closed_loop


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _build(cls, d, what):
    d = dict(d or {})
    unknown = set(d) - _fields(cls)
    if unknown:
        raise ScenarioError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**d)
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"invalid {what}: {e}") from e


def _cbf_from_dict(d) -> CbfConfig:
    d = dict(d or {})
    obs = d.pop("obstacles", [])
    unknown = set(d) - {"gamma"}
    if unknown:
        raise ScenarioError(f"unknown cbf keys: {sorted(unknown)}")
    try:
        specs = [ObstacleSpec(**o) for o in obs]
        return CbfConfig(obstacles=specs, **d)
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"invalid cbf config: {e}") from e


def _x0_from(v) -> np.ndarray:
    if isinstance(v, dict):
        unknown = set(v) - {"pos", "vel", "yaw"}
        if unknown:
            raise ScenarioError(f"unknown x0 keys: {sorted(unknown)}")
        return make_state(pos=v.get("pos", (0.0, 0.0, 2.0)),
                          vel=v.get("vel", (0.0, 0.0, 0.0)),
                          att=(0.0, 0.0, float(v.get("yaw", 0.0))))
    x = np.asarray(v, dtype=float)
    if x.shape != (12,):
        raise ScenarioError("x0 must be a 12-vector or {pos, vel, yaw}")
    return x


@dataclass
class ScenarioConfig:
    """Everything one trial batch needs, validated across modules."""

    name: str = "unnamed"
    params: QuadrotorParams = field(default_factory=QuadrotorParams)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    cbf: CbfConfig = field(default_factory=CbfConfig)
    platform: PlatformModel = field(default_factory=PlatformModel)
    thresholds: PhaseThresholds = field(default_factory=PhaseThresholds)
    x0: np.ndarray = field(
        default_factory=lambda: make_state(pos=(0.0, 0.0, 2.0)))
    trials: int = 10
    seed: int = 0
    noise: NoiseSigmas = field(default_factory=NoiseSigmas)
    timeout: float = 60.0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.trials < 1:
            raise ScenarioError("trials must be at least 1")
        if self.seed < 0:
            raise ScenarioError("seed must be non-negative")
        if self.timeout <= 0:
            raise ScenarioError("timeout must be positive")
        self.validate()

    def validate(self):
        """Cross-module preconditions: the platform center path and the
        nominal initial state must stay outside every obstacle safety
        circle (starts should clear them by more than the 0.3 m seed
        perturbation)."""
        if not np.all(np.isfinite(self.x0)):
            raise ScenarioError("x0 must be finite")
        if not self.cbf.obstacles:
            return
        ts = np.arange(0.0, self.timeout + self.nmpc.dt, self.nmpc.dt)
        path = np.stack([platform_state_at(self.platform, t)[0][0:2]
                         for t in ts])
        for ob in self.cbf.obstacles:
            if float(barrier_value(self.x0[0:2], ob)) <= 0.0:
                raise ScenarioError(
                    f"initial state inside safety circle of {ob.to_dict()}")
            if float(barrier_value(path, ob).min()) <= 0.0:
                raise ScenarioError(
                    f"platform path enters safety circle of {ob.to_dict()}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        known = {"name", "params", "nmpc", "cbf", "platform", "thresholds",
                 "x0", "trials", "seed", "noise", "timeout"}
        unknown = set(d) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        noise = d.get("noise", {})
        if isinstance(noise, str):
            try:
                noise = noise_preset(noise)
            except ValueError as e:
                raise ScenarioError(str(e)) from e
        else:
            noise = _build(NoiseSigmas, noise, "noise")
        try:
            return cls(
                name=str(d.get("name", "unnamed")),
                params=_build(QuadrotorParams,
                              {k: (np.array(v) if k == "J" else v)
                               for k, v in (d.get("params") or {}).items()},
                              "params"),
                nmpc=_build(NmpcConfig, d.get("nmpc"), "nmpc"),
                cbf=_cbf_from_dict(d.get("cbf")),
                platform=_build(PlatformModel, d.get("platform"), "platform"),
                thresholds=_build(PhaseThresholds, d.get("thresholds"),
                                  "thresholds"),
                x0=_x0_from(d.get("x0", {"pos": (0.0, 0.0, 2.0)})),
                trials=int(d.get("trials", 10)),
                seed=int(d.get("seed", 0)),
                noise=noise,
                timeout=float(d.get("timeout", 60.0)),
            )
        except ScenarioError:
            raise
        except (ValueError, TypeError) as e:
            raise ScenarioError(f"invalid scenario: {e}") from e

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as f:
                d = json.load(f)
        except OSError as e:
            raise ScenarioError(f"cannot read scenario file: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario file is not valid JSON: {e}") \
                from e
        return cls.from_dict(d)


def load_scenario(spec: str) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a builtin scenario name."""
    root = resources.files("landersim") / "scenarios"
    builtin = root / f"{spec}.json"
    if builtin.is_file():
        return ScenarioConfig.from_dict(json.loads(builtin.read_text()))
    return ScenarioConfig.from_json(spec)


# -- metrics -------------------------------------------------------------------


def final_point_error(log: TrialLog) -> float:
    """Horizontal distance in centimeters between the touchdown position
    and the platform center at touchdown: the vertical offset at touchdown
    is fixed by the platform surface."""
    if log.terminal is None:
        raise ValueError("trial has no terminal record (did not land)")
    drone = np.asarray(log.terminal["drone_position"], dtype=float)
    plat = np.asarray(log.terminal["platform_position"], dtype=float)
    return float(np.linalg.norm(drone[:2] - plat[:2]) * 100.0)


@dataclass
class TrialResult:
    """One row of a batch report. Wall-clock solve times are excluded from
    equality and from report.json (they vary run to run); they still show
    up in the text report and the per-trial sidecars."""

    seed: int
    failed: bool
    fpe_cm: float = None
    touchdown_time: float = None
    min_h: float = None
    failure_reason: str = ""
    solve_ms_mean: float = field(default=None, compare=False)
    solve_ms_max: float = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "failed": self.failed,
                "fpe_cm": self.fpe_cm, "touchdown_time": self.touchdown_time,
                "min_h": self.min_h, "failure_reason": self.failure_reason}


def trial_result(log: TrialLog) -> TrialResult:
    ms = log.solve_ms[~log.held] if log.n_steps else np.zeros(0)
    return TrialResult(
        seed=log.seed,
        failed=not log.landed,
        fpe_cm=final_point_error(log) if log.landed else None,
        touchdown_time=(log.terminal["touchdown_time"]
                        if log.landed else None),
        min_h=log.min_h() if log.h.size else None,
        failure_reason=log.failure_reason,
        solve_ms_mean=float(ms.mean()) if ms.size else None,
        solve_ms_max=float(ms.max()) if ms.size else None,
    )


@dataclass
class BatchReport:
    """Per-trial results plus aggregates. Aggregates run over successful
    trials only; the success rate counts all trials."""

    scenario: str
    base_seed: int
    results: list

    @property
    def n_trials(self) -> int:
        return len(self.results)

    @property
    def n_success(self) -> int:
        return sum(1 for r in self.results if not r.failed)

    @property
    def success_rate(self) -> float:
        if not self.results:
            return None
        return self.n_success / self.n_trials

    @property
    def mean_fpe_cm(self) -> float:
        vals = [r.fpe_cm for r in self.results if not r.failed]
        return float(np.mean(vals)) if vals else None

    @property
    def max_fpe_cm(self) -> float:
        vals = [r.fpe_cm for r in self.results if not r.failed]
        return float(np.max(vals)) if vals else None

    @property
    def min_h(self) -> float:
        vals = [r.min_h for r in self.results if r.min_h is not None]
        return float(np.min(vals)) if vals else None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "base_seed": self.base_seed,
            "trials": self.n_trials,
            "results": [r.to_dict() for r in self.results],
            "aggregates": {
                "n_success": self.n_success,
                "success_rate": self.success_rate,
                "mean_fpe_cm": self.mean_fpe_cm,
                "max_fpe_cm": self.max_fpe_cm,
                "min_h": self.min_h,
            },
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed layout, no timing. Identical
        batches therefore serialize to identical bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_trials(scenario: ScenarioConfig, trials: int = None,
               base_seed: int = None, plant: str = "rk4") -> list:
    """Run the batch sequentially with seeds base_seed..base_seed+n-1 and
    return the logs in seed order."""
    n = scenario.trials if trials is None else int(trials)
    s0 = scenario.seed if base_seed is None else int(base_seed)
    return [run_closed_loop(scenario, s0 + i, plant=plant) for i in range(n)]


def batch_report(scenario: ScenarioConfig, logs, base_seed: int = None) \
        -> BatchReport:
    s0 = base_seed if base_seed is not None else \
        (logs[0].seed if logs else scenario.seed)
    return BatchReport(scenario=scenario.name, base_seed=s0,
                       results=[trial_result(log) for log in logs])


def run_batch(scenario: ScenarioConfig, trials: int = None,
              base_seed: int = None, plant: str = "rk4") -> BatchReport:
    s0 = scenario.seed if base_seed is None else int(base_seed)
    logs = run_trials(scenario, trials, s0, plant)
    return batch_report(scenario, logs, base_seed=s0)


# -- rendering -------------------------------------------------------------------


def _fmt(v, spec, na="n/a"):
    return na if v is None else format(v, spec)


def render_table(report: BatchReport) -> str:
    """Aligned text table of a batch report, timing included."""
    lines = [f"scenario: {report.scenario}    trials: {report.n_trials}"
             f"    base seed: {report.base_seed}"]
    hdr = (f"{'seed':>6} {'status':>8} {'fpe_cm':>8} {'touchdown_s':>12} "
           f"{'min_h':>10} {'solve_ms_mean':>14} {'solve_ms_max':>13} "
           f"reason")
    lines.append(hdr)
    lines.append("-" * len(hdr))
    for r in report.results:
        lines.append(
            f"{r.seed:>6} {('FAILED' if r.failed else 'LANDED'):>8} "
            f"{_fmt(r.fpe_cm, '8.2f'):>8} "
            f"{_fmt(r.touchdown_time, '12.2f'):>12} "
            f"{_fmt(r.min_h, '10.4f'):>10} "
            f"{_fmt(r.solve_ms_mean, '14.2f'):>14} "
            f"{_fmt(r.solve_ms_max, '13.2f'):>13} "
            f"{r.failure_reason}".rstrip())
    rate = report.success_rate
    lines.append(
        f"aggregates: success {report.n_success}/{report.n_trials}"
        f" ({_fmt(None if rate is None else 100.0 * rate, '.1f')}%)"
        f"   mean fpe {_fmt(report.mean_fpe_cm, '.2f')} cm"
        f"   max fpe {_fmt(report.max_fpe_cm, '.2f')} cm"
        f"   min h {_fmt(report.min_h, '.4f')}")
    return "\n".join(lines) + "\n"
