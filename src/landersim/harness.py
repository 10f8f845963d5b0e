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


_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _default(f):
    return f.default if f.default_factory is dataclasses.MISSING \
        else f.default_factory()


def _checked(name, default, v):
    """v, once it has the kind and shape of the field's default. A section
    takes a JSON object or an instance, read as the object of its fields,
    and is built anew into its dataclass; an int, str or list default
    takes only its own type (so no bool for an int); a float or vector
    default takes finite numbers of its shape."""
    if dataclasses.is_dataclass(default):
        if isinstance(v, type(default)):
            v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
        return _build(type(default), v, name)
    if type(default) in _KINDS:
        ok, kind = type(v) is type(default), _KINDS[type(default)]
    else:
        try:
            a = np.array(v)
            ok = (a.dtype.kind in "iuf" and a.shape == np.shape(default)
                  and bool(np.isfinite(a).all()))
        except ValueError:                  # ragged nesting
            ok = False
        kind = (f"{len(default)} finite numbers" if np.ndim(default)
                else "a finite number")
    if not ok:
        raise ScenarioError(f"{name} must be {kind}")
    return v


def _build(cls, d, what):
    """cls from a JSON object: its keys are the fields of cls, an absent
    key takes the field's default, and a given value is checked against
    that default (fields without one are checked by cls)."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ScenarioError(f"unknown {what} keys: {sorted(unknown)}")
    kw = {}
    for k, v in d.items():
        default = _default(fields[k])
        name = k if cls is ScenarioConfig else f"{what}.{k}"
        kw[k] = v if default is dataclasses.MISSING \
            else _checked(name, default, v)
    try:
        return cls(**kw)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"{what}: {e}") from e


def _x0_from(v) -> np.ndarray:
    """The {pos, vel, yaw} form of x0 as a 12-vector."""
    form = {"pos": (0.0, 0.0, 2.0), "vel": (0.0, 0.0, 0.0), "yaw": 0.0}
    unknown = set(v) - set(form)
    if unknown:
        raise ScenarioError(f"unknown x0 keys: {sorted(unknown)}")
    x = {k: _checked(f"x0.{k}", form[k], v.get(k, form[k])) for k in form}
    return make_state(pos=x["pos"], vel=x["vel"], att=(0.0, 0.0, x["yaw"]))


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
        # the checks of a scenario file, for library callers too
        for f in dataclasses.fields(self):
            setattr(self, f.name,
                    _checked(f.name, _default(f), getattr(self, f.name)))
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
    def from_dict(cls, d) -> "ScenarioConfig":
        """Beyond the fields, a scenario file may name a noise preset, give
        x0 as {pos, vel, yaw}, and list obstacles as JSON objects."""
        if isinstance(d, dict):
            d = dict(d)
            if isinstance(d.get("noise"), str):
                try:
                    d["noise"] = noise_preset(d["noise"])
                except ValueError as e:
                    raise ScenarioError(str(e)) from e
            if isinstance(d.get("x0"), dict):
                d["x0"] = _x0_from(d["x0"])
            cbf = d.get("cbf")
            if isinstance(cbf, dict) and isinstance(cbf.get("obstacles"),
                                                    list):
                d["cbf"] = {**cbf, "obstacles": [
                    _build(ObstacleSpec, o, f"cbf.obstacles[{i}]")
                    for i, o in enumerate(cbf["obstacles"])]}
        return _build(cls, d, "scenario")

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
    ms_mean, ms_max = log.solve_ms_summary()
    return TrialResult(
        seed=log.seed,
        failed=not log.landed,
        fpe_cm=final_point_error(log) if log.landed else None,
        touchdown_time=(log.terminal["touchdown_time"]
                        if log.landed else None),
        min_h=log.min_h() if log.h.size else None,
        failure_reason=log.failure_reason,
        solve_ms_mean=ms_mean,
        solve_ms_max=ms_max,
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


def run_trials(scenario: ScenarioConfig) -> list:
    """Run the batch sequentially, scenario.trials seeds from
    scenario.seed, and return the logs in seed order."""
    return [run_closed_loop(scenario, scenario.seed + i)
            for i in range(scenario.trials)]


def batch_report(scenario: ScenarioConfig, logs) -> BatchReport:
    """The report of a batch; its base seed is the first log's seed, or
    the scenario's when there are no logs."""
    return BatchReport(scenario=scenario.name,
                       base_seed=logs[0].seed if logs else scenario.seed,
                       results=[trial_result(log) for log in logs])


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
