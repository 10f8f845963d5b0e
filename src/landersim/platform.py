"""Landing platform motion models, the landing phase machine, and the
reference plans the controller tracks through a landing.

The platform is a level disc whose center follows a closed-form path:
parked, constant drift, or sinusoidal sway. The phase machine runs on the
relative state (drone minus platform) so the same thresholds serve static
and moving targets. Phases only ever advance, except that a descent whose
horizontal error blows out regresses to TRACK and retries.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ocp import NmpcConfig, ReferencePlan

_KINDS = ("static", "constant_velocity", "sinusoidal")


@dataclass
class PlatformModel:
    """Closed-form platform motion. p0 is the initial center of the landing
    surface; its z component is pinned to top_height so the surface point
    and the motion share one origin. surface_radius bounds the area that
    counts as "over the platform" for ground effect."""

    kind: str = "static"
    p0: tuple = (0.0, 0.0, 0.0)
    vel: tuple = (0.0, 0.0, 0.0)
    amplitude: tuple = (0.0, 0.0, 0.0)
    period: float = 4.0
    top_height: float = 0.3
    surface_radius: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown platform kind {self.kind!r}")
        if self.top_height < 0:
            raise ValueError("top_height must be nonnegative")
        if self.surface_radius <= 0:
            raise ValueError("surface_radius must be positive")
        self.p0 = (float(self.p0[0]), float(self.p0[1]), self.top_height)
        self.vel = tuple(float(v) for v in self.vel)
        self.amplitude = tuple(float(a) for a in self.amplitude)
        if math.hypot(*self.vel) > 2.0:
            raise ValueError("platform speed must not exceed 2 m/s")
        if self.kind == "sinusoidal":
            if self.period <= 0:
                raise ValueError("period must be positive")
            peak = 2.0 * math.pi * math.hypot(*self.amplitude) / self.period
            if peak > 2.0:
                raise ValueError("sinusoidal peak speed must not exceed 2 m/s")


def platform_state_at(model: PlatformModel, t: float):
    """Position and velocity of the platform center at time t.

    The sinusoidal phase is reduced with fmod before evaluation, so two
    times one period apart give bit-identical states whenever t + period
    is exact in floating point (dyadic time grids).
    """
    p0 = np.array(model.p0)
    if model.kind == "static":
        return p0, np.zeros(3)
    if model.kind == "constant_velocity":
        v = np.array(model.vel)
        return p0 + t * v, v
    w = 2.0 * math.pi / model.period
    ph = math.fmod(t, model.period)
    a = np.array(model.amplitude)
    return p0 + a * math.sin(w * ph), a * (w * math.cos(w * ph))


# -- phase machine -----------------------------------------------------------


class LandingPhase(enum.Enum):
    APPROACH = "APPROACH"
    TRACK = "TRACK"
    DESCEND = "DESCEND"
    TOUCHDOWN = "TOUCHDOWN"
    LANDED = "LANDED"


@dataclass
class PhaseThresholds:
    """Geometric gates of the landing sequence. All distances in meters,
    times in seconds, speeds in m/s; every value is config-overridable."""

    capture_radius: float = 0.25    # APPROACH -> TRACK
    track_radius: float = 0.15      # TRACK -> DESCEND gate
    track_dwell: float = 0.5        # time inside track_radius before descent
    abort_radius: float = 0.30      # DESCEND -> TRACK regression
    touchdown_height: float = 0.05  # relative height gate
    touchdown_radius: float = 0.15  # horizontal gate at touchdown
    vz_rel_min: float = -0.5        # relative vertical speed window
    vz_rel_max: float = 0.0
    approach_altitude: float = 1.0  # hold height above the surface
    descent_rate: float = 0.4
    hover_clearance: float = 0.02   # ramp floor above the surface

    def __post_init__(self):
        for name in ("capture_radius", "track_radius", "abort_radius",
                     "touchdown_height", "touchdown_radius",
                     "approach_altitude", "descent_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.abort_radius <= self.track_radius:
            raise ValueError("abort_radius must exceed track_radius")
        if self.vz_rel_min >= self.vz_rel_max + 1e-12:
            raise ValueError("relative vertical speed window is empty")
        if self.track_dwell < 0 or self.hover_clearance < 0:
            raise ValueError("dwell and clearance must be nonnegative")


def update_phase(phase: LandingPhase, drone, platform_pos, platform_vel,
                 thr: PhaseThresholds,
                 within_time: float = math.inf) -> LandingPhase:
    """One transition step of the phase machine.

    within_time is how long the drone has already stayed inside
    track_radius; the caller accumulates it (PhaseTracker does). The
    default of infinity makes the dwell gate pass immediately, which is
    convenient when exercising the machine statically.
    """
    drone = np.asarray(drone, dtype=float)
    platform_pos = np.asarray(platform_pos, dtype=float)
    horiz = float(np.hypot(drone[0] - platform_pos[0],
                           drone[1] - platform_pos[1]))
    if phase is LandingPhase.APPROACH:
        if horiz < thr.capture_radius:
            return LandingPhase.TRACK
        return phase
    if phase is LandingPhase.TRACK:
        if horiz < thr.track_radius and within_time >= thr.track_dwell:
            return LandingPhase.DESCEND
        return phase
    if phase is LandingPhase.DESCEND:
        if horiz > thr.abort_radius:
            return LandingPhase.TRACK
        rel_h = float(drone[2] - platform_pos[2])
        vz_rel = float(drone[5] - np.asarray(platform_vel, dtype=float)[2])
        if (rel_h < thr.touchdown_height and horiz < thr.touchdown_radius
                and thr.vz_rel_min <= vz_rel <= thr.vz_rel_max):
            return LandingPhase.TOUCHDOWN
        return phase
    # TOUCHDOWN and LANDED itself
    return LandingPhase.LANDED


@dataclass
class PhaseTracker:
    """Owns the per-trial phase variable plus the two clocks the pure
    transition function cannot carry: the track-dwell timer and the time
    spent in the current descent (which drives the reference ramp)."""

    thresholds: PhaseThresholds
    dt: float
    phase: LandingPhase = LandingPhase.APPROACH
    within_time: float = 0.0
    time_in_descend: float = 0.0

    def step(self, drone, platform_pos, platform_vel) -> LandingPhase:
        thr = self.thresholds
        horiz = float(np.hypot(drone[0] - platform_pos[0],
                               drone[1] - platform_pos[1]))
        if horiz < thr.track_radius:
            self.within_time += self.dt
        else:
            self.within_time = 0.0
        new = update_phase(self.phase, drone, platform_pos, platform_vel,
                           thr, self.within_time)
        if new is LandingPhase.DESCEND:
            if self.phase is LandingPhase.DESCEND:
                self.time_in_descend += self.dt
            else:
                self.time_in_descend = 0.0
        self.phase = new
        return new


def descent_reference(phase: LandingPhase, platform_pos,
                      thr: PhaseThresholds,
                      time_in_descend: float = 0.0) -> np.ndarray:
    """Target position for the reference plan in the given phase.

    APPROACH and TRACK hold approach_altitude above the surface; DESCEND
    ramps down at descent_rate toward a small hover clearance; TOUCHDOWN
    and LANDED aim at the surface point itself.
    """
    platform_pos = np.asarray(platform_pos, dtype=float)
    target = platform_pos.copy()
    if phase in (LandingPhase.APPROACH, LandingPhase.TRACK):
        target[2] += thr.approach_altitude
    elif phase is LandingPhase.DESCEND:
        z = thr.approach_altitude - thr.descent_rate * time_in_descend
        target[2] += max(z, thr.hover_clearance)
    return target


def build_reference_plan(phase: LandingPhase, platform_pos, platform_vel,
                         yaw: float, cfg: NmpcConfig, thr: PhaseThresholds,
                         time_in_descend: float = 0.0) -> ReferencePlan:
    """Reference plan for one solver cycle.

    Positions chase the phase target advanced along the platform velocity,
    with the descent ramp continued across the horizon so the solver sees
    the sink rate coming. The positional pull anchors are the phase target
    so advanced, without the ramp (not the raw platform center): pulling z
    toward the surface while the reference holds approach altitude would
    just split the difference. Anchors are set only in TRACK and DESCEND.
    """
    platform_vel = np.asarray(platform_vel, dtype=float)
    target = descent_reference(phase, platform_pos, thr, time_in_descend)
    n = cfg.n
    ks = np.arange(n + 1, dtype=float)
    x_ref = np.zeros((n + 1, 12))
    x_ref[:, 0:3] = target + ks[:, None] * cfg.dt * platform_vel
    anchors = None
    if phase in (LandingPhase.TRACK, LandingPhase.DESCEND):
        anchors = x_ref[:n, 0:3].copy()
    if phase is LandingPhase.DESCEND:
        floor = float(np.asarray(platform_pos, dtype=float)[2]) \
            + thr.hover_clearance
        ramp = target[2] - thr.descent_rate * ks * cfg.dt
        x_ref[:, 2] = np.maximum(ramp, floor) + ks * cfg.dt * platform_vel[2]
    x_ref[:, 3:6] = platform_vel
    x_ref[:, 8] = yaw
    return ReferencePlan(x_ref=x_ref, x_terminal=x_ref[-1].copy(),
                         anchors=anchors)

