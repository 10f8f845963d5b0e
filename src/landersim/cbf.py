"""Discrete-time control barrier functions for cylindrical keep-out zones.

Each obstacle is an infinite vertical cylinder. The barrier

    h(x) = (px - cx)^2 + (py - cy)^2 - r_safe^2,   r_safe = radius + margin

is positive outside the inflated cylinder. Safety across one prediction step
is the decay condition

    h(x_next) >= (1 - gamma) * h(x),    gamma in (0, 1]

which, applied recursively, keeps h(x_k) >= (1 - gamma)^k h(x_0): a
trajectory that starts outside the keep-out zone approaches it no faster
than the geometric envelope and never crosses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ObstacleSpec:
    """A vertical cylinder at (cx, cy) with physical radius and an added
    safety margin. The barrier uses the inflated radius."""

    center: tuple
    radius: float
    margin: float = 0.3

    def __post_init__(self):
        self.center = tuple(float(c) for c in self.center)
        if len(self.center) != 2 or not np.all(np.isfinite(self.center)):
            raise ValueError("center must be two finite numbers")
        if not (self.radius >= 0 and self.margin >= 0):
            raise ValueError("radius and margin must be nonnegative")

    @property
    def r_safe(self) -> float:
        return self.radius + self.margin

    def to_dict(self) -> dict:
        return {"center": list(self.center), "radius": self.radius,
                "margin": self.margin}


@dataclass
class CbfConfig:
    """Barrier decay rate and the obstacle set it applies to."""

    gamma: float = 0.4
    obstacles: list = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")

    @property
    def n_obstacles(self) -> int:
        return len(self.obstacles)


def barrier_value(xy, obstacle: ObstacleSpec):
    """h at one or many planar points. xy has shape (2,) or (..., 2)."""
    xy = np.asarray(xy, dtype=float)
    d = xy - np.array(obstacle.center)
    h = (d * d).sum(-1) - obstacle.r_safe ** 2
    if h.ndim == 0:
        return float(h)
    return h


def barrier_values_all(xy, cfg: CbfConfig) -> np.ndarray:
    """h for every obstacle, stacked on a new ... x n_obstacles axis."""
    xy = np.asarray(xy, dtype=float)
    h = np.empty((xy.shape[:-1] or (1,)) + (len(cfg.obstacles),))
    for j, ob in enumerate(cfg.obstacles):
        h[..., j] = barrier_value(xy, ob)
    return h


def decay_envelope(h0: float, gamma: float, k) -> np.ndarray:
    """The guaranteed lower envelope (1 - gamma)^k * h0."""
    return (1.0 - gamma) ** np.asarray(k) * h0
