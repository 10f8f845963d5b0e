"""Reference evaluations the tests check the solver against. They read
only the transcription's box bounds, the configuration, the decision
layout, the Euler model and the barrier value, never the solver's own
evaluation. The package never imports this module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from landersim.cbf import CbfConfig, ObstacleSpec, barrier_value
from landersim.dynamics import QuadrotorParams, euler_step_batch
from landersim.ocp import _X_MAX, _X_MIN, DecisionVector, NmpcConfig


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


def constraint_eval(decision: DecisionVector, x_init, cfg: NmpcConfig,
                    cbf_cfg: CbfConfig, params: QuadrotorParams,
                    z_surface: float = 0.0) -> ConstraintBundle:
    """Evaluate all constraints at a decision vector (raw, untightened).

    Written independently of the solver's own evaluation, so it serves as
    the reference its reported defect norm and barrier residual are
    checked against."""
    X, U = decision.states, decision.controls
    n = U.shape[0]
    pred = euler_step_batch(X[:n], U, cfg.dt, params, z_surface)
    defects = X[1:] - pred

    if cbf_cfg.obstacles:
        res = np.empty((n, len(cbf_cfg.obstacles)))
        for j, ob in enumerate(cbf_cfg.obstacles):
            h = barrier_value(X[:, 0:2], ob)
            res[:, j] = h[1:] - (1.0 - cbf_cfg.gamma) * h[:n]
    else:
        res = np.zeros((n, 0))

    lo = np.maximum(_X_MIN - X[1:], 0.0).max() if n else 0.0
    hi = np.maximum(X[1:] - _X_MAX, 0.0).max() if n else 0.0
    ulo = np.maximum(cfg.u_min - U, 0.0).max()
    uhi = np.maximum(U - cfg.u_max, 0.0).max()
    return ConstraintBundle(
        defects=defects,
        cbf_residuals=res,
        pin_residual=X[0] - np.asarray(x_init, dtype=float),
        bound_violation=float(max(lo, hi, ulo, uhi)),
    )


def cbf_residual(xy_now, xy_next, obstacle: ObstacleSpec, gamma: float):
    """h(next) - (1 - gamma) * h(now); nonnegative means the step is safe."""
    return barrier_value(xy_next, obstacle) - (1.0 - gamma) * barrier_value(
        xy_now, obstacle)
