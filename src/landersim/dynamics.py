"""Quadrotor rigid-body model with ground-effect thrust correction.

State layout, shape (12,):

    [px, py, pz,  vx, vy, vz,  roll, pitch, yaw,  wx, wy, wz]

Position and velocity are world-frame (m, m/s), attitude is ZYX Euler
angles (rad), angular rates are body-frame (rad/s). Controls are the four
per-motor thrusts [u1, u2, u3, u4] in newtons.

Vertical thrust is scaled by a ground-effect multiplier: the
Cheeseman-Bennett factor, capped at k_ge_max, with a smoothstep blend
between the cap and the raw factor so the model is continuously
differentiable in height (see _ground_effect).

All functions here are pure. The model is written once: the batched
variants evaluate it on stacked rows (the optimizer's horizon), and on one
state (12,) the same expressions run on Python floats, bit-identical to a
one-row batch and without numpy's per-call overhead (the RK4 plant, whose
four stages stay on floats, and the solver's exact rollout).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

POS = slice(0, 3)
VEL = slice(3, 6)
ATT = slice(6, 9)
RATE = slice(9, 12)

# margin kept from the pitch/roll singularity of the Euler-rate map
EULER_SINGULARITY_TOL = 1e-9

# height band (m) above the ground-effect saturation height z* over which
# the multiplier blends from k_ge_max into the raw Cheeseman-Bennett factor
GE_BLEND_WIDTH = 0.02


class SimulationFault(RuntimeError):
    """The state left the validity envelope of the model (singular attitude
    or non-finite components). Raised instead of silently clamping."""


@functools.lru_cache(maxsize=8)
def _mix_matrix(lx, ly, kt) -> np.ndarray:
    mixm = np.array([[-ly, ly, ly, -ly],
                     [-lx, lx, -lx, lx],
                     [kt, kt, -kt, -kt]])
    mixm.flags.writeable = False
    return mixm


@dataclass
class QuadrotorParams:
    """Physical parameters of the vehicle.

    J holds the three diagonal inertia entries; the inertia tensor is
    assumed diagonal. eps_ge regularizes the ground-effect denominator and
    k_ge_max caps the multiplier where the raw formula diverges.
    """

    m: float = 1.5
    l_x: float = 0.12
    l_y: float = 0.12
    k_t: float = 0.016
    J: np.ndarray = field(default_factory=lambda: np.array([0.02, 0.02, 0.035]))
    r_rotor: float = 0.12
    eps_ge: float = 0.01
    k_ge_max: float = 1.5
    g: float = 9.81

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        if not (self.m > 0):
            raise ValueError("mass must be positive")
        if self.J.shape != (3,) or not np.all(self.J > 0):
            raise ValueError("J must be three positive diagonal entries")
        if not (self.r_rotor > 0 and self.eps_ge > 0):
            raise ValueError("r_rotor and eps_ge must be positive")
        if not (self.k_ge_max > 1):
            raise ValueError("k_ge_max must exceed 1")

    def mix_matrix(self) -> np.ndarray:
        """Signed torque mixing matrix, rows (roll, pitch, yaw). Built once
        per (l_x, l_y, k_t) and shared, so it is read-only."""
        return _mix_matrix(self.l_x, self.l_y, self.k_t)

    def hover_thrust(self) -> float:
        """Per-motor thrust that balances gravity exactly (no ground effect)."""
        return self.m * self.g / 4.0


def make_state(pos=(0.0, 0.0, 0.0), vel=(0.0, 0.0, 0.0), att=(0.0, 0.0, 0.0),
               rate=(0.0, 0.0, 0.0)) -> np.ndarray:
    x = np.zeros(12)
    x[POS] = pos
    x[VEL] = vel
    x[ATT] = att
    x[RATE] = rate
    return x


def hover_control(params: QuadrotorParams) -> np.ndarray:
    return np.full(4, params.hover_thrust())


def check_state(x):
    """Raise SimulationFault for non-finite components or a singular
    attitude. x is an array or a list of floats."""
    v = x.tolist() if isinstance(x, np.ndarray) else x
    if not all(map(math.isfinite, v)):
        raise SimulationFault("non-finite state component")
    roll, pitch = v[6], v[7]
    lim = math.pi / 2 - EULER_SINGULARITY_TOL
    if abs(roll) >= lim or abs(pitch) >= lim:
        raise SimulationFault(
            f"attitude outside the nonsingular range: roll={roll:.4f}, pitch={pitch:.4f}"
        )


def _ground_effect(z, params: QuadrotorParams, z_surface: float = 0.0,
                   grad: int = 1):
    """Thrust multiplier k_GE in [1, k_ge_max] at heights z above a surface
    at z_surface, and its first grad height derivatives (grad 0, 1 or 2),
    in one pass: k, (k, dk) or (k, dk, d2k). Accepts a float or an array.

    The raw Cheeseman-Bennett factor 1 / (1 - (r / (4 (zr + eps)))^2),
    with zr = max(z - z_surface, 0), reaches k_ge_max at z* and diverges
    below it. Below z* the multiplier is k_ge_max; above z* +
    GE_BLEND_WIDTH it is the raw factor; in between a smoothstep blends
    the two, so k is monotone and continuously differentiable in z. dk is
    zero at and below z* and below the surface.

    The raw factor is written as zp^2 / (zp^2 - (r/4)^2) with zp the
    height over the surface plus eps, clamped to at least z* + eps, where
    the factor is finite and at most k_max, so the pole is never
    evaluated. The blend only runs when some height lies below
    z* + GE_BLEND_WIDTH; above that band it is the identity.

    A Python float height runs the same expressions on floats, the bits of
    the numpy path without its per-call overhead; max and min keep a NaN
    height NaN as np.maximum and np.minimum do, since it comes first.
    """
    k_max, w, eps = params.k_ge_max, GE_BLEND_WIDTH, params.eps_ge
    c2 = (0.25 * params.r_rotor) ** 2
    zs = math.sqrt(c2 * k_max / (k_max - 1.0))      # z* + eps
    one = isinstance(z, float)
    maximum, minimum = (max, min) if one else (np.maximum, np.minimum)
    zp = maximum(z + (eps - z_surface), max(zs, eps))
    zp2 = zp * zp
    den = zp2 - c2
    k = zp2 / den
    if grad:
        den2 = den * den
        dk = (-2.0 * c2) * zp / den2
    if grad > 1:
        d2k = (2.0 * c2) * (3.0 * zp2 + c2) / (den2 * den)
    if (zp if one else zp.min()) < zs + w:
        # t is exactly 0 at and below z* and exactly 1 above the band, so
        # the blend reproduces k_max and the raw factor bit for bit there
        t = minimum((zp - zs) * (1.0 / w), 1.0)
        sig = t * t * (3.0 - 2.0 * t)
        gap = k - k_max
        k = k_max + gap * sig
        if grad > 1:
            # sig' = 6 tt / w; sig'' = 6 (1 - 2t) / w^2 only inside the
            # band, where tt > 0: outside it t is clamped and sig is flat
            tt = t * (1.0 - t)
            d2k = (6.0 / (w * w)) * gap * (1.0 - 2.0 * t) * (tt > 0.0) \
                + (12.0 / w) * dk * tt + d2k * sig
        if grad:
            dk = (6.0 / w) * gap * t * (1.0 - t) + dk * sig
            if zs < eps:
                # the band reaches below the surface, where k is flat in z
                dk = dk * (z >= z_surface)
                if grad > 1:
                    d2k = d2k * (z >= z_surface)
    return (k, dk, d2k) if grad > 1 else (k, dk) if grad else k


def derivative(x: np.ndarray, u: np.ndarray, params: QuadrotorParams,
               z_surface: float = 0.0) -> np.ndarray:
    """Continuous-time state derivative.

    Vertical thrust is scaled by the ground-effect multiplier evaluated at
    the height above z_surface (the landing surface directly beneath the
    vehicle). Raises SimulationFault near the Euler singularity.
    """
    x = np.asarray(x, dtype=float)
    check_state(x)
    return derivative_batch(x, np.asarray(u, dtype=float), params, z_surface)


def derivative_batch(X: np.ndarray, U: np.ndarray, params: QuadrotorParams,
                     z_surface: float = 0.0) -> np.ndarray:
    """Derivative for stacked states (n,12) and controls (n,4), or for one
    state (12,) and control (4,)."""
    return _derivative_batch(X, U, params, z_surface, False)


def derivative_and_jacobians_batch(X: np.ndarray, U: np.ndarray,
                                   params: QuadrotorParams,
                                   z_surface: float = 0.0):
    """derivative_batch and its analytic Jacobians in one pass.

    Returns (f, A, B, Czz) with f (n,12), A (n,12,12) = df/dx, B (n,12,4)
    = df/du and Czz (n,3) = d A[:, 3:6, 2] / dz. The height column
    A[:, 3:6, 2] carries the ground-effect slope: zero at and below the
    saturation height z*, continuous through the blend band. Czz is that
    column's own height derivative, from d2k/dz2: zero where k is
    clamped, large inside the band. The solver's Newton matrix keeps
    its positive part."""
    return _derivative_batch(X, U, params, z_surface, True)


def _derivative_batch(X, U, params: QuadrotorParams, z_surface, jac):
    """derivative_batch, and with jac its Jacobians, from the thrust sums and
    torques of U. One state (12,) runs the model on Python floats."""
    tau = U @ params.mix_matrix().T
    if X.ndim == 1:
        return np.array(_model(X.tolist(), sum(U.tolist()), tau.tolist(),
                               params, z_surface))
    return _model(X, U.sum(axis=1), tau, params, z_surface, jac)


# df/dx: its constant entries, and the entries _model fills per row, in the
# order it lists them, as flat indices into a row's 12 x 12 block
_A0 = np.zeros(144)
_A0[[3, 16, 29, 81]] = 1.0
_A_AT = np.array([(3, 2), (4, 2), (5, 2), (3, 6), (4, 6), (5, 6), (3, 7),
                  (4, 7), (5, 7), (3, 8), (4, 8), (6, 6), (6, 7), (6, 10),
                  (6, 11), (7, 6), (7, 10), (7, 11), (8, 6), (8, 7), (8, 10),
                  (8, 11), (9, 10), (9, 11), (10, 9), (10, 11), (11, 9),
                  (11, 10)]) @ [12, 1]


def _model(x, f_total, tau, params: QuadrotorParams, z_surface, jac=False):
    """The vehicle model, written once: f, and with jac also (A, B, Czz);
    every entry point runs this body, so f has the same bits whoever asks.
    x is one state as a list of Python floats, with its thrust sum f_total
    and torques tau as floats, which skips numpy's per-call dispatch and
    returns f as a list; or stacked rows (n, 12), f_total (n,), tau (n, 3)."""
    one = isinstance(x, list)
    if one:
        _, _, pz, vx, vy, vz, roll, pitch, yaw, wx, wy, wz = x
        cr, cp, cy = math.cos(roll), math.cos(pitch), math.cos(yaw)
        sr, sp, sy = math.sin(roll), math.sin(pitch), math.sin(yaw)
        k_ge = _ground_effect(pz, params, z_surface, grad=0)
        t1, t2, t3 = tau
    else:
        _, _, pz, vx, vy, vz, _, _, _, wx, wy, wz = x.T
        (cr, cp, cy), (sr, sp, sy) = np.cos(x.T[6:9]), np.sin(x.T[6:9])
        k_ge = _ground_effect(pz, params, z_surface, grad=2 * jac)
        if jac:
            k_ge, dk_dz, d2k_dz2 = k_ge
        t1, t2, t3 = tau.T
    tp = sp / cp
    m = params.m
    J1, J2, J3 = params.J.tolist()
    cysp, sysp, srtp, crtp = cy * sp, sy * sp, sr * tp, cr * tp
    srwy, crwz = sr * wy, cr * wz

    # world-frame body-z (thrust) axis for ZYX Euler angles
    ex = cysp * cr + sy * sr
    ey = sysp * cr - cy * sr
    ez = cp * cr
    thrust = f_total * k_ge / m

    rows = [vx, vy, vz, thrust * ex, thrust * ey, thrust * ez - params.g,
            # Euler-rate kinematics
            # [1, sr*tp, cr*tp; 0, cr, -sr; 0, sr/cp, cr/cp] @ w
            wx + srtp * wy + crtp * wz,
            cr * wy - sr * wz,
            (srwy + crwz) / cp,
            (t1 - (J3 - J2) * wy * wz) / J1,
            (t2 - (J1 - J3) * wx * wz) / J2,
            (t3 - (J2 - J1) * wx * wy) / J3]
    if one:
        return rows
    dX = np.empty_like(x)
    dX.T[...] = rows
    if not jac:
        return dX

    # -(a * b) is (-a) * b to the bit, so shared products are negated whole
    n = x.shape[0]
    sec2, q = 1.0 / (cp * cp), srwy + crwz
    E = np.empty((n, 3))        # thrust axis
    E.T[...] = ex, ey, ez
    Czz = (f_total * d2k_dz2 / m)[:, None] * E
    B = np.zeros((n, 12, 4))
    B[:, 3:6, :] = ((k_ge / m)[:, None] * E)[:, :, None]
    B[:, 9:12, :] = params.mix_matrix() / params.J[:, None]
    V = np.array([ex, ey, ez,
                  sy * cr - cysp * sr, -(sysp * sr) - cy * cr, -cp * sr,
                  cy * cp * cr, sy * cp * cr, -sp * cr, cy * sr - sysp * cr,
                  rows[3], crtp * wy - srtp * wz, q * sec2, srtp, crtp,
                  -srwy - crwz, cr, -sr, rows[7] / cp, q * sp * sec2,
                  sr / cp, cr / cp,
                  -(J3 - J2) * wz / J1, -(J3 - J2) * wy / J1,
                  -(J1 - J3) * wz / J2, -(J1 - J3) * wx / J2,
                  -(J2 - J1) * wy / J3, -(J2 - J1) * wx / J3])
    V[:3] *= f_total * dk_dz / m     # A[3:6, 2]
    V[3:10] *= thrust                   # A[3:6, 6:8] and A[3, 8]
    A = np.empty((n, 144))
    A[:] = _A0
    A[:, _A_AT] = V.T
    return dX, A.reshape(n, 12, 12), B, Czz


def euler_step(x: np.ndarray, u: np.ndarray, dt: float, params: QuadrotorParams,
               z_surface: float = 0.0) -> np.ndarray:
    """Single explicit Euler step; the prediction model's discretization."""
    return np.asarray(x, dtype=float) + dt * derivative(x, u, params, z_surface)


def euler_step_batch(X: np.ndarray, U: np.ndarray, dt: float,
                     params: QuadrotorParams, z_surface: float = 0.0) -> np.ndarray:
    """Euler step of stacked states (n,12) or of one state (12,)."""
    return X + dt * derivative_batch(X, U, params, z_surface)


def rk4_step(x: np.ndarray, u: np.ndarray, dt: float, params: QuadrotorParams,
             z_surface: float = 0.0) -> np.ndarray:
    """Classical fourth-order step; used for the simulation plant.

    u is constant over the step, so its thrust sum and torques are formed
    once. The four stages run on Python floats, each stage state checked
    as derivative() checks it, and give the bits of the array form
    x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)."""
    u = np.asarray(u, dtype=float)
    f_total, tau = sum(u.tolist()), (u @ params.mix_matrix().T).tolist()
    x = np.asarray(x, dtype=float).tolist()
    k = []
    for w in (0.0, 0.5 * dt, 0.5 * dt, dt):    # the stage steps c_i dt
        s = [a + w * b for a, b in zip(x, k[-1])] if k else x
        check_state(s)
        k.append(_model(s, f_total, tau, params, z_surface))
    c = dt / 6.0
    return np.array([a + c * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                     for a, k1, k2, k3, k4 in zip(x, *k)])
