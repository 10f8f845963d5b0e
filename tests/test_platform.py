"""Platform motion, phase machine, and reference plan checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landersim.dynamics import make_state
from landersim.ocp import NmpcConfig
from landersim.platform import (
    LandingPhase,
    PhaseThresholds,
    PhaseTracker,
    PlatformModel,
    build_reference_plan,
    descent_reference,
    platform_state_at,
    update_phase,
)


# -- motion models ------------------------------------------------------------


def test_static_platform_never_moves():
    m = PlatformModel(kind="static", p0=(0.5, -0.2, 0.0), top_height=0.3)
    for t in (0.0, 1.7, 42.0):
        p, v = platform_state_at(m, t)
        np.testing.assert_array_equal(p, [0.5, -0.2, 0.3])
        np.testing.assert_array_equal(v, np.zeros(3))


def test_constant_velocity_linear_motion():
    m = PlatformModel(kind="constant_velocity", p0=(0, 0, 0),
                      vel=(1.0, 0.0, 0.0), top_height=0.3)
    p, v = platform_state_at(m, 2.5)
    np.testing.assert_allclose(p, [2.5, 0.0, 0.3])
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.0])


def test_sinusoidal_full_period_returns_start():
    m = PlatformModel(kind="sinusoidal", p0=(1.0, 0.0, 0.0),
                      amplitude=(0.4, 0.0, 0.0), period=4.0, top_height=0.2)
    p, v = platform_state_at(m, m.period)
    p0, v0 = platform_state_at(m, 0.0)
    np.testing.assert_array_equal(p, p0)
    np.testing.assert_array_equal(v, v0)
    np.testing.assert_array_equal(p, [1.0, 0.0, 0.2])


def test_sinusoidal_bit_exact_period_on_dyadic_grid():
    # times and period are dyadic, so t + period is exact and the fmod
    # phase reduction makes the two evaluations bit-identical
    m = PlatformModel(kind="sinusoidal", p0=(0.0, 0.0, 0.0),
                      amplitude=(0.3, 0.1, 0.0), period=2.0, top_height=0.25)
    for k in range(64):
        t = k * 0.25
        pa, va = platform_state_at(m, t)
        pb, vb = platform_state_at(m, t + m.period)
        assert pa.tobytes() == pb.tobytes()
        assert va.tobytes() == vb.tobytes()


@given(st.floats(min_value=0.0, max_value=100.0))
def test_sinusoidal_stays_within_amplitude(t):
    m = PlatformModel(kind="sinusoidal", p0=(0.0, 0.0, 0.0),
                      amplitude=(0.5, 0.2, 0.0), period=3.0, top_height=0.3)
    p, v = platform_state_at(m, t)
    assert abs(p[0]) <= 0.5 + 1e-12
    assert abs(p[1] - 0.0) <= 0.2 + 1e-12
    assert np.linalg.norm(v) <= 2.0 + 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        PlatformModel(kind="teleporting")
    with pytest.raises(ValueError):
        PlatformModel(kind="constant_velocity", vel=(2.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        PlatformModel(top_height=-0.1)
    with pytest.raises(ValueError):
        # peak speed 2*pi*1.0/2.0 > 2 m/s
        PlatformModel(kind="sinusoidal", amplitude=(1.0, 0, 0), period=2.0)


def test_p0_z_pinned_to_top_height():
    m = PlatformModel(kind="static", p0=(0.0, 0.0, 99.0), top_height=0.3)
    assert m.p0[2] == 0.3


# -- phase machine -------------------------------------------------------------


@pytest.fixture
def thr():
    return PhaseThresholds()


def _drone_at(x, y, z, vz=0.0):
    return make_state(pos=(x, y, z), vel=(0.0, 0.0, vz))


def test_scripted_descent_progression(thr):
    # directly above the platform: each call advances one phase at most
    pos = np.array([0.0, 0.0, 0.3])
    vel = np.zeros(3)
    drone = _drone_at(0.0, 0.0, 1.3)
    ph = update_phase(LandingPhase.APPROACH, drone, pos, vel, thr)
    assert ph is LandingPhase.TRACK
    ph = update_phase(ph, drone, pos, vel, thr)      # dwell defaults passed
    assert ph is LandingPhase.DESCEND


def test_track_dwell_is_enforced(thr):
    pos = np.array([0.0, 0.0, 0.3])
    drone = _drone_at(0.0, 0.0, 1.3)
    ph = update_phase(LandingPhase.TRACK, drone, pos, np.zeros(3), thr,
                      within_time=0.3)
    assert ph is LandingPhase.TRACK
    ph = update_phase(LandingPhase.TRACK, drone, pos, np.zeros(3), thr,
                      within_time=0.5)
    assert ph is LandingPhase.DESCEND


def test_descend_abort_regresses_to_track(thr):
    pos = np.array([0.0, 0.0, 0.3])
    drone = _drone_at(1.0, 0.0, 0.8)
    ph = update_phase(LandingPhase.DESCEND, drone, pos, np.zeros(3), thr)
    assert ph is LandingPhase.TRACK


def test_touchdown_window(thr):
    pos = np.array([0.0, 0.0, 0.3])
    good = _drone_at(0.05, 0.0, 0.33, vz=-0.2)
    assert update_phase(LandingPhase.DESCEND, good, pos, np.zeros(3),
                        thr) is LandingPhase.TOUCHDOWN
    slam = _drone_at(0.05, 0.0, 0.33, vz=-0.7)      # sinking too fast
    assert update_phase(LandingPhase.DESCEND, slam, pos, np.zeros(3),
                        thr) is LandingPhase.DESCEND
    rising = _drone_at(0.05, 0.0, 0.33, vz=0.1)
    assert update_phase(LandingPhase.DESCEND, rising, pos, np.zeros(3),
                        thr) is LandingPhase.DESCEND
    wide = _drone_at(0.2, 0.0, 0.33, vz=-0.2)       # off-center
    assert update_phase(LandingPhase.DESCEND, wide, pos, np.zeros(3),
                        thr) is LandingPhase.DESCEND


def test_touchdown_relative_to_moving_platform(thr):
    # platform descending at 0.3 m/s; drone sinking at 0.5 m/s closes at
    # only 0.2 m/s relative, inside the window
    pos = np.array([0.0, 0.0, 0.3])
    vel = np.array([0.0, 0.0, -0.3])
    drone = _drone_at(0.0, 0.0, 0.33, vz=-0.5)
    assert update_phase(LandingPhase.DESCEND, drone, pos, vel,
                        thr) is LandingPhase.TOUCHDOWN


def test_landed_is_absorbing(thr):
    drone = _drone_at(5.0, 5.0, 5.0)
    ph = update_phase(LandingPhase.LANDED, drone, np.zeros(3), np.zeros(3),
                      thr)
    assert ph is LandingPhase.LANDED
    ph = update_phase(LandingPhase.TOUCHDOWN, drone, np.zeros(3), np.zeros(3),
                      thr)
    assert ph is LandingPhase.LANDED


def test_tracker_accumulates_dwell(thr):
    tracker = PhaseTracker(thresholds=thr, dt=0.1,
                           phase=LandingPhase.TRACK)
    pos = np.array([0.0, 0.0, 0.3])
    drone = _drone_at(0.0, 0.0, 1.3)
    phases = [tracker.step(drone, pos, np.zeros(3)) for _ in range(6)]
    # needs 5 steps inside the radius to accumulate the 0.5 s dwell
    assert phases[:4] == [LandingPhase.TRACK] * 4
    assert phases[4] is LandingPhase.DESCEND


def test_tracker_dwell_resets_outside_radius(thr):
    tracker = PhaseTracker(thresholds=thr, dt=0.1,
                           phase=LandingPhase.TRACK)
    pos = np.array([0.0, 0.0, 0.3])
    inside = _drone_at(0.0, 0.0, 1.3)
    outside = _drone_at(0.2, 0.0, 1.3)
    for _ in range(4):
        tracker.step(inside, pos, np.zeros(3))
    tracker.step(outside, pos, np.zeros(3))
    assert tracker.within_time == 0.0
    assert tracker.phase is LandingPhase.TRACK


def test_tracker_descend_clock(thr):
    tracker = PhaseTracker(thresholds=thr, dt=0.1,
                           phase=LandingPhase.DESCEND)
    pos = np.array([0.0, 0.0, 0.3])
    drone = _drone_at(0.0, 0.0, 1.0)
    for _ in range(5):
        tracker.step(drone, pos, np.zeros(3))
    assert tracker.time_in_descend == pytest.approx(0.5)


# -- references ----------------------------------------------------------------


def test_descent_reference_track_altitude(thr):
    pos = np.array([0.4, -0.1, 0.3])
    tgt = descent_reference(LandingPhase.TRACK, pos, thr)
    np.testing.assert_allclose(tgt, [0.4, -0.1, 1.3])


def test_descent_reference_ramp(thr):
    pos = np.array([0.0, 0.0, 0.3])
    tgt = descent_reference(LandingPhase.DESCEND, pos, thr,
                            time_in_descend=1.0)
    assert tgt[2] == pytest.approx(0.9)      # 1.3 minus 0.4 m/s * 1 s


def test_descent_reference_ramp_floor(thr):
    pos = np.array([0.0, 0.0, 0.3])
    tgt = descent_reference(LandingPhase.DESCEND, pos, thr,
                            time_in_descend=60.0)
    assert tgt[2] == pytest.approx(0.32)     # clamped at hover clearance


def test_descent_reference_landed_is_surface_point(thr):
    pos = np.array([0.7, 0.2, 0.25])
    np.testing.assert_array_equal(
        descent_reference(LandingPhase.LANDED, pos, thr), pos)


def test_descent_reference_nonincreasing_during_descent(thr):
    pos = np.array([0.0, 0.0, 0.3])
    ts = np.linspace(0.0, 5.0, 60)
    zs = [descent_reference(LandingPhase.DESCEND, pos, thr, t)[2]
          for t in ts]
    assert all(b <= a + 1e-12 for a, b in zip(zs, zs[1:]))


def test_reference_plan_static_track(thr):
    cfg = NmpcConfig()
    pos = np.array([0.5, 0.0, 0.3])
    plan = build_reference_plan(LandingPhase.TRACK, pos, np.zeros(3), 0.0,
                                cfg, thr)
    assert plan.x_ref.shape == (cfg.n + 1, 12)
    np.testing.assert_allclose(plan.x_ref[:, 0], 0.5)
    np.testing.assert_allclose(plan.x_ref[:, 2], 1.3)
    np.testing.assert_array_equal(plan.anchors,
                                  np.tile([0.5, 0.0, 1.3], (cfg.n, 1)))


def test_reference_plan_chases_moving_platform(thr):
    cfg = NmpcConfig()
    pos = np.array([0.0, 0.0, 0.3])
    vel = np.array([1.0, 0.0, 0.0])
    plan = build_reference_plan(LandingPhase.TRACK, pos, vel, 0.3, cfg, thr)
    np.testing.assert_allclose(plan.x_ref[:, 0],
                               np.arange(cfg.n + 1) * cfg.dt)
    np.testing.assert_allclose(plan.x_ref[:, 3], 1.0)
    np.testing.assert_allclose(plan.x_ref[:, 8], 0.3)
    # the anchors chase the phase target at the platform velocity, bit for
    # bit target + k dt v
    target = np.array([0.0, 0.0, 1.3])
    want = np.array([target + k * cfg.dt * vel for k in range(cfg.n)])
    assert plan.anchors.tobytes() == want.tobytes()


def test_reference_plan_descend_ramps_over_horizon(thr):
    cfg = NmpcConfig()
    pos = np.array([0.0, 0.0, 0.3])
    plan = build_reference_plan(LandingPhase.DESCEND, pos, np.zeros(3), 0.0,
                                cfg, thr, time_in_descend=0.5)
    z = plan.x_ref[:, 2]
    assert z[0] == pytest.approx(1.1)
    assert np.all(np.diff(z) <= 1e-12)
    assert z[-1] == pytest.approx(1.1 - 0.4 * cfg.n * cfg.dt)
    # the anchors keep the unramped phase target, height included
    target = descent_reference(LandingPhase.DESCEND, pos, thr, 0.5)
    assert plan.anchors.tobytes() == np.tile(target, (cfg.n, 1)).tobytes()
    assert np.all(plan.anchors[1:, 2] > z[1:cfg.n])


def test_reference_plan_approach_not_tracking(thr):
    cfg = NmpcConfig()
    plan = build_reference_plan(LandingPhase.APPROACH,
                                np.array([0.0, 0.0, 0.3]), np.zeros(3), 0.0,
                                cfg, thr)
    assert plan.anchors is None

