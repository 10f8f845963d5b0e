"""Barrier-function checks, including the recursive safety property the
whole obstacle-avoidance scheme rests on."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landersim.cbf import (
    CbfConfig,
    ObstacleSpec,
    barrier_value,
    barrier_values_all,
    cbf_residual,
    decay_envelope,
)
from landersim.dynamics import QuadrotorParams
from landersim.ocp import DecisionVector, NmpcConfig, NmpcSolver, ReferencePlan


def test_barrier_sign_convention():
    ob = ObstacleSpec(center=(1.0, 0.0), radius=0.2, margin=0.3)
    assert ob.r_safe == pytest.approx(0.5)
    assert barrier_value((1.0, 0.0), ob) == pytest.approx(-0.25)     # center
    assert barrier_value((1.5, 0.0), ob) == pytest.approx(0.0)       # boundary
    assert barrier_value((2.0, 0.0), ob) == pytest.approx(0.75)      # outside


def test_barrier_vectorized_shapes():
    ob = ObstacleSpec(center=(0.0, 0.0), radius=0.1, margin=0.2)
    pts = np.zeros((5, 2))
    pts[:, 0] = np.linspace(0, 2, 5)
    h = barrier_value(pts, ob)
    assert h.shape == (5,)
    assert h[0] == pytest.approx(-0.09)


def test_gradient_matches_fd():
    # the solver linearizes h through 2 * (node - center), the position
    # differences its evaluation carries; check them against h itself
    ob = ObstacleSpec(center=(0.7, -0.4), radius=0.25, margin=0.3)
    cfg = NmpcConfig(n=1)
    solver = NmpcSolver(cfg, CbfConfig(obstacles=[ob]), QuadrotorParams())
    X = np.zeros((2, 12))
    X[:, 0:2] = [[1.3, 0.9], [-0.2, 0.5]]
    z = DecisionVector(X, np.zeros((1, 4))).flatten()
    tr = solver._transcribe(X[0], ReferencePlan(X, X[1]))
    ev = solver._evaluate(z, tr, np.zeros((1, 12)), np.zeros((1, 1)), 1.0,
                          0.0)
    eps = 1e-7
    for k in range(2):
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (barrier_value(X[k, 0:2] + e, ob)
                  - barrier_value(X[k, 0:2] - e, ob)) / (2 * eps)
            assert 2.0 * ev.diff[k, 0, i] == pytest.approx(fd, rel=1e-6)


def test_residual_definition():
    ob = ObstacleSpec(center=(0.0, 0.0), radius=0.2, margin=0.3)
    r = cbf_residual((2.0, 0.0), (1.0, 0.0), ob, gamma=0.4)
    # h_now = 3.75, h_next = 0.75, bound = 0.6 * 3.75 = 2.25
    assert r == pytest.approx(0.75 - 2.25)


def test_config_rejects_bad_gamma():
    with pytest.raises(ValueError):
        CbfConfig(gamma=0.0)
    with pytest.raises(ValueError):
        CbfConfig(gamma=1.5)


def test_min_barrier_over_set():
    cfg = CbfConfig(gamma=0.4, obstacles=[
        ObstacleSpec(center=(1.0, 0.0), radius=0.2),
        ObstacleSpec(center=(-1.0, 0.0), radius=0.2),
    ])
    vals = barrier_values_all(np.array([0.9, 0.0]), cfg)
    assert vals.shape == (1, 2)


@given(st.floats(0.05, 0.95), st.floats(0.01, 10.0),
       st.integers(min_value=1, max_value=60))
def test_envelope_positive_and_decaying(gamma, h0, k):
    env = decay_envelope(h0, gamma, np.arange(k + 1))
    assert np.all(env > 0)
    assert np.all(np.diff(env) <= 0)


class TestRecursiveSafety:
    """If every step satisfies the decay condition with equality or better,
    h stays above the geometric envelope, hence above zero."""

    def test_thousand_random_sequences(self):
        rng = np.random.default_rng(2024)
        ob = ObstacleSpec(center=(0.0, 0.0), radius=0.2, margin=0.3)
        gamma = 0.4
        for _ in range(1000):
            n = rng.integers(5, 40)
            p = rng.uniform(-3, 3, 2)
            while barrier_value(p, ob) <= 0:
                p = rng.uniform(-3, 3, 2)
            h0 = barrier_value(p, ob)
            h = h0
            traj = [h]
            for _ in range(n):
                # move toward the obstacle as aggressively as the decay
                # condition allows, plus random slack
                target = (1 - gamma) * h + rng.uniform(0, 0.5)
                # realize a point with that barrier value along the ray
                d = np.sqrt(target + ob.r_safe ** 2)
                direction = p - np.array(ob.center)
                direction /= np.linalg.norm(direction)
                p = np.array(ob.center) + d * direction
                h_next = barrier_value(p, ob)
                assert cbf_residual is not None
                assert h_next - (1 - gamma) * h >= -1e-12
                h = h_next
                traj.append(h)
            env = decay_envelope(h0, gamma, np.arange(len(traj)))
            assert np.all(np.asarray(traj) >= env - 1e-9)
            assert np.all(np.asarray(traj) > 0)

    @given(st.floats(0.05, 0.95), st.floats(1e-3, 5.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_algebraic_recursion(self, gamma, h0, slacks):
        # h_{k+1} = (1-gamma) h_k + s_k with s_k >= 0 stays above the envelope
        h = h0
        for k, s in enumerate(slacks, start=1):
            h = (1 - gamma) * h + s
            assert h >= decay_envelope(h0, gamma, k) - 1e-12
            assert h > 0
