"""Model-level checks: mixing, ground effect, derivatives, integrators,
and analytic Jacobians against finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from landersim.dynamics import (
    ATT,
    EULER_SINGULARITY_TOL,
    POS,
    RATE,
    VEL,
    QuadrotorParams,
    SimulationFault,
    _ground_effect,
    check_state,
    derivative,
    derivative_and_jacobians_batch,
    derivative_batch,
    euler_step,
    euler_step_batch,
    hover_control,
    make_state,
    rk4_step,
)


def random_state(rng, z_lo=0.5, z_hi=3.0):
    x = np.empty(12)
    x[POS] = rng.uniform([-2, -2, z_lo], [2, 2, z_hi])
    x[VEL] = rng.uniform(-2.5, 2.5, 3)
    x[ATT] = rng.uniform([-0.55, -0.55, -np.pi], [0.55, 0.55, np.pi])
    x[RATE] = rng.uniform(-2.0, 2.0, 3)
    return x


class TestMix:
    """The mixing matrix maps motor thrusts to body torques; the total
    thrust is their sum."""

    def test_worked_example(self):
        p = QuadrotorParams(l_x=0.1, l_y=0.1, k_t=0.02)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        assert u.sum() == pytest.approx(10.0)
        assert p.mix_matrix() @ u == pytest.approx([0.0, 0.2, -0.08])

    def test_hover_is_torque_free(self):
        p = QuadrotorParams()
        u = hover_control(p)
        assert u.sum() == pytest.approx(p.m * p.g)
        np.testing.assert_allclose(p.mix_matrix() @ u, 0.0, atol=1e-12)

    def test_matrix_is_shared_read_only_and_follows_the_geometry(self):
        p = QuadrotorParams()
        M = p.mix_matrix()
        assert M is QuadrotorParams().mix_matrix()
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        p.l_x = 0.2                     # the params are mutable
        assert p.mix_matrix()[1, 1] == 0.2
        assert M[1, 1] == 0.12

    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, vals, a, b):
        p = QuadrotorParams()
        M = p.mix_matrix()
        u1, u2 = np.array(vals[:4]), np.array(vals[4:])
        u = a * u1 + b * u2
        assert u.sum() == pytest.approx(a * u1.sum() + b * u2.sum(), abs=1e-9)
        np.testing.assert_allclose(M @ u, a * (M @ u1) + b * (M @ u2),
                                   atol=1e-9)


class TestGroundEffect:
    def test_reference_height(self):
        # z_r + eps = 2r, above the blend band: s = 1/8, k = 1 / (1 - 1/64)
        p = QuadrotorParams()
        z = 2.0 * p.r_rotor - p.eps_ge
        assert z > saturation_height(p) + p.r_rotor
        assert _ground_effect(z, p, grad=0) == pytest.approx(64.0 / 63.0)

    def test_clamp_threshold(self):
        # clamp engages where s^2 = 1 - 1/k_max, i.e. z + eps = r*sqrt(3)/4
        p = QuadrotorParams()
        z_star = p.r_rotor * np.sqrt(3.0) / 4.0 - p.eps_ge
        assert _ground_effect(z_star - 1e-9, p, grad=0) == pytest.approx(1.5)
        # the blend leaves the cap with zero slope and curvature, so k
        # falls below it only as (z - z*)^4: visibly 1 mm above z*
        assert _ground_effect(z_star + 1e-3, p, grad=0) < 1.5
        assert _ground_effect(z_star + 1e-3, p, grad=0) == pytest.approx(1.5, abs=1e-3)

    def test_below_surface_clamps_at_zero_height(self):
        p = QuadrotorParams()
        assert _ground_effect(-0.4, p, grad=0) == _ground_effect(0.0, p, grad=0)
        assert _ground_effect(0.0, p, grad=0) == 1.5

    @given(st.floats(min_value=-1.0, max_value=5.0),
           st.floats(min_value=0.05, max_value=0.3))
    def test_bounds_hold_everywhere(self, z, r):
        p = QuadrotorParams(r_rotor=r)
        k = _ground_effect(z, p, grad=0)
        assert 1.0 <= k <= p.k_ge_max

    @given(st.floats(min_value=0.02, max_value=0.4))
    def test_negligible_past_eight_radii(self, r):
        # the raw formula sits within 1e-3 of unity beyond 8 rotor radii
        p = QuadrotorParams(r_rotor=r)
        assert _ground_effect(8.0 * r, p, grad=0) - 1.0 < 1e-3

    def test_monotone_decay(self):
        p = QuadrotorParams()
        z = np.linspace(0.0, 1.5, 400)
        k = _ground_effect(z, p, grad=0)
        assert np.all(np.diff(k) <= 1e-15)

    def test_gradient_matches_fd(self):
        p = QuadrotorParams()
        for z in [0.05, 0.08, 0.2, 0.5, 1.0]:
            h = 1e-7
            fd = (_ground_effect(z + h, p, grad=0)
                  - _ground_effect(z - h, p, grad=0)) / (2 * h)
            assert _ground_effect(z, p)[1] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_gradient_zero_when_clamped(self):
        p = QuadrotorParams()
        assert _ground_effect(0.02, p)[1] == 0.0
        assert _ground_effect(-0.3, p)[1] == 0.0


def saturation_height(p):
    """z* where the raw factor reaches k_ge_max: s^2 = 1 - 1/k_ge_max."""
    return p.r_rotor / (4.0 * np.sqrt(1.0 - 1.0 / p.k_ge_max)) - p.eps_ge


def raw_factor(zp, p):
    """The Cheeseman-Bennett factor and its first two derivatives at zp,
    the height over the surface plus eps, written as _ground_effect
    writes them."""
    c2 = (0.25 * p.r_rotor) ** 2
    zp2 = zp * zp
    den = zp2 - c2
    return (zp2 / den, (-2.0 * c2) * zp / (den * den),
            (2.0 * c2) * (3.0 * zp2 + c2) / (den * den * den))


class TestGroundEffectBlend:
    """The smootherstep band [z*, z* + r_rotor] between the saturated
    multiplier and the raw factor."""

    # the knots are the band's ends, t = 0 and 1
    @pytest.mark.parametrize("knot", [0.0, 1.0])
    def test_value_and_slope_continuous_at_knots(self, knot):
        p = QuadrotorParams()
        z = saturation_height(p) + knot * p.r_rotor
        d = 1e-13
        for a, b in zip(_ground_effect(z + d, p), _ground_effect(z - d, p)):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("knot", [0.0, 1.0])
    def test_curvature_continuous_at_knots(self, knot):
        # C2: the curvature on either side of a knot agrees as the
        # distance shrinks, as value and slope do
        p = QuadrotorParams()
        z = saturation_height(p) + knot * p.r_rotor
        for d in (1e-5, 1e-7, 1e-9):
            a = _ground_effect(z + d, p, grad=2)
            b = _ground_effect(z - d, p, grad=2)
            assert abs(a[0] - b[0]) < 1e2 * d
            assert abs(a[1] - b[1]) < 1e3 * d
            assert abs(a[2] - b[2]) < 1e5 * d

    def test_raw_factor_bit_for_bit_at_and_above_band_top(self):
        # the guard behind the claim that plans above the band fly the
        # same model as before the blend changed: k is the raw factor's to
        # the bit from the band's top up, and so are dk and d2k once past
        # it, alone or in a batch whose other rows open the blend branch,
        # on floats and on arrays. Within an ulp of the top, where t may
        # round below 1, the curvature term 60 s t (t - s) / w^2 is of
        # order 1e-13
        p = QuadrotorParams()
        top = saturation_height(p) + p.r_rotor
        for z_surface in (0.0, 0.3):
            above = z_surface + top + np.array([0.0, 1e-12, 1e-6, 0.01, 0.5,
                                                3.0])
            raw = raw_factor(above + (p.eps_ge - z_surface), p)
            mixed = np.concatenate([above,
                                    z_surface + np.array([0.0, 0.05, 0.1])])
            for got in (_ground_effect(above, p, z_surface, grad=2),
                        [g[:above.size] for g in
                         _ground_effect(mixed, p, z_surface, grad=2)]):
                np.testing.assert_array_equal(got[0], raw[0])
                for a, b in zip(got[1:], raw[1:]):
                    np.testing.assert_array_equal(a[1:], b[1:])
            for z, want in zip(above.tolist(), raw[0].tolist()):
                assert _ground_effect(z, p, z_surface, grad=0) == want

    def test_monotone_and_bounded_through_band(self):
        p = QuadrotorParams()
        z0 = saturation_height(p)
        z = np.linspace(z0 - 0.01, z0 + p.r_rotor + 0.01, 4001)
        k = _ground_effect(z, p, grad=0)
        assert np.all(np.diff(k) <= 0.0)
        assert np.all((k >= 1.0) & (k <= p.k_ge_max))
        assert np.all(_ground_effect(z, p)[1] <= 0.0)

    def test_exact_outside_band(self):
        p = QuadrotorParams()
        z0 = saturation_height(p)
        below = np.array([-0.1, 0.0, 0.5 * z0, z0])
        np.testing.assert_array_equal(_ground_effect(below, p, grad=0),
                                      p.k_ge_max)
        above = z0 + p.r_rotor + np.array([1e-9, 0.01, 0.5])
        raw = 1.0 / (1.0 - (p.r_rotor / (4.0 * (above + p.eps_ge))) ** 2)
        np.testing.assert_allclose(_ground_effect(above, p, grad=0), raw,
                                   rtol=1e-14)

    def test_gradient_matches_fd_inside_band(self):
        p = QuadrotorParams()
        z0 = saturation_height(p)
        z = z0 + p.r_rotor * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        h = 1e-7
        fd = (_ground_effect(z + h, p, grad=0)
              - _ground_effect(z - h, p, grad=0)) / (2 * h)
        np.testing.assert_allclose(_ground_effect(z, p)[1], fd,
                                   rtol=1e-6)

    def test_band_reaching_below_surface(self):
        # a small rotor puts z* below the surface: k stays flat there
        p = QuadrotorParams(r_rotor=0.02)
        assert saturation_height(p) < 0.0
        assert _ground_effect(-0.1, p)[1] == 0.0
        assert _ground_effect(-0.1, p, grad=0) \
            == _ground_effect(0.0, p, grad=0) < p.k_ge_max
        h = 1e-7
        fd = (_ground_effect(0.005 + h, p, grad=0)
              - _ground_effect(0.005 - h, p, grad=0)) / (2 * h)
        assert _ground_effect(0.005, p)[1] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("z_surface", [0.0, 0.3])
    def test_jacobian_height_column_inside_band(self, z_surface):
        p = QuadrotorParams()
        rng = np.random.default_rng(5)
        n = 6
        X = np.stack([random_state(rng) for _ in range(n)])
        X[:, 2] = z_surface + saturation_height(p) \
            + p.r_rotor * np.linspace(0.15, 0.85, n)
        U = rng.uniform(0.5, 7.0, (n, 4))
        _, A, _, _ = derivative_and_jacobians_batch(X, U, p, z_surface)
        h = 1e-7
        e = np.zeros(12)
        e[2] = h
        fd = (derivative_batch(X + e, U, p, z_surface)
              - derivative_batch(X - e, U, p, z_surface)) / (2 * h)
        assert np.all(A[:, 5, 2] < 0.0)
        np.testing.assert_allclose(A[:, 3:6, 2], fd[:, 3:6], rtol=1e-6,
                                   atol=1e-7)

    @staticmethod
    def straddling_heights(p, z_surface):
        """One batch below (clamped), inside and above the band, clear of
        the knots, where the curvature is not smooth."""
        z0 = saturation_height(p)
        return z_surface + np.concatenate([
            [-0.05, 0.0, 0.5 * z0],
            z0 + p.r_rotor * np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
            z0 + p.r_rotor + np.array([3e-3, 0.05, 0.5])])

    @pytest.mark.parametrize("z_surface", [0.0, 0.3])
    def test_curvature_matches_fd_across_band(self, z_surface):
        # evaluated as one batch, so rows above the band see the blend
        # branch that rows inside it open
        p = QuadrotorParams()
        z = self.straddling_heights(p, z_surface)
        _, dk, d2k = _ground_effect(z, p, z_surface, grad=2)
        np.testing.assert_array_equal(dk, _ground_effect(z, p, z_surface)[1])
        h = 1e-6
        fd = (_ground_effect(z + h, p, z_surface)[1]
              - _ground_effect(z - h, p, z_surface)[1]) / (2 * h)
        np.testing.assert_allclose(d2k, fd, rtol=1e-7, atol=1e-9)
        # the band curves less than the raw factor does at z*, so the cap
        # is left no more sharply than the raw factor would leave it
        zs = saturation_height(p) + p.eps_ge
        assert np.abs(d2k[3:8]).max() < raw_factor(zs, p)[2]
        # above the band, the raw factor's curvature bit for bit
        np.testing.assert_array_equal(
            d2k[-3:], _ground_effect(z[-3:], p, z_surface, grad=2)[2])

    def test_curvature_zero_where_clamped(self):
        p = QuadrotorParams()
        z = self.straddling_heights(p, 0.0)[:3]
        assert np.all(_ground_effect(z, p, grad=2)[2] == 0.0)
        small = QuadrotorParams(r_rotor=0.02)    # band below the surface
        z = np.array([-0.1, -1e-3, 0.005])
        d2k = _ground_effect(z, small, grad=2)[2]
        assert np.all(d2k[:2] == 0.0) and d2k[2] != 0.0

    @pytest.mark.parametrize("z_surface", [0.0, 0.3])
    def test_jacobian_height_curvature(self, z_surface):
        p = QuadrotorParams()
        rng = np.random.default_rng(9)
        z = self.straddling_heights(p, z_surface)
        X = np.stack([random_state(rng) for _ in z])
        X[:, 2] = z
        U = rng.uniform(0.5, 7.0, (z.size, 4))
        _, _, _, Czz = derivative_and_jacobians_batch(X, U, p, z_surface)
        h = 1e-6
        e = np.zeros(12)
        e[2] = h
        fd = (derivative_and_jacobians_batch(X + e, U, p, z_surface)[1]
              - derivative_and_jacobians_batch(X - e, U, p, z_surface)[1]
              )[:, 3:6, 2] / (2 * h)
        np.testing.assert_allclose(Czz, fd, rtol=1e-6, atol=1e-6)
        assert np.all(Czz[:3] == 0.0)


class TestDerivative:
    def test_hover_equilibrium(self):
        # exact balance needs the ground-effect gain divided out
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 2.0))
        k = _ground_effect(2.0, p, grad=0)
        dx = derivative(x, hover_control(p) / k, p)
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)

    def test_hover_nearly_balanced_at_altitude(self):
        # at 2 m the residual ground effect is ~2e-4 of gravity
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 2.0))
        dx = derivative(x, hover_control(p), p)
        assert abs(dx[5]) < 3e-3
        np.testing.assert_allclose(np.delete(dx, 5), 0.0, atol=1e-12)

    def test_free_fall(self):
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 2.0))
        dx = derivative(x, np.zeros(4), p)
        expected = np.zeros(12)
        expected[5] = -p.g
        np.testing.assert_allclose(dx, expected, atol=1e-12)

    def test_ground_effect_lifts_hover(self):
        # at z_r + eps = 2r, above the blend band, the multiplier is 64/63,
        # so hover thrust accelerates upward at g/63 = 0.156 m/s^2
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 2.0 * p.r_rotor - p.eps_ge))
        dx = derivative(x, hover_control(p), p, z_surface=0.0)
        assert dx[5] == pytest.approx(p.g / 63.0)
        assert dx[5] == pytest.approx(0.156, abs=1e-3)

    def test_thrust_direction_vertical_at_level_attitude(self):
        # the thrust axis is the acceleration gravity does not explain,
        # scaled by the thrust per unit mass
        p = QuadrotorParams()
        u = hover_control(p)
        for yaw in (0.0, 1.2):      # yaw alone never tilts the thrust axis
            x = make_state(pos=(0, 0, 2), att=(0.0, 0.0, yaw))
            dx = derivative(x, u, p)
            a = u.sum() * _ground_effect(2.0, p, grad=0) / p.m
            axis = (dx[3:6] + np.array([0.0, 0.0, p.g])) / a
            np.testing.assert_allclose(axis, [0, 0, 1], atol=1e-15)

    def test_pitch_tilts_thrust_forward(self):
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 2), att=(0.0, 0.3, 0.0))
        dx = derivative(x, hover_control(p), p)
        assert dx[3] > 0.5          # forward acceleration
        assert dx[5] < 0.0          # reduced vertical support

    def test_batch_matches_scalar(self):
        p = QuadrotorParams()
        rng = np.random.default_rng(3)
        X = np.stack([random_state(rng) for _ in range(7)])
        U = rng.uniform(0.0, 7.5, (7, 4))
        batch = derivative_batch(X, U, p, z_surface=0.1)
        for i in range(7):
            np.testing.assert_allclose(batch[i], derivative(X[i], U[i], p, 0.1),
                                       atol=1e-14)

    def test_singular_attitude_raises(self):
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 1), att=(0.0, np.pi / 2, 0.0))
        with pytest.raises(SimulationFault):
            derivative(x, hover_control(p), p)

    def test_nan_state_raises(self):
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 1))
        x[4] = np.nan
        with pytest.raises(SimulationFault):
            derivative(x, hover_control(p), p)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_state_raises(self, value):
        x = make_state(pos=(0, 0, 1))
        x[10] = value
        with pytest.raises(SimulationFault, match="non-finite"):
            check_state(x)

    @pytest.mark.parametrize("index", [6, 7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_attitude_limit_is_exclusive(self, index, sign):
        lim = np.pi / 2 - EULER_SINGULARITY_TOL
        x = make_state(pos=(0, 0, 1))
        x[index] = sign * np.nextafter(lim, 0.0)     # one ulp inside
        check_state(x)
        x[index] = sign * lim
        with pytest.raises(SimulationFault, match="nonsingular range"):
            check_state(x)


class TestSingleStatePath:
    """A single state runs the model on Python floats; it must give the
    bits of the same state sent as a one-row batch, also inside the
    ground-effect band."""

    def draws(self, z_surface, n=120):
        p = QuadrotorParams()
        rng = np.random.default_rng(int(z_surface * 100) + 17)
        for _ in range(n):
            # heights from just below the surface to past the blend band
            x = random_state(rng, z_surface - 0.02, z_surface + 0.1)
            yield p, x, rng.uniform(0.0, 7.5, 4)

    @pytest.mark.parametrize("z_surface", [0.0, 0.05, 0.3])
    def test_derivative_and_euler_step_match_one_row_batch(self, z_surface):
        for p, x, u in self.draws(z_surface):
            np.testing.assert_array_equal(
                derivative(x, u, p, z_surface),
                derivative_batch(x[None], u[None], p, z_surface)[0])
            np.testing.assert_array_equal(
                euler_step_batch(x, u, 0.1, p, z_surface),
                euler_step_batch(x[None], u[None], 0.1, p, z_surface)[0])

    @pytest.mark.parametrize("z", [np.nan, 0.01, 1.0])
    def test_ground_effect_on_a_float_matches_an_array(self, z):
        # a NaN height (a polish row, which no check_state guards) must
        # stay NaN on floats as through np.maximum
        p = QuadrotorParams()
        k, dk = _ground_effect(z, p)
        assert type(k) is float and type(dk) is float
        np.testing.assert_array_equal([k, dk],
                                      [a[0] for a in _ground_effect(
                                          np.array([z]), p)])
        x = make_state(pos=(0.0, 0.0, z))
        u = np.full(4, 2.0)
        np.testing.assert_array_equal(
            derivative_batch(x, u, p), derivative_batch(x[None], u[None], p)[0])

    @pytest.mark.parametrize("z_surface", [0.0, 0.05, 0.3])
    def test_rk4_matches_one_row_batch_stages(self, z_surface):
        dt = 0.02
        for p, x, u in self.draws(z_surface, n=40):
            def f(y):
                return derivative_batch(y[None], u[None], p, z_surface)[0]
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            want = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.testing.assert_array_equal(rk4_step(x, u, dt, p, z_surface),
                                          want)


class TestIntegrators:
    def test_euler_free_fall_step(self):
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 2.0))
        x1 = euler_step(x, np.zeros(4), 0.1, p)
        assert x1[5] == pytest.approx(-0.981)
        assert x1[2] == pytest.approx(2.0)   # position lags one step

    def test_rk4_ballistic_exact(self):
        # free fall is polynomial in t, so RK4 reproduces it to roundoff
        p = QuadrotorParams()
        x = make_state(pos=(0.0, 0.0, 10.0))
        for _ in range(10):
            x = rk4_step(x, np.zeros(4), 0.1, p)
        assert x[2] == pytest.approx(10.0 - 0.5 * p.g, abs=1e-12)
        assert x[5] == pytest.approx(-p.g, abs=1e-12)

    def test_rk4_checks_every_stage_state(self):
        # the start sits one ulp inside the pitch limit and passes the
        # check; its pitch rate carries only the k2 stage state past it
        p = QuadrotorParams()
        lim = np.pi / 2 - EULER_SINGULARITY_TOL
        x = make_state(pos=(0, 0, 1), att=(0.0, np.nextafter(lim, 0.0), 0.0),
                       rate=(0.0, 1.0, 0.0))
        check_state(x)
        with pytest.raises(SimulationFault, match="nonsingular range"):
            rk4_step(x, hover_control(p), 0.01, p)

    def test_rk4_faults_on_a_non_finite_stage_state(self):
        # a finite start whose gyroscopic term overflows, so the k2 stage
        # state carries an infinite body rate wy
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 1), rate=(1e200, 0.0, 1e200))
        check_state(x)
        with pytest.raises(SimulationFault, match="non-finite"):
            rk4_step(x, hover_control(p), 0.01, p)

    def test_euler_local_error_second_order(self):
        p = QuadrotorParams()
        rng = np.random.default_rng(11)
        x = random_state(rng)
        u = rng.uniform(1.0, 6.0, 4)

        def ref(x0, dt, n):
            y = x0
            for _ in range(n):
                y = rk4_step(y, u, dt / n, p)
            return y

        errs = []
        for dt in (0.08, 0.04):
            truth = ref(x, dt, 64)
            errs.append(np.linalg.norm(euler_step(x, u, dt, p) - truth))
        assert errs[0] / errs[1] > 3.5

    def test_rotational_energy_conserved_torque_free(self):
        # zero torque leaves 0.5 * w^T J w invariant under the gyroscopic terms
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 5), rate=(1.2, -0.8, 2.0))
        u = np.zeros(4)
        e0 = 0.5 * np.dot(p.J, x[RATE] ** 2)
        for _ in range(100):
            x = rk4_step(x, u, 0.01, p)
        e1 = 0.5 * np.dot(p.J, x[RATE] ** 2)
        assert abs(e1 - e0) / e0 < 1e-6

    def test_batch_euler_matches_scalar(self):
        p = QuadrotorParams()
        rng = np.random.default_rng(5)
        X = np.stack([random_state(rng) for _ in range(4)])
        U = rng.uniform(0.0, 7.5, (4, 4))
        batch = euler_step_batch(X, U, 0.1, p, z_surface=0.05)
        for i in range(4):
            np.testing.assert_allclose(batch[i], euler_step(X[i], U[i], 0.1, p, 0.05))


class TestJacobians:
    def fd_jacobians(self, x, u, p, z_surface, h=1e-6):
        A = np.zeros((12, 12))
        for j in range(12):
            e = np.zeros(12)
            e[j] = h
            A[:, j] = (derivative(x + e, u, p, z_surface)
                       - derivative(x - e, u, p, z_surface)) / (2 * h)
        B = np.zeros((12, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            B[:, j] = (derivative(x, u + e, p, z_surface)
                       - derivative(x, u - e, p, z_surface)) / (2 * h)
        return A, B

    @pytest.mark.parametrize("z_surface", [0.0, 0.3])
    def test_matches_finite_differences(self, z_surface):
        p = QuadrotorParams()
        rng = np.random.default_rng(17)
        for _ in range(10):
            # keep clear of the ground-effect clamp kink
            x = random_state(rng, z_lo=z_surface + 0.12, z_hi=z_surface + 2.5)
            u = rng.uniform(0.5, 7.0, 4)
            _, A, B, _ = derivative_and_jacobians_batch(x[None], u[None], p,
                                                        z_surface)
            A_fd, B_fd = self.fd_jacobians(x, u, p, z_surface)
            np.testing.assert_allclose(A[0], A_fd, atol=2e-6)
            np.testing.assert_allclose(B[0], B_fd, atol=2e-6)

    def test_ground_effect_column_active_near_surface(self):
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 0.1))
        u = hover_control(p)
        _, A, _, _ = derivative_and_jacobians_batch(x[None], u[None], p, 0.0)
        A_fd, _ = self.fd_jacobians(x, u, p, 0.0)
        assert A[0, 5, 2] < -1.0    # thrust gain falls off with height
        assert A[0, 5, 2] == pytest.approx(A_fd[5, 2], rel=1e-4)

    def test_ground_effect_column_zero_when_clamped(self):
        p = QuadrotorParams()
        x = make_state(pos=(0, 0, 0.02))
        u = hover_control(p)
        _, A, _, _ = derivative_and_jacobians_batch(x[None], u[None], p, 0.0)
        assert A[0, 5, 2] == 0.0


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QuadrotorParams(m=-1.0)
        with pytest.raises(ValueError):
            QuadrotorParams(J=np.array([0.02, -0.02, 0.035]))
        with pytest.raises(ValueError):
            QuadrotorParams(k_ge_max=0.9)
