import math

import numpy as np
import pytest

from drs_inekf.liegroup import (
    XI_D,
    XI_P,
    XI_R,
    XI_V,
    compose,
    hat,
    inverse,
    sek3_exp,
    sek3_log,
    so3_exp,
)
from drs_inekf.models import (
    E3,
    GRAVITY,
    NoiseParams,
    error_jacobian_A,
    innovation,
    orientation_measurement,
    position_measurement,
    state_transition,
)

from conftest import (
    ImuReading,
    embed,
    fd_error_jacobian,
    fd_measurement_jacobian,
    group_affine_residual,
    identity,
    process_cov,
    process_dynamics,
    random_element,
    random_imu,
)

ZERO = NoiseParams(0, 0, 0, 0, 0, 0)


class TestProcessDynamics:
    def test_static_equilibrium(self):
        x = identity()
        u = ImuReading(0.0, 0.01, np.zeros(3), np.array([0.0, 0.0, 9.81]), np.zeros(3))
        assert np.allclose(process_dynamics(x, u), np.zeros((6, 6)), atol=1e-15)

    def test_free_fall(self, rng):
        x = random_element(rng)
        u = ImuReading(0.0, 0.01, np.zeros(3), np.zeros(3), np.zeros(3))
        d = process_dynamics(x, u)
        assert np.allclose(d[:3, 3], GRAVITY)
        assert np.allclose(d[:3, 4], x.vel)
        assert np.allclose(d[:3, :3], np.zeros((3, 3)))

    def test_matches_independent_construction(self, rng):
        # Oracle: f(X) = X Lambda(u) + C(u), assembled as an embedded product
        # instead of block by block.
        for _ in range(200):
            x = random_element(rng)
            u = random_imu(rng)
            lam = np.zeros((6, 6))
            lam[:3, :3] = hat(u.gyro)
            lam[:3, 3] = u.accel
            lam[3, 4] = 1.0
            const = np.zeros((6, 6))
            const[:3, 3] = GRAVITY
            const[:3, 5] = u.contact_vel
            oracle = embed(x) @ lam + const
            oracle[3:] = 0.0
            assert np.allclose(process_dynamics(x, u), oracle, atol=1e-14)


class TestGroupAffine:
    def test_identity_pair_is_exactly_zero(self, rng):
        u = random_imu(rng)
        assert group_affine_residual(identity(), identity(), u) == 0.0

    def test_residual_over_random_samples(self, rng):
        worst = max(
            group_affine_residual(random_element(rng), random_element(rng),
                                  random_imu(rng))
            for _ in range(1000))
        assert worst <= 1e-9

    def test_mutated_dynamics_fail_the_check(self, rng):
        def corrupted(x, u):
            out = process_dynamics(x, u)
            out[:3, 3] = x.rot @ u.accel * np.linalg.norm(x.vel)
            return out

        residuals = [
            group_affine_residual(random_element(rng), random_element(rng),
                                  random_imu(rng), dynamics=corrupted)
            for _ in range(50)]
        assert min(residuals) > 1e-3


class TestErrorJacobian:
    def test_zero_maps_to_zero(self):
        assert np.allclose(error_jacobian_A() @ np.zeros(12), np.zeros(12))

    def test_structure_has_two_nonzero_blocks(self, rng):
        a = error_jacobian_A()
        expected = np.zeros((12, 12))
        expected[XI_V, XI_R] = hat(GRAVITY)
        expected[XI_P, XI_V] = np.eye(3)
        assert np.array_equal(a, expected)
        # The same structure falls out of the finite-difference flow at the
        # identity with zero contact velocity.
        u = random_imu(rng)
        u = ImuReading(u.t, u.dt, u.gyro, u.accel, np.zeros(3))
        assert np.max(np.abs(fd_error_jacobian(identity(), u) - expected)) < 1e-6

    def test_state_independence_fd_oracle(self, rng):
        a = error_jacobian_A()
        for _ in range(10):
            u = random_imu(rng)
            u = ImuReading(u.t, u.dt, u.gyro, u.accel, np.zeros(3))
            fd = fd_error_jacobian(random_element(rng), u)
            assert np.max(np.abs(fd - a)) < 1e-6

    def test_contact_velocity_coupling_block(self, rng):
        # With a moving contact the exact error dynamics pick up a
        # hat(contact_vel) coupling from xi_R into xi_d, the block the
        # filter's input-free A leaves out; A plus that block reproduces them.
        for _ in range(5):
            u = random_imu(rng)
            fd = fd_error_jacobian(random_element(rng), u)
            exact = error_jacobian_A()
            exact[XI_D, XI_R] = hat(u.contact_vel)
            assert np.max(np.abs(fd - exact)) < 1e-6
            assert np.max(np.abs(fd[XI_D, XI_R] - hat(u.contact_vel))) < 1e-6

    def test_state_transition_is_exact_exponential(self):
        from scipy.linalg import expm

        a = error_jacobian_A()
        for dt in (0.0025, 0.01, 0.1):
            assert np.allclose(state_transition(dt), expm(a * dt), atol=1e-12)


def fd_measurement_jacobian(build_innovation, eps=1e-6):
    h = np.zeros((3, 12))
    for j in range(12):
        xi = np.zeros(12)
        xi[j] = eps
        zp = build_innovation(xi)
        xi[j] = -eps
        zm = build_innovation(xi)
        h[:, j] = (zp - zm) / (2.0 * eps)
    return h


class TestOrientationMeasurement:
    def test_consistent_measurement_has_zero_innovation(self, rng):
        xhat = random_element(rng)
        rs = so3_exp(rng.standard_normal(3))
        m = orientation_measurement(rs, xhat.rot.T @ rs, ZERO)
        assert np.linalg.norm(innovation(m, xhat)) < 1e-14

    def test_unit_norm_vectors(self, rng):
        xhat = random_element(rng)
        rs = so3_exp(rng.standard_normal(3))
        m = orientation_measurement(rs, xhat.rot.T @ rs, ZERO)
        assert abs(np.linalg.norm(m.Y[:3]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(m.b[:3]) - 1.0) < 1e-12
        assert np.allclose(m.Y[3:], 0.0)
        assert np.allclose(m.b[3:], 0.0)

    def test_yaw_invisible_on_level_surface(self, rng):
        # Level surface: a pure yaw error produces exactly zero innovation,
        # for any yaw angle.
        truth = random_element(rng)
        rs = np.eye(3)
        brf = truth.rot.T @ rs
        for yaw_deg in (10.0, 45.0, 90.0):
            yaw = so3_exp(np.array([0.0, 0.0, math.radians(yaw_deg)]))
            xhat = compose(sek3_exp(np.zeros(12)), truth)
            xhat = type(truth)(yaw @ truth.rot, truth.cols)
            m = orientation_measurement(rs, brf, ZERO)
            assert np.linalg.norm(innovation(m, xhat)) < 1e-12

    def test_yaw_visible_on_pitched_surface(self, rng):
        truth = random_element(rng)
        for yaw_deg in (10.0, 45.0, 90.0):
            rs = so3_exp(np.array([0.0, math.radians(3.0), 0.0]))
            brf = truth.rot.T @ rs
            yaw = so3_exp(np.array([0.0, 0.0, math.radians(yaw_deg)]))
            xhat = type(truth)(yaw @ truth.rot, truth.cols)
            m = orientation_measurement(rs, brf, ZERO)
            z = innovation(m, xhat)
            # Direct evaluation with explicit matrices.
            direct = (xhat.rot @ (brf @ E3)) - rs @ E3
            assert np.allclose(z, direct, atol=1e-14)
            assert np.linalg.norm(z) > 1e-4

    def test_jacobian_matches_finite_differences(self, rng):
        noise = ZERO
        for _ in range(30):
            xhat = random_element(rng)
            rs = so3_exp(rng.standard_normal(3) * 0.5)

            def build(xi):
                x_true = compose(sek3_exp(xi), xhat)
                m = orientation_measurement(rs, x_true.rot.T @ rs, noise)
                return innovation(m, xhat)

            m = orientation_measurement(rs, xhat.rot.T @ rs, noise)
            assert np.max(np.abs(fd_measurement_jacobian(build) - m.H)) < 1e-6
            assert np.allclose(m.H[:, 3:], 0.0)

    def test_noise_mapped_through_rotation(self, rng):
        # The body-frame noise mapped into the world frame is R_hat V R_hat^T:
        # for isotropic V = sigma^2 I that is V itself, whatever the estimate,
        # so the measurement holds sigma^2 alone.
        xhat = random_element(rng)
        noise = NoiseParams(surface_orient_var=1e-3)
        m = orientation_measurement(np.eye(3), xhat.rot.T, noise)
        assert np.allclose(m.var * np.eye(3), xhat.rot @ (1e-3 * np.eye(3)) @ xhat.rot.T)


class TestPositionMeasurement:
    def test_consistent_measurement_has_zero_innovation(self, rng):
        xhat = random_element(rng)
        hp = xhat.rot.T @ (xhat.foot - xhat.pos)
        m = position_measurement(hp, ZERO)
        assert np.linalg.norm(innovation(m, xhat)) < 1e-13

    def test_augmentation_pattern(self, rng):
        m = position_measurement(np.zeros(3), ZERO)
        assert np.allclose(m.Y[3:], [0.0, 1.0, -1.0])
        assert np.allclose(m.b[3:], [0.0, 1.0, -1.0])

    def test_position_offset_innovation(self, rng):
        # Estimate position off by +0.1 in x, everything else exact:
        # z = R_hat hp + p_hat - d_hat picks up exactly that offset.
        truth = random_element(rng)
        cols = truth.cols.copy()
        cols[:, 1] = truth.pos + np.array([0.1, 0.0, 0.0])
        xhat = type(truth)(truth.rot, cols)
        hp = truth.rot.T @ (truth.foot - truth.pos)
        m = position_measurement(hp, ZERO)
        z = innovation(m, xhat)
        assert np.allclose(z, [0.1, 0.0, 0.0], atol=1e-12)
        # ... and H maps the corresponding error to the same innovation.
        xi = sek3_log(compose(truth, inverse(xhat)))
        assert np.allclose(m.H @ xi, z, atol=1e-8)

    def test_jacobian_matches_finite_differences(self, rng):
        noise = ZERO
        for _ in range(30):
            xhat = random_element(rng)

            def build(xi):
                x_true = compose(sek3_exp(xi), xhat)
                hp = x_true.rot.T @ (x_true.foot - x_true.pos)
                m = position_measurement(hp, noise)
                return innovation(m, xhat)

            m = position_measurement(np.zeros(3), noise)
            assert np.max(np.abs(fd_measurement_jacobian(build) - m.H)) < 1e-6

    def test_jacobian_blocks(self, rng):
        m = position_measurement(np.zeros(3), ZERO)
        assert np.allclose(m.H[:, XI_P], -np.eye(3))
        assert np.allclose(m.H[:, XI_D], np.eye(3))
        assert np.allclose(m.H[:, XI_R], 0.0)
        assert np.allclose(m.H[:, XI_V], 0.0)


class TestNoiseParams:
    def test_validate_accepts_defaults(self):
        assert NoiseParams().gyro_density == 1e-5
        assert ZERO == NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_validate_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="accel_density: must be >= 0"):
            NoiseParams(accel_density=-1)

    def test_process_cov_layout(self):
        # The Qc layout of the generic propagation oracle (conftest).
        n = NoiseParams(gyro_density=1.0, accel_density=2.0,
                                      contact_vel_density=3.0)
        qc = process_cov(n)
        assert np.allclose(qc[XI_R, XI_R], np.eye(3))
        assert np.allclose(qc[XI_V, XI_V], 2.0 * np.eye(3))
        assert np.allclose(qc[XI_P, XI_P], 0.0)
        assert np.allclose(qc[XI_D, XI_D], 3.0 * np.eye(3))
