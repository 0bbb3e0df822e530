import math

import numpy as np
import pytest

from drs_inekf.filter import (
    FilterConfig,
    State,
    StreamEstimator,
    Variant,
    error_vs_truth,
)
from drs_inekf.liegroup import hat, rotation_defect, so3_exp
from drs_inekf.models import ImuStep, NoiseParams
from drs_inekf.sim import (
    GaitConfig,
    Rates,
    SurfaceConfig,
    TruthTrajectory,
    generate_truth,
    synthesize_sensors,
)
from drs_inekf.streams import (
    FkOrientation,
    FkPosition,
    SurfacePose,
    SwapEvent,
    TruthSample,
)

from conftest import (
    base_acc,
    foot_vel,
    omega_body,
    stream_records,
    streams_equal,
    surface_omega,
)

ZERO = NoiseParams.from_scalars(0, 0, 0, 0, 0, 0)


def surface_state(t, cfg):
    """(R_s, omega_s) of the surface at time t, from the truth trajectory."""
    truth = TruthTrajectory(GaitConfig(), cfg)
    return truth.surface_rot(t), surface_omega(truth, t)


class TestSurfaceState:
    def test_zero_time(self):
        cfg = SurfaceConfig()
        rot, omega = surface_state(0.0, cfg)
        assert np.allclose(rot, np.eye(3))
        assert omega == pytest.approx(
            [0.0, cfg.pitch_amplitude * cfg.pitch_angular_freq, 0.0])

    def test_peak_angle(self):
        cfg = SurfaceConfig()
        t_peak = 1.0 / 3.0  # sin(1.5 pi t) = 1
        rot, omega = surface_state(t_peak, cfg)
        expected = so3_exp(np.array([0.0, math.radians(3.0), 0.0]))
        assert np.allclose(rot, expected, atol=1e-12)
        assert abs(omega[1]) < 1e-12

    def test_rotation_rate_matches_finite_difference(self, rng):
        cfg = SurfaceConfig()
        h = 1e-7
        for _ in range(100):
            t = rng.uniform(0.0, 10.0)
            r0, omega = surface_state(t, cfg)
            r1, _ = surface_state(t + h, cfg)
            fd = (r1 - r0) / h
            assert np.allclose(fd, hat(omega) @ r0, atol=1e-5)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError, match="pitch_amplitude"):
            SurfaceConfig(pitch_amplitude=0.31)


class TestTruthTrajectory:
    def test_velocity_matches_position_finite_difference(self, rng):
        truth = generate_truth(GaitConfig(), SurfaceConfig(), seed=3)
        h = 1e-6
        for _ in range(200):
            t = rng.uniform(0.0, 29.0)
            fd = (truth.base_pos(t + h) - truth.base_pos(t - h)) / (2 * h)
            assert np.linalg.norm(fd - truth.base_vel(t)) < 1e-6

    def test_acceleration_matches_velocity_finite_difference(self, rng):
        truth = generate_truth(GaitConfig(), SurfaceConfig(), seed=3)
        h = 1e-6
        for _ in range(100):
            t = rng.uniform(0.0, 29.0)
            fd = (truth.base_vel(t + h) - truth.base_vel(t - h)) / (2 * h)
            assert np.linalg.norm(fd - base_acc(truth, t)) < 1e-5

    def test_base_rotation_is_orthonormal_with_fixed_heading(self, rng):
        truth = generate_truth(GaitConfig(), SurfaceConfig(), seed=4)
        for t in rng.uniform(0.0, 30.0, 50):
            rot = truth.base_rot(t)
            assert rotation_defect(rot) < 1e-12
            # zero yaw in ZYX decomposition
            assert abs(math.atan2(rot[1, 0], rot[0, 0])) < 1e-12

    def test_omega_body_matches_rotation_finite_difference(self, rng):
        truth = generate_truth(GaitConfig(), SurfaceConfig(), seed=5)
        h = 1e-7
        for _ in range(100):
            t = rng.uniform(0.0, 29.0)
            r0 = truth.base_rot(t)
            fd = (truth.base_rot(t + h) - truth.base_rot(t - h)) / (2 * h)
            omega_world = fd @ r0.T
            body = r0.T @ omega_world @ r0
            assert np.allclose(body, hat(omega_body(truth, t)), atol=1e-5)

    def test_foot_velocity_matches_rigid_surface_motion(self, rng):
        truth = generate_truth(GaitConfig(), SurfaceConfig(belt_speed=0.1), seed=6)
        h = 1e-6
        for _ in range(200):
            t = rng.uniform(0.1, 29.9)
            idx = int(t // truth.gait.step_period)
            fd = (truth.foot_pos(t + h, idx) - truth.foot_pos(t - h, idx)) / (2 * h)
            analytic = foot_vel(truth, t, idx)
            assert np.linalg.norm(fd - analytic) < 1e-6
            # omega x arm + belt decomposition
            arm = truth.foot_pos(t, idx) - truth.surf.pivot_vec
            belt = truth.surface_rot(t) @ np.array([-0.1, 0.0, 0.0])
            assert np.allclose(analytic,
                               np.cross(surface_omega(truth, t), arm) + belt,
                               atol=1e-12)

    def test_stance_foot_rigid_on_surface(self, rng):
        # In surface-local coordinates the anchored foot never moves.
        truth = generate_truth(GaitConfig(), SurfaceConfig(), seed=7)
        idx = 3
        t0 = idx * truth.gait.step_period
        local0 = truth.surface_rot(t0).T @ (truth.foot_pos(t0, idx)
                                            - truth.surf.pivot_vec)
        for t in np.linspace(t0, t0 + truth.gait.step_period, 13):
            local = truth.surface_rot(t).T @ (truth.foot_pos(t, idx)
                                              - truth.surf.pivot_vec)
            assert np.linalg.norm(local - local0) < 1e-12

    def test_static_surface_and_gait_keeps_foot_fixed(self):
        gait = GaitConfig(sway_amplitude=0.0, bob_amplitude=0.0,
                          surge_amplitude=0.0, lean_amplitude_deg=0.0)
        truth = TruthTrajectory(gait, SurfaceConfig(pitch_amplitude=0.0))
        d0 = truth.foot_pos(0.0, 0)
        for t in np.linspace(0.0, truth.gait.step_period, 7):
            assert np.allclose(truth.foot_pos(t, 0), d0, atol=1e-15)

    def test_swap_times_grid(self):
        truth = generate_truth(GaitConfig(duration=3.0), SurfaceConfig(), 0)
        stream = synthesize_sensors(truth, ZERO, Rates(), 0)
        assert np.allclose(stream.columns["swap"]["t"], [0.6, 1.2, 1.8, 2.4])


class TestSynthesizeSensors:
    def test_deterministic_given_seed(self):
        gait = GaitConfig(duration=1.2)
        noise = NoiseParams.from_scalars(jump_pos_var=1e-6)
        a = synthesize_sensors(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 9)
        b = synthesize_sensors(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 9)
        c = synthesize_sensors(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 10)
        assert streams_equal(a, b)
        assert not streams_equal(a, c)

    def test_static_robot_on_level_surface_imu(self):
        gait = GaitConfig(duration=0.6, sway_amplitude=0.0, bob_amplitude=0.0,
                          surge_amplitude=0.0, lean_amplitude_deg=0.0)
        truth = TruthTrajectory(gait, SurfaceConfig(pitch_amplitude=0.0))
        records = stream_records(synthesize_sensors(truth, ZERO, Rates(), 0))
        imu = [r for r in records if isinstance(r, ImuStep)]
        for u in imu:
            assert np.allclose(u.gyro, 0.0, atol=1e-12)
            assert np.allclose(u.accel, [0.0, 0.0, 9.81], atol=1e-9)
            assert np.allclose(u.contact_vel, 0.0, atol=1e-12)

    def test_swaps_accompanied_by_truth(self):
        truth = generate_truth(GaitConfig(duration=2.4), SurfaceConfig(), 2)
        records = stream_records(synthesize_sensors(truth, ZERO, Rates(), 2))
        swap_times = [r.t for r in records if isinstance(r, SwapEvent)]
        truth_times = {r.t for r in records if isinstance(r, TruthSample)}
        assert swap_times == [0.6, 1.2, 1.8]
        assert all(t in truth_times for t in swap_times)

    def test_per_kind_timestamps_strictly_increase(self):
        records = stream_records(synthesize_sensors(
            generate_truth(GaitConfig(duration=1.8), SurfaceConfig(), 2),
            NoiseParams.from_scalars(), Rates(), 2))
        last = {}
        for rec in records:
            kind = type(rec).__name__
            if kind in last:
                assert rec.t > last[kind]
            last[kind] = rec.t

    def test_tick_alignment_validation(self):
        with pytest.raises(ValueError, match="imu ticks"):
            synthesize_sensors(generate_truth(GaitConfig(step_period=0.1234),
                                              SurfaceConfig(), 0),
                               ZERO, Rates(), 0)
        with pytest.raises(ValueError, match="kinematics grid"):
            synthesize_sensors(generate_truth(GaitConfig(step_period=0.0175),
                                              SurfaceConfig(), 0),
                               ZERO, Rates(imu_hz=400, kin_hz=100), 0)

    def test_noiseless_fk_consistency(self):
        truth = generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 3)
        records = stream_records(synthesize_sensors(truth, ZERO, Rates(), 3))
        latest_truth = None
        latest_surface = None
        for rec in records:
            if isinstance(rec, TruthSample):
                latest_truth = rec
            elif isinstance(rec, SurfacePose):
                latest_surface = rec
            elif isinstance(rec, FkPosition):
                x = latest_truth.element
                assert np.allclose(rec.hp, x.rot.T @ (x.foot - x.pos), atol=1e-12)
            elif isinstance(rec, FkOrientation):
                x = latest_truth.element
                assert np.allclose(rec.rot, x.rot.T @ latest_surface.rot, atol=1e-12)


class TestKeystone:
    def test_noiseless_end_to_end_short(self):
        # Abbreviated version of the acceptance keystone: 6 s instead of 30.
        gait = GaitConfig(duration=6.0)
        truth = generate_truth(gait, SurfaceConfig(), seed=11)
        records = stream_records(synthesize_sensors(truth, ZERO, Rates(), seed=11))
        first = next(r for r in records if isinstance(r, TruthSample))
        start = State(first.element, np.eye(12) * 1e-4)
        est = StreamEstimator(start,
                              FilterConfig(noise=NoiseParams.from_scalars()),
                              (Variant.PROPOSED,))
        worst = 0.0
        terminal = None
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(rec)
            else:
                m = error_vs_truth(est.state, rec.element)
                worst = max(worst, float(np.max(np.abs(m.xi))))
                terminal = m
        assert worst < 1e-5
        assert np.max(np.abs(terminal.xi)) < 1e-6
        assert terminal.pos_err < 1e-6 and terminal.vel_err < 1e-6

    def test_position_only_variant_also_consistent(self):
        gait = GaitConfig(duration=3.0)
        truth = generate_truth(gait, SurfaceConfig(), seed=12)
        records = stream_records(synthesize_sensors(truth, ZERO, Rates(), seed=12))
        first = next(r for r in records if isinstance(r, TruthSample))
        start = State(first.element, np.eye(12) * 1e-4)
        est = StreamEstimator(start,
                              FilterConfig(noise=NoiseParams.from_scalars()),
                              (Variant.POSITION_ONLY,))
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(rec)
            else:
                m = error_vs_truth(est.state, rec.element)
                assert np.max(np.abs(m.xi)) < 1e-5
