import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from drs_inekf import sim
from drs_inekf.filter import (
    State,
    StreamEstimator,
    Variant,
    error_vs_truth,
)
from drs_inekf.harness import METRIC_NAMES, metric_rows
from drs_inekf.liegroup import hat, rotation_defect, so3_exp, so3_log
from drs_inekf.models import NoiseParams
from drs_inekf.sim import (
    GaitConfig,
    Rates,
    SurfaceConfig,
    TruthTrajectory,
    generate_truth,
    synthesize_sensors,
)
from drs_inekf.streams import (
    SWAP,
    FkOrientation,
    FkPosition,
    Stream,
    SurfacePose,
    SwapEvent,
    TruthSample,
)

from conftest import (
    ImuReading,
    base_acc,
    foot_vel,
    omega_body,
    one_stream,
    routed,
    stream_at,
    stream_records,
    streams_equal,
    surface_omega,
)

ZERO = NoiseParams(0, 0, 0, 0, 0, 0)


def surface_state(t, cfg):
    """(R_s, omega_s) of the surface at time t, from the truth trajectory."""
    truth = TruthTrajectory(GaitConfig(), cfg, np.zeros(5))
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
        truth = TruthTrajectory(gait, SurfaceConfig(pitch_amplitude=0.0), np.zeros(5))
        d0 = truth.foot_pos(0.0, 0)
        for t in np.linspace(0.0, truth.gait.step_period, 7):
            assert np.allclose(truth.foot_pos(t, 0), d0, atol=1e-15)

    def test_foot_pos_over_arrays_matches_scalar_calls(self, rng):
        # Arrays of times and stance indices of both parities give, bit for
        # bit, what one call per element gives.
        surf = SurfaceConfig(belt_speed=0.15, pivot=(0.3, -0.2, 0.1))
        truth = generate_truth(GaitConfig(), surf, seed=8)
        t = rng.uniform(0.0, 30.0, 40)
        index = rng.integers(0, 50, 40)
        assert set(index % 2) == {0, 1}
        got = truth.foot_pos(t, index)
        want = np.array([truth.foot_pos(float(ti), int(i)) for ti, i in zip(t, index)])
        assert got.shape == (40, 3)
        assert got.tobytes() == want.tobytes()
        assert truth.foot_pos(float(t[0]), int(index[0])).shape == (3,)

    def test_swap_times_grid(self):
        truth = generate_truth(GaitConfig(duration=3.0), SurfaceConfig(), 0)
        stream = one_stream(truth, ZERO, Rates(), 0)
        assert np.allclose(stream.columns["swap"]["t"], [0.6, 1.2, 1.8, 2.4])


class TestSynthesizeSensors:
    def test_deterministic_given_seed(self):
        gait = GaitConfig(duration=1.2)
        noise = NoiseParams(jump_pos_var=1e-6)
        a = one_stream(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 9)
        b = one_stream(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 9)
        c = one_stream(generate_truth(gait, SurfaceConfig(), 1), noise, Rates(), 10)
        assert streams_equal(a, b)
        assert not streams_equal(a, c)

    def test_static_robot_on_level_surface_imu(self):
        gait = GaitConfig(duration=0.6, sway_amplitude=0.0, bob_amplitude=0.0,
                          surge_amplitude=0.0, lean_amplitude_deg=0.0)
        truth = TruthTrajectory(gait, SurfaceConfig(pitch_amplitude=0.0), np.zeros(5))
        records = stream_records(one_stream(truth, ZERO, Rates(), 0))
        imu = [r for r in records if isinstance(r, ImuReading)]
        for u in imu:
            assert np.allclose(u.gyro, 0.0, atol=1e-12)
            assert np.allclose(u.accel, [0.0, 0.0, 9.81], atol=1e-9)
            assert np.allclose(u.contact_vel, 0.0, atol=1e-12)

    def test_swaps_accompanied_by_truth(self):
        truth = generate_truth(GaitConfig(duration=2.4), SurfaceConfig(), 2)
        records = stream_records(one_stream(truth, ZERO, Rates(), 2))
        swap_times = [r.t for r in records if isinstance(r, SwapEvent)]
        truth_times = {r.t for r in records if isinstance(r, TruthSample)}
        assert swap_times == [0.6, 1.2, 1.8]
        assert all(t in truth_times for t in swap_times)

    def test_per_kind_timestamps_strictly_increase(self):
        records = stream_records(one_stream(
            generate_truth(GaitConfig(duration=1.8), SurfaceConfig(), 2),
            NoiseParams(), Rates(), 2))
        last = {}
        for rec in records:
            kind = type(rec).__name__
            if kind in last:
                assert rec.t > last[kind]
            last[kind] = rec.t

    def test_gait_shorter_than_one_step_has_no_swaps(self):
        truth = generate_truth(GaitConfig(duration=0.4), SurfaceConfig(), 4)
        stream = one_stream(truth, NoiseParams(), Rates(), 4)
        assert len(stream.columns["swap"]["t"]) == 0
        assert not np.any(stream.kinds == SWAP)
        assert len(stream.columns["imu"]["t"]) == 160

    def test_tick_alignment_validation(self):
        with pytest.raises(ValueError, match="imu ticks"):
            one_stream(generate_truth(GaitConfig(step_period=0.1234), SurfaceConfig(), 0),
                       ZERO, Rates(), 0)
        with pytest.raises(ValueError, match="kinematics grid"):
            one_stream(generate_truth(GaitConfig(step_period=0.0175), SurfaceConfig(), 0),
                       ZERO, Rates(imu_hz=400, kin_hz=100), 0)

    def test_noise_has_configured_variance(self):
        # One 30 s stream without noise and with six distinct levels, from
        # one seed (so the same normal draws): each field's difference, per
        # axis, is n samples of zero-mean noise of variance v (a density over
        # dt for the imu fields), so sum(x^2) / v ~ chi2(n). The band is
        # two-sided at 1e-6. Each level is 4 times the next, beyond every
        # band, so a field drawn at another's level, or with dt misapplied,
        # falls outside.
        levels = NoiseParams(gyro_density=1e-6, accel_density=4e-6,
                             contact_vel_density=1.6e-5, fk_pos_var=6.4e-5,
                             surface_orient_var=2.56e-4, jump_pos_var=1.024e-3)
        rates = Rates()
        truth = generate_truth(GaitConfig(duration=30.0), SurfaceConfig(), 5)
        clean, noisy = (one_stream(truth, noise, rates, 5).columns
                        for noise in (ZERO, levels))

        def delta(kind, name):
            return noisy[kind][name] - clean[kind][name]

        root_dt = math.sqrt(1.0 / rates.imu_hz)
        samples = {
            "gyro_density": delta("imu", "gyro") * root_dt,
            "accel_density": delta("imu", "accel") * root_dt,
            "contact_vel_density": delta("imu", "contact_vel") * root_dt,
            "fk_pos_var": delta("fk_pos", "hp"),
            "surface_orient_var": so3_log(np.swapaxes(clean["fk_rot"]["rot"], -1, -2)
                                          @ noisy["fk_rot"]["rot"]),
            "jump_pos_var": delta("swap", "h_d"),
        }
        assert [len(x) for x in samples.values()] == [12000] * 3 + [3001] * 2 + [49]
        for name, x in samples.items():
            n = len(x)
            lo, hi = chi2.ppf([0.5e-6, 1.0 - 0.5e-6], n) / n
            ratio = (x * x).mean(axis=0) / getattr(levels, name)
            assert np.all((lo <= ratio) & (ratio <= hi)), (name, ratio, lo, hi)

    def test_noiseless_fk_consistency(self):
        truth = generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 3)
        records = stream_records(one_stream(truth, ZERO, Rates(), 3))
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


class TestStreamsSideBySide:
    """Streams of truths with one gait, written side by side on axis 1."""

    GAIT = GaitConfig(duration=2.4)

    def test_stream_i_is_its_batch_of_one(self):
        # A rocking and a static surface, two seeds each, in a campaign
        # chunk's order: stream i is bit for bit the stream of truth i alone.
        noise = NoiseParams(jump_pos_var=1e-6)
        surfaces = (SurfaceConfig(), SurfaceConfig(pitch_amplitude=0.0))
        truths = [generate_truth(self.GAIT, surf, seed)
                  for surf in surfaces for seed in (3, 4)]
        seeds = [3, 4, 3, 4]
        chunk = synthesize_sensors(truths, noise, Rates(), seeds)
        assert chunk.columns["imu"]["gyro"].shape[1] == len(truths)
        for i, (truth, seed) in enumerate(zip(truths, seeds)):
            assert streams_equal(stream_at(chunk, i), one_stream(truth, noise, Rates(), seed))

    @pytest.mark.parametrize("gait", [GaitConfig(duration=2.4, sway_amplitude=0.05),
                                      GaitConfig(duration=1.2)],
                             ids=["same-layout", "other-layout"])
    def test_second_gait_raises(self, gait):
        truths = [generate_truth(self.GAIT, SurfaceConfig(), 1),
                  generate_truth(gait, SurfaceConfig(), 2)]
        with pytest.raises(ValueError, match="one gait"):
            synthesize_sensors(truths, ZERO, Rates(), [1, 2])

    @pytest.mark.parametrize("seeds", [[], [1], [1, 2, 3]])
    def test_mismatched_lengths_raise(self, seeds):
        truth = generate_truth(self.GAIT, SurfaceConfig(), 1)
        with pytest.raises(ValueError):
            synthesize_sensors([truth, truth], ZERO, Rates(), seeds)

    def test_streams_are_written_one_at_a_time(self):
        # An 8-stream chunk peaks within its columns plus three times one
        # stream's synthesis peak; intermediates of every stream at once
        # would hold eight.
        truths = [generate_truth(self.GAIT, SurfaceConfig(), seed) for seed in range(8)]

        def peak(n):
            tracemalloc.start()
            try:
                stream = synthesize_sensors(truths[:n], NoiseParams(), Rates(), list(range(n)))
                return stream, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, one = peak(1)
        chunk, eight = peak(8)
        columns = sum(col.nbytes for c in chunk.columns.values() for col in c.values())
        assert eight <= columns + 3 * one, (eight, columns, one)

    def test_checks_hold_at_most_two_rotation_columns(self):
        # Building the Stream of an 8-stream x 6 s chunk checks every
        # rotation of the chunk at once; its temporaries peak within twice
        # the truth rotation column (R^T R - I made in place, not copied).
        gait = GaitConfig(duration=6.0)
        stream = synthesize_sensors([generate_truth(gait, SurfaceConfig(), seed)
                                     for seed in range(8)], NoiseParams(), Rates(),
                                    list(range(8)))
        tracemalloc.start()
        try:
            Stream(stream.kinds, stream.columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rot = stream.columns["truth"]["rot"].nbytes
        assert peak <= 2 * rot, (peak, rot)


class TestBlocks:
    """IMU records are synthesized sim._BLOCK intervals at a time."""

    @pytest.mark.parametrize("gait", [GaitConfig(duration=2.4),
                                      GaitConfig(duration=2.4, step_period=0.56)],
                             ids=["swaps-inside-blocks", "swaps-on-block-edges"])
    def test_blocks_of_seven_equal_one_block(self, gait, monkeypatch):
        # 960 intervals are 137 blocks of 7 and one of 1; at a 0.56 s step
        # every swap tick (a multiple of 224) is a block edge. A belt and a
        # pivot move the feet within their stance.
        surf = SurfaceConfig(belt_speed=0.4, pivot=(0.2, -0.1, 0.05))
        truth = generate_truth(gait, surf, 9)

        def columns(block):
            monkeypatch.setattr(sim, "_BLOCK", block)
            stream = synthesize_sensors([truth], NoiseParams(), Rates(), [9])
            return stream.kinds, stream.columns

        (kinds, blocked), (kinds_one, one) = columns(7), columns(960)
        assert kinds.tobytes() == kinds_one.tobytes()
        for kind, c in one.items():
            for name, col in c.items():
                assert blocked[kind][name].tobytes() == col.tobytes(), (kind, name)

    def test_synthesis_peaks_within_three_times_the_stream(self):
        # No intermediate spans the stream: a 30 s stream's synthesis peaks
        # within three times the bytes of its columns (the whole-stream form
        # read 4.6).
        truth = generate_truth(GaitConfig(), SurfaceConfig(), 3)
        tracemalloc.start()
        try:
            stream = synthesize_sensors([truth], NoiseParams(), Rates(), [3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = {id(col): col.nbytes for c in stream.columns.values() for col in c.values()}
        assert peak <= 3 * sum(columns.values()), (peak, sum(columns.values()))


class TestKeystone:
    def test_noiseless_end_to_end_short(self):
        # Abbreviated version of the acceptance keystone: 6 s instead of 30.
        gait = GaitConfig(duration=6.0)
        truth = generate_truth(gait, SurfaceConfig(), seed=11)
        records = stream_records(one_stream(truth, ZERO, Rates(), seed=11))
        first = next(r for r in records if isinstance(r, TruthSample))
        start = State(first.element, np.eye(12) * 1e-4)
        est = StreamEstimator(start, NoiseParams(), (Variant.PROPOSED,))
        worst = 0.0
        terminal = None
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(routed(rec, est.noise))
            else:
                _, xi = error_vs_truth(est.state.mean, rec.element)
                worst = max(worst, float(np.max(np.abs(xi))))
                terminal = xi, dict(zip(METRIC_NAMES, metric_rows(
                    est.state.mean, est.state.cov, rec.element)))
        assert worst < 1e-5
        xi, m = terminal
        assert np.max(np.abs(xi)) < 1e-6
        assert m["pos_err"] < 1e-6 and m["vel_err"] < 1e-6

    def test_position_only_variant_also_consistent(self):
        gait = GaitConfig(duration=3.0)
        truth = generate_truth(gait, SurfaceConfig(), seed=12)
        records = stream_records(one_stream(truth, ZERO, Rates(), seed=12))
        first = next(r for r in records if isinstance(r, TruthSample))
        start = State(first.element, np.eye(12) * 1e-4)
        est = StreamEstimator(start, NoiseParams(), (Variant.POSITION_ONLY,))
        for rec in records:
            if not isinstance(rec, TruthSample):
                est.step(routed(rec, est.noise))
            else:
                _, xi = error_vs_truth(est.state.mean, rec.element)
                assert np.max(np.abs(xi)) < 1e-5
