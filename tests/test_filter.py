import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from drs_inekf import filter as filter_module
from drs_inekf.filter import (
    EPSILON,
    FilterError,
    State,
    StreamEstimator,
    Variant,
    _on_rows,
    apply_jump,
    error_vs_truth,
    propagate,
    update,
)
from drs_inekf.liegroup import (
    XI_V,
    GroupElement,
    adjoint,
    compose,
    inverse,
    project_to_rotation,
    sek3_exp,
    sek3_log,
    so3_exp,
)
from drs_inekf.models import (
    GRAVITY,
    InvariantMeasurement,
    NoiseParams,
    orientation_measurement,
    position_measurement,
)
from drs_inekf.sim import GaitConfig, Rates, SurfaceConfig, generate_truth
from drs_inekf.streams import (
    _FIELDS,
    IMU,
    KINDS,
    TIME_TOL,
    FkOrientation,
    FkPosition,
    Stream,
    SurfacePose,
    SwapEvent,
)

from conftest import (
    ImuReading,
    dense_update,
    embed,
    group_element,
    identity,
    imu_run,
    imu_step,
    one_stream,
    oracle_propagate,
    oracle_run,
    random_element,
    random_imu,
    rk4_flow,
    step_all,
)

ZERO = NoiseParams(0, 0, 0, 0, 0, 0)
PROPOSED = (Variant.PROPOSED,)


def make_state(rng=None, cov_scale=1e-2):
    mean = identity() if rng is None else random_element(rng)
    return State(mean, np.eye(12) * cov_scale)


def static_step(t=0.0, dt=0.0025):
    return ImuReading(t, dt, np.zeros(3), np.array([0.0, 0.0, 9.81]), np.zeros(3))


class TestPropagate:
    def test_static_equilibrium_fixed_point(self):
        s = State(group_element(np.eye(3), np.zeros(3), [0.0, 0.0, 1.0],
                                [0.1, 0.0, 0.0]),
                  np.eye(12) * 1e-4)
        start = s
        for k in range(1000):
            s = propagate(s, imu_run([static_step(k * 0.0025)]), ZERO)
        assert np.linalg.norm(s.mean.rot - start.mean.rot) < 1e-12
        assert np.linalg.norm(s.mean.cols - start.mean.cols) < 1e-12

    def test_free_fall_ballistic(self):
        s = make_state()
        dt = 1.0 / 400.0
        for k in range(400):
            u = ImuReading(k * dt, dt, np.zeros(3), np.zeros(3), np.zeros(3))
            s = propagate(s, imu_run([u]), ZERO)
        assert np.linalg.norm(s.mean.vel - GRAVITY) < 1e-6
        assert np.linalg.norm(s.mean.pos - 0.5 * GRAVITY) < 1e-6

    def test_mean_matches_fine_rk4_oracle(self, rng):
        s = make_state(rng)
        x_oracle = s.mean
        for k in range(50):
            u = random_imu(rng, t=k * 0.0025)
            s = propagate(s, imu_run([u]), ZERO)
            x_oracle = rk4_flow(x_oracle, u, u.dt, substeps=10)
        assert np.linalg.norm(embed(s.mean) - embed(x_oracle)) < 1e-8

    def test_covariance_grows_with_noise(self, rng):
        s = make_state(rng)
        s2 = propagate(s, imu_run([random_imu(rng)]), NoiseParams())
        assert np.trace(s2.cov) > np.trace(s.cov)
        assert np.array_equal(s2.cov, s2.cov.T)


def simple_measurement(z_target):
    """Measurement on the velocity block with identity-at-origin innovation z."""
    h = np.zeros((3, 12))
    h[:, 3:6] = np.eye(3)
    return InvariantMeasurement(z_target, np.zeros(3), np.zeros(3), h, 1.0, XI_V)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def assert_states_close(got, want, tol=1e-12):
    assert rel_err(got.mean.rot, want.mean.rot) <= tol
    assert rel_err(got.mean.cols, want.mean.cols) <= tol
    assert rel_err(got.cov, want.cov) <= tol


class TestPropagateRun:
    """A run of n intervals in one call equals n one-interval calls."""

    def one_by_one(self, s, steps, noise):
        for u in steps:
            s = propagate(s, imu_run([u]), noise)
        return s

    def test_unequal_intervals(self, rng):
        noise = NoiseParams()
        s, t, steps = make_state(rng), 0.0, []
        for dt in (0.0025, 0.001, 0.004, 0.0025, 0.0137):
            steps.append(random_imu(rng, t=t, dt=dt))
            t += dt
        assert_states_close(propagate(s, imu_run(steps), noise),
                            self.one_by_one(s, steps, noise))

    def test_run_that_reprojects_the_rotation(self, rng, monkeypatch):
        calls = []

        def counted(rot):
            calls.append(1)
            return project_to_rotation(rot)

        monkeypatch.setattr(filter_module, "project_to_rotation", counted)
        noise = NoiseParams()
        s = make_state(rng)
        drifted = GroupElement(s.mean.rot * (1.0 + 1e-8), s.mean.cols)
        s = State(drifted, s.cov)
        steps = [random_imu(rng, t=k * 0.0025) for k in range(4)]
        run = propagate(s, imu_run(steps), noise)
        assert calls
        assert_states_close(run, self.one_by_one(s, steps, noise))

    def test_batched_state(self, rng):
        # Batch axes (variant, stream) = (2, 3); the inputs carry the stream axis.
        noise = NoiseParams()
        means = [random_element(rng) for _ in range(6)]
        rot = np.array([m.rot for m in means]).reshape(2, 3, 3, 3)
        cols = np.array([m.cols for m in means]).reshape(2, 3, 3, 3)
        cov = np.array([np.eye(12) * c for c in rng.uniform(0.01, 0.1, 6)])
        s = State(GroupElement(rot, cols), cov.reshape(2, 3, 12, 12))
        steps = [ImuReading(k * 0.0025, 0.0025, rng.standard_normal((3, 3)),
                            rng.standard_normal((3, 3)) * 3.0,
                            rng.standard_normal((3, 3)) * 0.3) for k in range(6)]
        run = propagate(s, imu_run(steps), noise)
        assert run.cov.shape == (2, 3, 12, 12)
        assert_states_close(run, self.one_by_one(s, steps, noise))


def imu_only_stream(dt, gyro, accel, contact_vel):
    """A stream of imu records only, from t = 0; values may carry a stream axis."""
    columns = {kind: {name: np.zeros((0,) + shape) for name, shape in fields.items()}
               for kind, fields in _FIELDS.items()}
    columns["imu"] = {"t": np.concatenate([[0.0], np.cumsum(dt)[:-1]]), "dt": dt,
                      "gyro": gyro, "accel": accel, "contact_vel": contact_vel}
    return Stream(np.full(len(dt), IMU, dtype=np.int8), columns)


class TestClosedFormRun:
    """A run's closed-form step against the generic per-interval forms.

    The state has batch axes (2, 3), the inputs the stream axis of length 3
    and unequal dt. Row 0 starts from a zero covariance, so its covariance
    is the noise term alone; row 1 from a random one.
    """

    def batch(self, rng, n):
        dt = rng.uniform(0.001, 0.006, n)
        inputs = [rng.standard_normal((n, 3, 3)) * scale for scale in (1.0, 3.0, 0.3)]
        members = [[random_element(rng) for _ in range(3)] for _ in range(2)]
        a = rng.standard_normal((3, 12, 12))
        cov = np.stack([np.zeros((3, 12, 12)), a @ a.transpose(0, 2, 1) / 12.0])
        s = State(GroupElement(np.array([[m.rot for m in row] for row in members]),
                               np.array([[m.cols for m in row] for row in members])), cov)
        return s, dt, inputs, members

    @staticmethod
    def member_steps(dt, inputs, j):
        t = np.concatenate([[0.0], np.cumsum(dt)[:-1]])
        return [ImuReading(t[k], dt[k], *(x[k, j] for x in inputs))
                for k in range(len(dt))]

    @pytest.mark.parametrize("n", [1, 4, 600])
    def test_matches_generic_oracle(self, rng, n, monkeypatch):
        # One propagate call, and the fold of an imu-only stream: its one
        # run of 600 records is folded as runs of _TERMS_BLOCK and the rest.
        noise = NoiseParams()
        s, dt, inputs, members = self.batch(rng, n)
        stepped = propagate(s, imu_step(dt, *inputs), noise)
        calls = []
        monkeypatch.setattr(filter_module, "propagate",
                            lambda *args: calls.append(1) or propagate(*args))
        est = StreamEstimator(s, noise, (Variant.PROPOSED, Variant.POSITION_ONLY))
        assert list(est.fold(imu_only_stream(dt, *inputs))) == []
        assert len(calls) == -(-n // filter_module._TERMS_BLOCK)
        for i, j in np.ndindex(2, 3):
            mean, cov = oracle_run(members[i][j], s.cov[i, j],
                                   self.member_steps(dt, inputs, j), noise)
            for got in (stepped, est.state):
                assert rel_err(got.cov[i, j], cov) <= 1e-12
                assert rel_err(got.mean.rot[i, j], mean.rot) <= 1e-12
                assert rel_err(got.mean.cols[i, j], mean.cols) <= 1e-12

    def test_mean_tick_by_tick(self, rng):
        # Each prefix of a run of 40 intervals, composed in one step, gives
        # the mean that oracle_propagate reaches tick by tick.
        noise = NoiseParams()
        s, dt, inputs, members = self.batch(rng, 40)
        for i, j in np.ndindex(2, 3):
            mean = members[i][j]
            for k, u in enumerate(self.member_steps(dt, inputs, j), start=1):
                mean, _ = oracle_propagate(mean, np.eye(12), u, noise)
                got = propagate(s, imu_step(dt[:k], *(x[:k] for x in inputs)), noise).mean
                assert rel_err(got.rot[i, j], mean.rot) <= 1e-12
                assert rel_err(got.cols[i, j], mean.cols) <= 1e-12

    def test_forms_no_adjoint(self, rng, monkeypatch):
        def refused(x):
            raise AssertionError("adjoint called")

        monkeypatch.setattr(filter_module, "adjoint", refused)
        s, dt, inputs, _ = self.batch(rng, 4)
        propagate(s, imu_step(dt, *inputs), NoiseParams())


class TestUpdate:
    def test_zero_innovation_keeps_mean_and_shrinks_cov(self, rng):
        xhat = random_element(rng)
        hp = xhat.rot.T @ (xhat.foot - xhat.pos)
        m = position_measurement(hp, NoiseParams())
        s = State(xhat, np.eye(12) * 0.1)
        s2 = update(s, m, 1e-9)
        assert np.linalg.norm(embed(s2.mean) - embed(xhat)) < 1e-12
        assert np.trace(s2.cov) < np.trace(s.cov)

    def test_scalar_slice_matches_textbook_gain(self):
        # 1-D analogue: P = 1, N = 1, H = 1, z = 1 gives K = 0.5.
        s = State(identity(), np.eye(12))
        s2 = update(s, simple_measurement(np.array([1.0, 0.0, 0.0])), 1e-15)
        assert abs(s2.mean.vel[0] - 0.5) < 1e-9
        assert abs(s2.cov[3, 3] - 0.5) < 1e-9

    def test_matches_information_form_oracle(self, rng):
        # Full 12-D update against an independently coded information-filter
        # step (inverse-covariance composition).
        for _ in range(20):
            xhat = random_element(rng)
            a = rng.standard_normal((12, 12))
            cov = a @ a.T / 12.0 + 0.1 * np.eye(12)
            h = rng.standard_normal((3, 12))
            var = 0.5 + rng.uniform(0.0, 2.0)
            n_cov = var * np.eye(3)
            y = np.concatenate([rng.standard_normal(3), [0.0, 1.0, -1.0]])
            bvec = np.concatenate([rng.standard_normal(3), [0.0, 1.0, -1.0]])
            m = InvariantMeasurement(y[:3], y[3:], bvec[:3], h, var, slice(0, 12))
            s = State(xhat, cov)
            eps = 1e-15

            s2 = update(s, m, eps)

            z = xhat.rot @ y[:3] + xhat.cols @ y[3:] - bvec[:3]
            info = np.linalg.inv(cov) + h.T @ np.linalg.inv(n_cov) @ h
            cov_oracle = np.linalg.inv(info)
            delta = cov_oracle @ h.T @ np.linalg.inv(n_cov) @ z
            mean_oracle = compose(sek3_exp(delta), xhat)
            assert np.linalg.norm(s2.cov - cov_oracle) < 1e-9
            assert np.linalg.norm(embed(s2.mean) - embed(mean_oracle)) < 1e-9

    def test_huge_noise_leaves_mean_unchanged(self, rng):
        xhat = random_element(rng)
        m = simple_measurement(np.array([1.0, -2.0, 0.5]))
        m = dataclasses.replace(m, var=1e12)
        s = State(xhat, np.eye(12))
        s2 = update(s, m, 1e-9)
        assert np.linalg.norm(embed(s2.mean) - embed(xhat)) < 1e-6

    def test_degenerate_innovation_covariance_raises(self):
        m = InvariantMeasurement(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((3, 12)),
                                 0.0, slice(0, 12))
        s = State(identity(), np.eye(12))
        with pytest.raises(FilterError):
            update(s, m, 0.0)

    def test_covariance_stays_symmetric_psd(self, rng):
        s = State(random_element(rng), np.eye(12) * 0.5)
        for _ in range(50):
            hp = s.mean.rot.T @ (s.mean.foot - s.mean.pos) + rng.standard_normal(3) * 0.01
            m = position_measurement(hp, NoiseParams())
            s = update(s, m, 1e-9)
            assert np.array_equal(s.cov, s.cov.T)
            assert np.min(np.linalg.eigvalsh(s.cov)) > -1e-10


class TestDenseJacobianOracle:
    # update reads only the columns m.cols where H is nonzero and the
    # innovation's 3-vectors; the products it leaves out are exact zeros, so
    # it equals the dense formulas (conftest.dense_update) bit for bit, at
    # every batch shape and on the row slice an orientation update takes.
    @staticmethod
    def state(rng, shape):
        means = [random_element(rng) for _ in range(int(np.prod(shape)))]
        a = rng.standard_normal(shape + (12, 12))
        cov = a @ np.swapaxes(a, -1, -2) / 12.0 + 0.1 * np.eye(12)
        return State(GroupElement(np.reshape([m.rot for m in means], shape + (3, 3)),
                                  np.reshape([m.cols for m in means], shape + (3, 3))),
                     0.5 * (cov + np.swapaxes(cov, -1, -2)))

    @staticmethod
    def measurement(rng, kind, shape):
        if kind == "position":
            return position_measurement(rng.standard_normal(shape + (3,)), NoiseParams())
        if kind == "orientation":
            return orientation_measurement(so3_exp(0.3 * rng.standard_normal(shape + (3,))),
                                           so3_exp(rng.standard_normal(shape + (3,))),
                                           NoiseParams())
        return InvariantMeasurement(*rng.standard_normal((3,) + shape + (3,)),
                                    rng.standard_normal(shape + (3, 12)), 0.5, slice(0, 12))

    @staticmethod
    def assert_equal(got, want):
        assert np.array_equal(got.mean.rot, want.mean.rot)
        assert np.array_equal(got.mean.cols, want.mean.cols)
        assert np.array_equal(got.cov, want.cov)

    @pytest.mark.parametrize("kind", ["position", "orientation", "dense"])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["one", "3", "2x2"])
    def test_equals_dense_oracle(self, rng, kind, shape):
        for _ in range(5):
            s, m = self.state(rng, shape), self.measurement(rng, kind, shape)
            self.assert_equal(update(s, m, 1e-9), dense_update(s, m, 1e-9))

    @pytest.mark.parametrize("kind", ["position", "orientation"])
    def test_row_slice_equals_dense_oracle(self, rng, kind):
        # A (2, 2) state of variant rows and trial columns, updated on its
        # (1, 2) second row as `StreamEstimator.step` does for one variant.
        for _ in range(5):
            s, m = self.state(rng, (2, 2)), self.measurement(rng, kind, (2,))
            got = _on_rows(s, slice(1, 2), lambda part: update(part, m, 1e-9))
            want = _on_rows(s, slice(1, 2), lambda part: dense_update(part, m, 1e-9))
            self.assert_equal(got, want)
            assert np.array_equal(got.cov[0], s.cov[0])


class TestExactSymmetry:
    @pytest.mark.parametrize("shape", [(), (4,)], ids=["one", "batch"])
    def test_every_step_returns_its_covariance_transposed(self, rng, shape):
        # Each step's covariance equals its transpose bit for bit, whatever
        # the rounding of the products: propagate and update end in
        # `_symmetrize`, and apply_jump adds an exactly symmetric term.
        means = [random_element(rng) for _ in range(int(np.prod(shape)))]
        mean = GroupElement(np.reshape([m.rot for m in means], shape + (3, 3)),
                            np.reshape([m.cols for m in means], shape + (3, 3)))
        a = rng.standard_normal(shape + (12, 12))
        cov = a @ np.swapaxes(a, -1, -2) / 12.0
        s = State(mean, 0.5 * (cov + np.swapaxes(cov, -1, -2)))
        gyro, accel, contact_vel = rng.standard_normal((3,) + shape + (3,))
        noise = NoiseParams()
        steps = [
            lambda s: propagate(s, imu_run([ImuReading(0.0, 0.0025, gyro, 3.0 * accel,
                                                       0.3 * contact_vel)]), noise),
            lambda s: update(s, position_measurement(
                rng.standard_normal(shape + (3,)), noise), 1e-9),
            lambda s: update(s, orientation_measurement(
                so3_exp(0.1 * rng.standard_normal(shape + (3,))),
                so3_exp(rng.standard_normal(shape + (3,))), noise), 1e-9),
            lambda s: apply_jump(s, 0.2 * rng.standard_normal(shape + (3,)), 1e-3),
        ]
        for step in steps:
            s = step(s)
            assert s.cov.shape == shape + (12, 12)
            assert np.array_equal(s.cov, np.swapaxes(s.cov, -1, -2))


class TestApplyJump:
    def test_noop_jump_changes_nothing(self, rng):
        s = make_state(rng)
        s2 = apply_jump(s, np.zeros(3), 0.0)
        assert np.array_equal(s2.cov, s.cov)
        assert np.allclose(embed(s2.mean), embed(s.mean), atol=0.0)

    def test_covariance_bit_identical_with_zero_noise(self, rng):
        s = make_state(rng)
        s.cov[:] = np.abs(rng.standard_normal((12, 12)))
        s.cov[:] = s.cov @ s.cov.T
        s2 = apply_jump(s, rng.standard_normal(3), 0.0)
        assert s2.cov is s.cov or np.array_equal(s2.cov, s.cov)
        # exact byte-level equality on the stored matrix
        assert s2.cov.tobytes() == s.cov.tobytes()

    def test_foot_shift_rotated_into_world(self):
        rot = so3_exp(np.array([0.0, 0.0, math.pi / 2]))
        mean = group_element(rot, np.zeros(3), np.zeros(3), [1.0, 1.0, 0.0])
        s = State(mean, np.eye(12))
        s2 = apply_jump(s, np.array([0.3, 0.0, 0.0]), 0.0)
        assert np.allclose(s2.mean.foot, [1.0, 1.3, 0.0], atol=1e-14)
        assert np.allclose(s2.mean.pos, mean.pos)
        assert np.allclose(s2.mean.vel, mean.vel)
        assert np.allclose(s2.mean.rot, mean.rot)

    def test_jump_noise_added_through_adjoint(self, rng):
        s = make_state(rng)
        q = np.zeros((12, 12))
        q[9:12, 9:12] = np.eye(3) * 1e-4
        s2 = apply_jump(s, rng.standard_normal(3) * 0.3, 1e-4)
        ad = adjoint(s2.mean)
        expected = s.cov + ad @ q @ ad.T
        expected = 0.5 * (expected + expected.T)
        assert np.allclose(s2.cov, expected, atol=1e-14)

    def test_deterministic_jump_preserves_invariant_error(self, rng):
        # The jump map has identity Jacobian: the right-invariant error
        # between truth and estimate is unchanged by a noiseless swap.
        truth = random_element(rng)
        xi = rng.standard_normal(12) * 0.3
        est = compose(sek3_exp(xi), truth)
        h_d = rng.standard_normal(3) * 0.4
        s_truth = apply_jump(State(truth, np.eye(12)), h_d, 0.0)
        s_est = apply_jump(State(est, np.eye(12)), h_d, 0.0)
        xi_after = sek3_log(compose(s_est.mean, inverse(s_truth.mean)))
        assert np.linalg.norm(xi_after - xi) < 1e-9


class TestErrorVsTruth:
    def test_exact_estimate_gives_zeros(self, rng):
        truth = random_element(rng)
        m = error_vs_truth(State(truth, np.eye(12)), truth)
        assert np.linalg.norm(m.xi) < 1e-12
        assert m.pos_err == 0.0 and m.vel_err == 0.0
        assert abs(m.roll_deg) < 1e-12 and abs(m.yaw_deg) < 1e-12

    def test_pure_yaw_offset(self, rng):
        truth = random_element(rng)
        yaw = so3_exp(np.array([0.0, 0.0, math.radians(10.0)]))
        est = GroupElement(yaw @ truth.rot, yaw @ truth.cols)
        m = error_vs_truth(State(est, np.eye(12)), truth)
        assert m.yaw_deg == pytest.approx(10.0, abs=1e-10)
        assert abs(m.roll_deg) < 1e-10 and abs(m.pitch_deg) < 1e-10

    def test_xi_satisfies_roundtrip(self, rng):
        truth = random_element(rng)
        est = random_element(rng)
        m = error_vs_truth(State(est, np.eye(12)), truth)
        rebuilt = compose(sek3_exp(m.xi), truth)
        assert np.linalg.norm(embed(rebuilt) - embed(est)) < 1e-10


def make_stream(rng, n_imu=40, kin_every=4):
    """Small hand-built mixed stream with one swap in the middle."""
    dt = 0.0025
    records = []
    surf = so3_exp(np.array([0.0, 0.05, 0.0]))
    for k in range(n_imu):
        t = k * dt
        if k == n_imu // 2:
            records.append(SwapEvent(t, rng.standard_normal(3) * 0.2))
        if k % kin_every == 0:
            records.append(SurfacePose(t, surf))
            records.append(FkOrientation(t, so3_exp(rng.standard_normal(3) * 0.1)))
            records.append(FkPosition(t, rng.standard_normal(3) * 0.2))
        records.append(random_imu(rng, t=t, dt=dt))
    return records


class TestStreamEstimator:
    def test_empty_stream_is_identity(self, rng):
        s = make_state(rng)
        est = StreamEstimator(s, NoiseParams(), PROPOSED)
        assert step_all(est, []) is s

    def test_propagation_only_equals_fold(self, rng):
        noise = NoiseParams()
        steps = [random_imu(rng, t=k * 0.0025) for k in range(100)]
        s = make_state(rng)
        est = StreamEstimator(s, noise, PROPOSED)
        folded = s
        for u in steps:
            folded = propagate(folded, imu_run([u]), noise)
        streamed = step_all(est, steps)
        assert np.allclose(embed(streamed.mean), embed(folded.mean), atol=0.0)
        assert np.array_equal(streamed.cov, folded.cov)

    def test_mixed_stream_equals_manual_sequencing(self, rng):
        noise = NoiseParams(jump_pos_var=1e-5)
        records = make_stream(rng)
        s0 = make_state(rng)

        est = StreamEstimator(State(s0.mean, s0.cov.copy()), noise, PROPOSED)
        streamed = step_all(est, records)

        manual = State(s0.mean, s0.cov.copy())
        surface = None
        for rec in records:
            if isinstance(rec, ImuReading):
                manual = propagate(manual, imu_run([rec]), noise)
            elif isinstance(rec, SurfacePose):
                surface = rec.rot
            elif isinstance(rec, FkOrientation):
                m = orientation_measurement(surface, rec.rot, noise)
                manual = update(manual, m, EPSILON)
            elif isinstance(rec, FkPosition):
                m = position_measurement(rec.hp, noise)
                manual = update(manual, m, EPSILON)
            elif isinstance(rec, SwapEvent):
                manual = apply_jump(manual, rec.h_d, noise.jump_pos_var)
        assert np.array_equal(streamed.mean.rot, manual.mean.rot)
        assert np.array_equal(streamed.mean.cols, manual.mean.cols)
        assert np.array_equal(streamed.cov, manual.cov)

    def test_position_only_skips_orientation_updates(self, rng):
        records = make_stream(rng)
        s0 = make_state(rng)
        noise = NoiseParams()
        position_only = (Variant.POSITION_ONLY,)
        est = StreamEstimator(State(s0.mean, s0.cov.copy()), noise, position_only)
        with_orient = [r for r in records if not isinstance(r, FkOrientation)]
        est2 = StreamEstimator(State(s0.mean, s0.cov.copy()), noise, position_only)
        a = step_all(est, records)
        b = step_all(est2, with_orient)
        assert np.array_equal(a.cov, b.cov)
        assert np.allclose(embed(a.mean), embed(b.mean), atol=0.0)

    def test_imu_only_stream_longer_than_terms_block(self, rng):
        # 1300 intervals in one run of imu records: folded in runs of at
        # most _TERMS_BLOCK, against one interval per step.
        noise = NoiseParams()
        n = 1300
        assert n > 2 * filter_module._TERMS_BLOCK
        stream = one_stream(generate_truth(GaitConfig(duration=1.2), SurfaceConfig(), 2),
                            noise, Rates(), 2)
        imu = {name: np.resize(col, (n,) + col.shape[1:])
               for name, col in stream.columns["imu"].items()}
        imu["t"] = np.arange(n) * 0.0025
        imu["dt"] = np.full(n, 0.0025)
        only = Stream(np.full(n, IMU, dtype=np.int8),
                      {**{kind: {name: col[:0] for name, col in c.items()}
                          for kind, c in stream.columns.items()}, "imu": imu})
        s0 = make_state(rng)
        est = StreamEstimator(s0, noise, PROPOSED)
        assert list(est.fold(only)) == []
        steps = [ImuReading(imu["t"][k], imu["dt"][k], imu["gyro"][k], imu["accel"][k],
                            imu["contact_vel"][k]) for k in range(n)]
        assert_states_close(est.state, step_all(StreamEstimator(s0, noise, PROPOSED),
                                                steps))

    def test_jittered_dt_holds_no_per_run_state(self, rng):
        # The imu and surface records of a 30 s stream (3,000 runs of imu
        # records, as in the whole stream; the updates are left out to keep
        # the traced folds short), with the imu dt jittered by under
        # TIME_TOL / 5 so that no two runs have the same dt: each interval
        # still ends within TIME_TOL / 10 of where the next one starts, and
        # the clock drifts by at most that. The estimator keeps nothing per
        # run: it pickles to the same size as after the stream with
        # unjittered dt, and its peak memory is within 1 MB of that one's.
        noise = NoiseParams()
        full = one_stream(generate_truth(GaitConfig(duration=30.0), SurfaceConfig(), 3),
                          noise, Rates(), 3)
        kept = ("imu", "surface")
        stream = Stream(full.kinds[np.isin(full.kinds, [KINDS.index(k) for k in kept])],
                        {kind: c if kind in kept else {name: col[:0] for name, col in c.items()}
                         for kind, c in full.columns.items()})
        imu = stream.columns["imu"]
        jitter = TIME_TOL / 10 * np.diff(rng.uniform(size=len(imu["dt"]) + 1))
        jittered = Stream(stream.kinds, {**stream.columns,
                                         "imu": {**imu, "dt": imu["dt"] + jitter}})
        s0 = make_state(rng)
        sizes, peaks = [], []
        for folded in (stream, jittered):
            est = StreamEstimator(s0, noise, PROPOSED)
            tracemalloc.start()
            try:
                for _ in est.fold(folded):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(len(pickle.dumps(vars(est))))
        assert sizes[0] == sizes[1]
        assert peaks[1] <= peaks[0] + 1e6, peaks


class TestInvariantErrorPropagation:
    def test_relative_error_independent_of_base_state(self, rng):
        # Two filters whose means differ by left multiplication with G,
        # fed identical inputs with zero noise and no updates: the relative
        # error trajectory depends only on G and the inputs, not on the
        # underlying state. This is the state-independent error propagation.
        steps = [random_imu(rng, t=k * 0.0025) for k in range(100)]
        g = random_element(rng)

        def error_trajectory(base):
            sa = State(base, np.eye(12))
            sb = State(compose(g, base), np.eye(12))
            errors = []
            for u in steps:
                sa = propagate(sa, imu_run([u]), ZERO)
                sb = propagate(sb, imu_run([u]), ZERO)
                errors.append(embed(compose(sb.mean, inverse(sa.mean))))
            return errors

        ea = error_trajectory(random_element(rng))
        eb = error_trajectory(random_element(rng))
        worst = max(np.linalg.norm(a - b) for a, b in zip(ea, eb))
        assert worst < 1e-9

    def test_symmetry_group_offset_is_preserved_exactly(self, rng):
        # Yaw rotations about gravity plus position/foot offsets commute
        # with the flow when the contact point is at rest, so that offset
        # is preserved exactly: the unobservable directions.
        yaw = so3_exp(np.array([0.0, 0.0, 0.7]))
        cols = np.zeros((3, 3))
        cols[:, 1] = [0.4, -0.2, 0.3]
        cols[:, 2] = [-0.1, 0.2, 0.05]
        g = GroupElement(yaw, cols)

        base = random_element(rng)
        sa = State(base, np.eye(12))
        sb = State(compose(g, base), np.eye(12))
        for k in range(200):
            u = random_imu(rng, t=k * 0.0025, contact_vel_scale=0.0)
            sa = propagate(sa, imu_run([u]), ZERO)
            sb = propagate(sb, imu_run([u]), ZERO)
        err = compose(sb.mean, inverse(sa.mean))
        assert np.linalg.norm(embed(err) - embed(g)) < 1e-9


class TestLongRunHygiene:
    def test_covariance_symmetric_psd_over_many_mixed_steps(self, rng):
        noise = NoiseParams(jump_pos_var=1e-6)
        s = make_state(rng, cov_scale=0.05)
        est = StreamEstimator(s, noise, PROPOSED)
        surf = so3_exp(np.array([0.0, 0.05, 0.0]))
        est.step(SurfacePose(0.0, surf))
        n_steps = 100_000
        dt = 0.0025
        check_every = 2000
        run = 40  # IMU intervals between measurement ticks, stepped as one run
        for k in range(0, n_steps, run):
            t = k * dt
            if k % 240 == 0 and k > 0:
                est.step(SwapEvent(t, rng.standard_normal(3) * 0.2))
            mean = est.state.mean
            hp = mean.rot.T @ (mean.foot - mean.pos)
            est.step(FkPosition(t, hp + rng.standard_normal(3) * 0.01))
            est.step(FkOrientation(t, mean.rot.T @ surf))
            # Per interval: gyro, accel and contact_vel draws, in that order.
            draws = rng.standard_normal((run, 3, 3))
            est.step(imu_step(np.full(run, dt), draws[:, 0] * 0.3,
                              np.array([0.0, 0.0, 9.81]) + draws[:, 1] * 0.3,
                              draws[:, 2] * 0.1))
            if k % check_every == 0:
                cov = est.state.cov
                assert np.array_equal(cov, cov.T)
                assert np.min(np.linalg.eigvalsh(cov)) > -1e-10
        from drs_inekf.liegroup import rotation_defect

        assert rotation_defect(est.state.mean.rot) <= 1e-9
