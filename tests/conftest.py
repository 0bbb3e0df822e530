import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import logm

from drs_inekf.liegroup import (
    XI_D,
    XI_R,
    XI_V,
    GroupElement,
    _gamma_coeffs,
    _left_jacobian_inv,
    _tangent_cols,
    adjoint,
    compose,
    dot,
    gamma0_and_applied,
    hat,
    inverse,
    matvec,
    project_to_rotation,
    sek3_exp,
    sek3_log,
)
from drs_inekf import filter as filter_module
from drs_inekf.filter import EPSILON, State, imu_terms
from drs_inekf.models import GRAVITY, ImuStep, innovation, state_transition
from drs_inekf.sim import synthesize_sensors
from drs_inekf.streams import (
    IMU,
    KINDS,
    RECORD_TYPES,
    TRUTH,
    FkOrientation,
    FkPosition,
    Stream,
    SurfacePose,
    SwapEvent,
    TruthSample,
)


@pytest.fixture
def nis_by_kind(monkeypatch):
    """The NIS z^T S^-1 z of every member at each `filter.update`, by kind.

    A dict {"fk_pos": [...], "fk_rot": [...]} that gains one array per update
    call, of the updated members' batch shape, recomputed from the update's
    inputs (z and S as `update` forms them) before the update runs. Reaches
    only this process.
    """
    calls = {"fk_pos": [], "fk_rot": []}
    update = filter_module.update

    def recording_update(s, m):
        z, h = innovation(m, s.mean), dense_jacobian(m)
        eye = np.eye(3)
        cov = h @ s.cov @ np.swapaxes(h, -1, -2) + m.var * eye + EPSILON * eye
        nis = (z[..., None, :] @ np.linalg.solve(cov, z[..., None]))[..., 0, 0]
        calls["fk_rot" if m.cols == XI_R else "fk_pos"].append(nis)
        return update(s, m)

    monkeypatch.setattr(filter_module, "update", recording_update)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@dataclass(frozen=True)
class ImuReading:
    """One raw IMU record, the interval [t, t + dt]: the oracles' input.

    gyro/accel are body-frame IMU data, contact_vel the world-frame velocity
    of the foot-surface contact area; they may carry stream axes.
    """

    t: float
    dt: float
    gyro: np.ndarray
    accel: np.ndarray
    contact_vel: np.ndarray


def imu_step(dt, gyro, accel, contact_vel, noise) -> ImuStep:
    """The ImuStep of one run of intervals (time axis first) under the noise
    model `noise`, via imu_terms."""
    dt = np.asarray(dt, dtype=float)
    (step,) = imu_terms(dt, gyro, accel, contact_vel, np.zeros(len(dt), bool), noise)
    return step


def imu_run(readings, noise) -> ImuStep:
    """The ImuStep of consecutive readings; a lone reading is a run of one."""
    return imu_step(*(np.array([getattr(u, name) for u in readings], dtype=float)
                      for name in ("dt", "gyro", "accel", "contact_vel")), noise)


def routed(rec, noise):
    """What `StreamEstimator.step` takes for a record: a reading as a run of one."""
    return imu_run([rec], noise) if isinstance(rec, ImuReading) else rec


# -- Lie-group, model and trajectory oracles ----------------------------------
#
# Helpers the package itself has no use for, kept here to state and check
# its properties: the matrix embedding, the Lie algebra, the group-affine
# dynamics and the analytic derivatives of the truth trajectory.

def identity() -> GroupElement:
    return GroupElement(np.eye(3), np.zeros((3, 3)))


def group_element(rot, vel, pos, foot) -> GroupElement:
    """The estimator state from its rotation and three columns."""
    return GroupElement(np.asarray(rot, dtype=float),
                        np.stack([vel, pos, foot], axis=-1).astype(float))


def embed(x: GroupElement) -> np.ndarray:
    """6 x 6 matrix embedding, over leading batch axes."""
    m = np.zeros(x.rot.shape[:-2] + (6, 6))
    m[..., range(3, 6), range(3, 6)] = 1.0
    m[..., :3, :3] = x.rot
    m[..., :3, 3:] = x.cols
    return m


def from_embedded(m: np.ndarray) -> GroupElement:
    return GroupElement(m[..., :3, :3].copy(), m[..., :3, 3:].copy())


def is_close(a: GroupElement, b: GroupElement, tol: float = 1e-9) -> bool:
    return (np.allclose(a.rot, b.rot, atol=tol)
            and np.allclose(a.cols, b.cols, atol=tol))


def algebra_hat(xi: np.ndarray) -> np.ndarray:
    """Lie-algebra matrix of a tangent vector in the embedding."""
    xi = np.asarray(xi, dtype=float)
    m = np.zeros(xi.shape[:-1] + (6, 6))
    m[..., :3, :3] = hat(xi[..., :3])
    m[..., :3, 3:] = _tangent_cols(xi)
    return m


def so3_left_jacobian_inv(v: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian (the one sek3_log applies)."""
    v = np.asarray(v, dtype=float)
    return _left_jacobian_inv(v, np.sqrt(dot(v, v)))


def process_dynamics(x: GroupElement, u: ImuReading) -> np.ndarray:
    """Deterministic part of d/dt of the embedded state matrix."""
    out = np.zeros((6, 6))
    out[:3, :3] = x.rot @ hat(u.gyro)
    out[:3, 3] = x.rot @ u.accel + GRAVITY
    out[:3, 4] = x.vel
    out[:3, 5] = u.contact_vel
    return out


def group_affine_residual(x1: GroupElement, x2: GroupElement, u: ImuReading,
                          dynamics=process_dynamics) -> float:
    """Frobenius norm of f(X1 X2) - f(X1) X2 - X1 f(X2) + X1 f(Id) X2.

    Zero (to roundoff) iff the dynamics are group-affine. A different
    `dynamics` callable can be passed to confirm the check has power.
    """
    m1, m2 = embed(x1), embed(x2)
    lhs = dynamics(compose(x1, x2), u)
    rhs = dynamics(x1, u) @ m2 + m1 @ dynamics(x2, u) - m1 @ dynamics(identity(), u) @ m2
    return float(np.linalg.norm(lhs - rhs))


def _oscillations(truth, t):
    """Each base oscillation's amplitude, angular frequency and angle at t."""
    w = truth.angular_freq
    return truth.amplitude, w, w * np.asarray(t, dtype=float)[..., None] + truth.phases


def base_acc(truth, t):
    """World acceleration of the base (analytic)."""
    amp, w, angle = _oscillations(truth, t)
    return (-amp * w * w * np.sin(angle))[..., :3]


def omega_body(truth, t):
    """Body-frame angular velocity of the base (analytic)."""
    amp, w, angle = _oscillations(truth, t)
    roll = amp[3] * np.sin(angle[..., 3])
    d_roll, d_pitch = np.moveaxis((amp * w * np.cos(angle))[..., 3:], -1, 0)
    return np.stack([d_roll, d_pitch * np.cos(roll), -d_pitch * np.sin(roll)], axis=-1)


def surface_omega(truth, t):
    """World angular velocity of the surface (analytic)."""
    surf = truth.surf
    out = np.zeros(np.shape(t) + (3,))
    out[..., 1] = (surf.pitch_amplitude * surf.pitch_angular_freq
                   * np.cos(surf.pitch_angular_freq * np.asarray(t, dtype=float)))
    return out


def foot_vel(truth, t, index: int):
    """World velocity of a stance foot: omega_s x (d - pivot) + belt term."""
    rs = truth.surface_rot(t)
    arm = np.einsum("...ij,...j->...i", rs, truth._local(t, index))
    belt = np.einsum("...ij,j->...i", rs, np.array([-truth.surf.belt_speed, 0.0, 0.0]))
    return np.cross(surface_omega(truth, t), arm) + belt


# -- streams -------------------------------------------------------------------

def stream_records(stream):
    """The records of a stream, in order, as record objects.

    A truth sample becomes a TruthSample and each imu record an
    ImuReading, for the oracles (`routed` makes the reading a run of one);
    the other kinds are the records `StreamEstimator.fold` routes.
    """
    seen = [0] * len(KINDS)
    records = []
    truth, imu = stream.columns["truth"], stream.columns["imu"]
    for code in stream.kinds.tolist():
        k = seen[code]
        if code == TRUTH:
            records.append(TruthSample(
                float(truth["t"][k]), group_element(truth["rot"][k], truth["vel"][k],
                                                    truth["pos"][k], truth["foot"][k])))
        elif code == IMU:
            records.append(ImuReading(float(imu["t"][k]), float(imu["dt"][k]),
                                      imu["gyro"][k], imu["accel"][k],
                                      imu["contact_vel"][k]))
        else:
            cls, name = RECORD_TYPES[code]
            c = stream.columns[KINDS[code]]
            records.append(cls(float(c["t"][k]), c[name][k]))
        seen[code] += 1
    return records


def stream_at(stream, i):
    """Stream i of streams side by side: axis 1 of each value column."""
    return Stream(stream.kinds, {
        kind: {name: col if col.ndim == 1 else col[:, i] for name, col in c.items()}
        for kind, c in stream.columns.items()})


def one_stream(truth, noise, rates, seed):
    """The stream `synthesize_sensors` writes for one truth, as stream 0 of a batch of one."""
    return stream_at(synthesize_sensors([truth], noise, rates, [seed]), 0)


def streams_equal(a, b) -> bool:
    """Same record order and bitwise the same columns."""
    return (np.array_equal(a.kinds, b.kinds) and a.columns.keys() == b.columns.keys()
            and all(a.columns[kind].keys() == b.columns[kind].keys()
                    and all(np.array_equal(col, b.columns[kind][name])
                            for name, col in a.columns[kind].items())
                    for kind in a.columns))


def step_all(est, records):
    """Route each record but the truth samples through `est.step`; the final state."""
    for rec in records:
        if not isinstance(rec, TruthSample):
            est.step(routed(rec, est.noise))
    return est.state


def random_element(rng, rot_scale: float = 1.0, col_scale: float = 1.0) -> GroupElement:
    xi = rng.standard_normal(12)
    xi[:3] *= rot_scale
    xi[3:] *= col_scale
    return sek3_exp(xi)


def random_imu(rng, t: float = 0.0, dt: float = 0.0025,
               contact_vel_scale: float = 0.3) -> ImuReading:
    return ImuReading(t, dt, rng.standard_normal(3),
                   rng.standard_normal(3) * 3.0,
                   rng.standard_normal(3) * contact_vel_scale)


def so3_gammas(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Gamma_0, Gamma_1, Gamma_2) for strapdown integration, as matrices.

    Gamma_m = sum_n hat(v)^n / (n + m)!; Gamma_0 = exp, Gamma_1 = J_l and
    Gamma_2 is the double integral term for the position update.
    """
    a, b, c, g2b = _gamma_coeffs(np.sqrt(v @ v), "abcg")
    k = hat(v)
    k2 = k @ k
    eye = np.eye(3)
    return eye + a * k + b * k2, eye + b * k + c * k2, 0.5 * eye + c * k + g2b * k2


def rk4_flow(x, u, h, substeps=10):
    """Integrate the embedded-matrix process ODE with constant input u."""
    m = embed(x)
    hh = h / substeps
    for _ in range(substeps):
        k1 = process_dynamics(from_embedded(m), u)
        k2 = process_dynamics(from_embedded(m + 0.5 * hh * k1), u)
        k3 = process_dynamics(from_embedded(m + 0.5 * hh * k2), u)
        k4 = process_dynamics(from_embedded(m + hh * k3), u)
        m = m + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return from_embedded(m)


def fd_error_jacobian(x_base, u, h=1e-3, eps=1e-5, substeps=10):
    """Finite-difference Jacobian of the exact error flow.

    Flows the pair (exp(xi) X, X) through the nonlinear dynamics and
    differentiates log of the relative error; the matrix log of the
    resulting transition recovers the error dynamics matrix.
    """
    x1h = rk4_flow(x_base, u, h, substeps)
    phi = np.zeros((12, 12))
    for j in range(12):
        cols = []
        for sgn in (1.0, -1.0):
            xi0 = np.zeros(12)
            xi0[j] = sgn * eps
            x2h = rk4_flow(compose(sek3_exp(xi0), x_base), u, h, substeps)
            cols.append(sek3_log(compose(x2h, inverse(x1h))))
        phi[:, j] = (cols[0] - cols[1]) / (2.0 * eps)
    return np.real(logm(phi)) / h


def dense_jacobian(m) -> np.ndarray:
    """A measurement's 3x12 Jacobian: its block m.H on the columns m.cols,
    zero elsewhere, over the block's leading batch axes."""
    h = np.zeros(m.H.shape[:-1] + (12,))
    h[..., m.cols] = m.H
    return h


def fd_measurement_jacobian(build_innovation, eps=1e-6):
    """Central finite differences of an innovation over error perturbations."""
    h = np.zeros((3, 12))
    for j in range(12):
        xi = np.zeros(12)
        xi[j] = eps
        zp = build_innovation(xi)
        xi[j] = -eps
        zm = build_innovation(xi)
        h[:, j] = (zp - zm) / (2.0 * eps)
    return h


# -- scalar reference filter --------------------------------------------------
#
# The per-record, one-estimate-at-a-time fold the lockstep engine replaced,
# kept as the oracle the engine is compared with: propagate, update and
# apply_jump on 2-D arrays, routed record by record, with the metrics of
# one row per truth sample.

def _sym(m):
    return 0.5 * (m + m.T)


def process_cov(noise) -> np.ndarray:
    """12x12 continuous density Qc of the process noise (position rows zero)."""
    qc = np.zeros((12, 12))
    qc[XI_R, XI_R] = noise.gyro_density * np.eye(3)
    qc[XI_V, XI_V] = noise.accel_density * np.eye(3)
    qc[XI_D, XI_D] = noise.contact_vel_density * np.eye(3)
    return qc


def oracle_propagate(mean, cov, u, noise):
    dt = u.dt
    rot = mean.rot
    g0, g1a, g2a = gamma0_and_applied(u.gyro * dt, u.accel)
    rot_new = rot @ g0
    diff = rot_new.T @ rot_new - np.eye(3)
    if float((diff * diff).sum()) > 1e-18:
        rot_new = project_to_rotation(rot_new)
    old = mean.cols
    cols = np.empty((3, 3))
    cols[:, 0] = old[:, 0] + GRAVITY * dt + (rot @ g1a) * dt
    cols[:, 1] = (old[:, 1] + old[:, 0] * dt + 0.5 * GRAVITY * dt * dt
                  + (rot @ g2a) * dt * dt)
    cols[:, 2] = old[:, 2] + u.contact_vel * dt
    phi = state_transition(dt)
    m = phi @ adjoint(mean)
    cov = _sym(phi @ cov @ phi.T + (m @ process_cov(noise) @ m.T) * dt)
    return GroupElement(rot_new, cols), cov


def oracle_run(mean, cov, steps, noise):
    """Mean and covariance after a run of ImuReadings, generically.

    The means are stepped by oracle_propagate, tick by tick; the covariance
    takes the one step Phi(T) cov Phi(T)^T + sum_i Phi(tau_i) Ad_i Qc
    Ad_i^T Phi(tau_i)^T dt_i, with Ad_i the adjoint of the mean at interval
    i's start and tau_i the time from there to the run's end.
    """
    tau = np.cumsum([u.dt for u in steps][::-1])[::-1]
    phi = state_transition(tau[0])
    out = phi @ cov @ phi.T
    for u, t in zip(steps, tau):
        g = state_transition(t) @ adjoint(mean)
        out = out + (g @ process_cov(noise) @ g.T) * u.dt
        mean, _ = oracle_propagate(mean, cov, u, noise)
    return mean, _sym(out)


def oracle_update(mean, cov, y, b, h, n, epsilon):
    z = mean.rot @ y[:3] + mean.cols @ y[3:] - b[:3]
    pht = cov @ h.T
    gain = np.linalg.solve((h @ pht + n + epsilon * np.eye(3)).T, pht.T).T
    ikh = np.eye(12) - gain @ h
    return (compose(sek3_exp(gain @ z), mean),
            _sym(ikh @ cov @ ikh.T + gain @ n @ gain.T))


def dense_update(s, m, epsilon):
    """`filter.update` by the dense-Jacobian formulas, as a batched State.

    With H = dense_jacobian(m): P H^T as cov @ H^T over all 12 columns,
    H P H^T as H @ (P H^T), I - K H over all 12, and the innovation of the
    augmented 6-vectors Y = [y; w] and [b; w]. The update that reads only
    the block on m.cols must equal it bit for bit.
    """
    def t(a):
        return np.swapaxes(a, -1, -2)

    h = dense_jacobian(m)
    y = np.concatenate(np.broadcast_arrays(m.y, m.w), axis=-1)
    b = np.concatenate(np.broadcast_arrays(m.b, m.w), axis=-1)
    z = matvec(s.mean.rot, y[..., :3]) + matvec(s.mean.cols, y[..., 3:]) - b[..., :3]
    pht = s.cov @ t(h)
    sce = h @ pht + m.var * np.eye(3) + epsilon * np.eye(3)
    gain = t(np.linalg.solve(t(sce), t(pht)))
    ikh = np.eye(12) - gain @ h
    cov = ikh @ s.cov @ t(ikh) + (gain * m.var) @ t(gain)
    return State(compose(sek3_exp(matvec(gain, z)), s.mean), 0.5 * (cov + t(cov)))


def oracle_metric_rows(records, mean, cov, noise, proposed, epsilon):
    """Metric rows (pos, vel, |roll|, |pitch|, |yaw| in deg, NEES) per truth."""
    surface, rows = None, []
    for rec in records:
        if isinstance(rec, ImuReading):
            mean, cov = oracle_propagate(mean, cov, rec, noise)
        elif isinstance(rec, SurfacePose):
            surface = rec.rot
        elif isinstance(rec, FkOrientation):
            if proposed:
                n_s = surface @ np.array([0.0, 0.0, 1.0])
                h = np.zeros((3, 12))
                h[:, 0:3] = hat(n_s)
                y = np.concatenate([rec.rot[:, 2], np.zeros(3)])
                n = mean.rot @ (noise.surface_orient_var * np.eye(3)) @ mean.rot.T
                mean, cov = oracle_update(mean, cov, y, np.concatenate(
                    [n_s, np.zeros(3)]), h, n, epsilon)
        elif isinstance(rec, FkPosition):
            h = np.zeros((3, 12))
            h[:, 6:9] = -np.eye(3)
            h[:, 9:12] = np.eye(3)
            n = mean.rot @ (noise.fk_pos_var * np.eye(3)) @ mean.rot.T
            mean, cov = oracle_update(
                mean, cov, np.concatenate([rec.hp, [0.0, 1.0, -1.0]]),
                np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]), h, n, epsilon)
        elif isinstance(rec, SwapEvent):
            cols = mean.cols.copy()
            cols[:, 2] = mean.foot + mean.rot @ rec.h_d
            mean = GroupElement(mean.rot, cols)
            if noise.jump_pos_var:
                ad = adjoint(mean)
                q = np.zeros((12, 12))
                q[XI_D, XI_D] = noise.jump_pos_var * np.eye(3)
                cov = _sym(cov + ad @ q @ ad.T)
        elif isinstance(rec, TruthSample):
            truth = rec.element
            xi = sek3_log(compose(mean, inverse(truth)))
            r = mean.rot @ truth.rot.T
            euler = (math.atan2(r[2, 1], r[2, 2]),
                     -math.asin(min(1.0, max(-1.0, r[2, 0]))),
                     math.atan2(r[1, 0], r[0, 0]))
            rows.append([float(np.linalg.norm(mean.pos - truth.pos)),
                         float(np.linalg.norm(mean.vel - truth.vel))]
                        + [abs(math.degrees(a)) for a in euler]
                        + [float(xi @ np.linalg.solve(cov + epsilon * np.eye(12),
                                                      xi))])
    return np.array(rows)
