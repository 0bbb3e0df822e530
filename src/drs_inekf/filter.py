"""Invariant EKF: propagation, right-invariant updates, and jump handling.

The mean lives on SE_3(3); the 12x12 covariance is expressed in
right-invariant error coordinates xi = log(X_true @ X_hat^-1) with block
order (xi_R, xi_v, xi_p, xi_d). Propagation uses closed-form zero-order-hold
integration of the strapdown equations; the covariance transition matrix is
constant, which is the point of the invariant construction. Corrections are
applied by left multiplication: X_hat+ = exp(K z) X_hat.

The proposed estimator fuses the foot-position kinematic measurement and
the surface-normal orientation measurement; the position-only baseline
skips the latter.

Every function works on a batch of members at once: a State's mean and
covariance may carry leading axes (one member per slice), the members
share the clock and the stance foot, and a record's arrays broadcast
against them. Since neither the transition matrix nor the tick grid
depends on the estimate, the trials and variants of a campaign advance in
lockstep (`StreamEstimator.fold`); an unbatched State is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .liegroup import (
    GroupElement,
    adjoint,
    compose,
    gamma0_and_applied,
    inverse,
    project_to_rotation,
    rotation_defect,
    sek3_exp,
    sek3_log,
)
from .liegroup import dot as _dot
from .liegroup import matvec as _mv
from .liegroup import transposed as _T
from .models import (
    GRAVITY,
    ImuStep,
    InvariantMeasurement,
    NoiseParams,
    check_fields,
    innovation,
    orientation_measurement,
    param,
    position_measurement,
    state_transition,
)
from .streams import (
    IMU,
    KINDS,
    TIME_TOL,
    TRUTH,
    FkOrientation,
    FkPosition,
    StanceFoot,
    Stream,
    StreamRecord,
    SurfacePose,
    SwapEvent,
    TruthSample,
)

MAX_IMU_DT = 0.1
_ORTHO_TOL = 1e-9
_TERMS_BLOCK = 512  # IMU intervals whose integration terms are computed together
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_EYE12 = np.eye(12)
_EYE12.setflags(write=False)


class FilterError(RuntimeError):
    """Hard estimator failure (bad inputs, degenerate update, time order)."""


class Variant(Enum):
    PROPOSED = "proposed"
    POSITION_ONLY = "position-only"


class UpdateSchedule(Enum):
    EVERY_STEP = "every-step"
    ON_CONTACT_ONLY = "on-contact-only"


@dataclass(frozen=True)
class FilterConfig:
    noise: NoiseParams
    update_schedule: UpdateSchedule = param(UpdateSchedule.EVERY_STEP)
    epsilon: float = param(1e-9, lo=1e-15)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class JumpInput:
    """Support-foot swap: new-foot position relative to old, in the base frame."""

    h_d: np.ndarray


@dataclass(frozen=True)
class State:
    """Filter estimate: SE_3(3) mean plus right-invariant error covariance.

    mean.rot/mean.cols (..., 3, 3) and cov (..., 12, 12) share their
    leading batch axes, one member per slice; t and stance_foot are common.
    """

    mean: GroupElement
    cov: np.ndarray
    t: float
    stance_foot: StanceFoot = StanceFoot.LEFT


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _T(m))


def imu_terms(t, dt, gyro, accel, contact_vel):
    """Checked integration terms of one IMU interval or of a run of them.

    The propagated mean is R+ = R Gamma_0 and, as columns,
    [v+, p+, d+] = R C + [v, p, d] M + W: with Gamma_m = Gamma_m(gyro dt),
    body (..., 3, 6) = [Gamma_0 | Gamma_1 accel dt, Gamma_2 accel dt^2, 0]
    gives R @ body = [R+ | R C], M = [[1, dt, 0], [0, 1, 0], [0, 0, 1]]
    adds v dt to p, and W = [g dt, g dt^2 / 2, contact_vel dt]. Returns
    (body, M, W). These depend on the inputs only, so a stream's can be
    computed ahead for many intervals at once (time axis first). Raises
    FilterError for the first interval whose dt is outside (0, MAX_IMU_DT]
    or whose inputs are not finite.
    """
    dt = np.asarray(dt, dtype=float)
    bad_dt = ~((dt > 0.0) & (dt <= MAX_IMU_DT))
    if np.count_nonzero(bad_dt):
        raise FilterError(f"imu step dt {dt[bad_dt][0]} outside (0, {MAX_IMU_DT}]")
    finite = np.isfinite(gyro) & np.isfinite(accel) & np.isfinite(contact_vel)
    bad = ~finite.reshape(dt.shape + (-1,)).all(axis=-1)
    if np.count_nonzero(bad):
        raise FilterError(f"non-finite imu input at t={np.asarray(t)[bad][0]}")
    col = dt.reshape(dt.shape + (1,) * (np.ndim(gyro) - dt.ndim))
    g0, g1a, g2a = gamma0_and_applied(gyro * col, accel)
    body = np.zeros(g0.shape[:-1] + (6,))
    body[..., :3] = g0
    body[..., 3] = g1a * col
    body[..., 4] = g2a * col * col
    shift = np.zeros(dt.shape + (3, 3))
    shift[..., [0, 1, 2], [0, 1, 2]] = 1.0
    shift[..., 0, 1] = dt
    offset = np.empty(np.shape(contact_vel) + (3,))
    offset[..., 0] = GRAVITY * col
    offset[..., 1] = 0.5 * GRAVITY * col * col
    offset[..., 2] = contact_vel * col
    return body, shift, offset


def propagate(s: State, u: ImuStep, noise: NoiseParams,
              phi: np.ndarray | None = None,
              qc: np.ndarray | None = None) -> State:
    """Advance mean and covariance over u.dt with zero-order-hold inputs.

    Mean integration is exact for constant inputs (`imu_terms`, taken from
    u.terms when they were computed ahead); the covariance step is
    cov+ = Phi (cov + Ad Qc Ad^T dt) Phi^T, the process noise mapped into
    invariant coordinates through the adjoint Ad of the mean.
    """
    dt = u.dt
    body, shift, offset = u.terms or imu_terms(u.t, dt, u.gyro, u.accel,
                                               u.contact_vel)
    rotated = s.mean.rot @ body
    rot_new = rotated[..., :3]
    # Every member is within tolerance when no entry of R^T R - I exceeds
    # a third of it (the Frobenius norm is at most 3 times that).
    defect = _T(rot_new) @ rot_new - _EYE3
    if np.abs(defect).max() > _ORTHO_TOL / 3.0:
        drifted = rotation_defect(rot_new) > _ORTHO_TOL
        rot_new = np.where(drifted[..., None, None], project_to_rotation(rot_new),
                           rot_new)
    cols = rotated[..., 3:] + s.mean.cols @ shift + offset

    if phi is None:
        phi = state_transition(dt)
    if qc is None:
        qc = noise.process_cov()
    ad = adjoint(s.mean)
    cov = _symmetrize(phi @ (s.cov + ad @ (qc * dt) @ _T(ad)) @ phi.T)

    return State(GroupElement(rot_new, cols), cov, s.t + dt, s.stance_foot)


def update(s: State, m: InvariantMeasurement, epsilon: float) -> State:
    """Right-invariant correction with Joseph-form covariance update."""
    z = innovation(m, s.mean)
    pht = s.cov @ _T(m.H)
    sce = m.H @ pht + m.N + epsilon * _EYE3
    try:
        gain = _T(np.linalg.solve(_T(sce), _T(pht)))
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular innovation covariance: {exc}") from exc
    if not np.all(np.isfinite(gain)):
        raise FilterError("non-finite Kalman gain (degenerate innovation covariance)")
    mean = compose(sek3_exp(_mv(gain, z)), s.mean)
    ikh = _EYE12 - gain @ m.H
    cov = _symmetrize(ikh @ s.cov @ _T(ikh) + gain @ m.N @ _T(gain))
    return State(mean, cov, s.t, s.stance_foot)


def apply_jump(s: State, j: JumpInput, q_jump: np.ndarray | None = None) -> State:
    """Support-foot swap: d+ = d + R h_d; everything else is continuous.

    The jump map has identity Jacobian in right-invariant coordinates, so
    with zero jump noise the covariance is untouched (bit-identical);
    otherwise the tangent-space jump covariance is added through the
    adjoint of the post-jump mean.
    """
    cols = s.mean.cols.copy()
    cols[..., 2] = s.mean.foot + _mv(s.mean.rot, j.h_d)
    mean = GroupElement(s.mean.rot, cols)
    cov = s.cov
    if q_jump is not None and np.any(q_jump):
        ad = adjoint(mean)
        cov = _symmetrize(cov + ad @ q_jump @ _T(ad))
    return State(mean, cov, s.t, s.stance_foot.other())


def _on_rows(s: State, rows: slice, step) -> State:
    """`step` applied to the members at `rows` of the state's first axis."""
    if rows == slice(None):
        return step(s)
    part = step(State(GroupElement(s.mean.rot[rows], s.mean.cols[rows]),
                      s.cov[rows], s.t, s.stance_foot))

    def merged(full, new):
        return np.concatenate([full[:rows.start], new, full[rows.stop:]])

    return State(GroupElement(merged(s.mean.rot, part.mean.rot),
                              merged(s.mean.cols, part.mean.cols)),
                 merged(s.cov, part.cov), part.t, part.stance_foot)


@dataclass
class ErrorMetrics:
    """Estimate-vs-truth errors: invariant tangent plus reporting scalars.

    Each field has the state's batch axes (xi one more, of length 12).
    """

    xi: np.ndarray
    pos_err: np.ndarray
    vel_err: np.ndarray
    roll_deg: np.ndarray
    pitch_deg: np.ndarray
    yaw_deg: np.ndarray


def error_vs_truth(s: State, truth: GroupElement) -> ErrorMetrics:
    """xi = log(mean truth^-1) plus norm/Euler scalars (ZYX convention)."""
    err = compose(s.mean, inverse(truth))
    xi = sek3_log(err)
    rot_err = err.rot
    yaw = np.arctan2(rot_err[..., 1, 0], rot_err[..., 0, 0])
    pitch = -np.arcsin(np.clip(rot_err[..., 2, 0], -1.0, 1.0))
    roll = np.arctan2(rot_err[..., 2, 1], rot_err[..., 2, 2])
    pos, vel = s.mean.pos - truth.pos, s.mean.vel - truth.vel
    return ErrorMetrics(
        xi=xi,
        pos_err=np.sqrt(_dot(pos, pos)),
        vel_err=np.sqrt(_dot(vel, vel)),
        roll_deg=np.degrees(roll),
        pitch_deg=np.degrees(pitch),
        yaw_deg=np.degrees(yaw),
    )


class StreamEstimator:
    """Folds a time-ordered sensor stream through the filter.

    The state may be a batch of members that see the same records in
    lockstep. `variants` names the variant of each index of the state's
    first axis (one variant for an unbatched state); orientation updates
    reach only the proposed ones. Holds the latest known surface pose
    (needed to form the orientation measurement) and the contact-freshness
    flag used by the on-contact-only update schedule. One instance per
    estimation run; not shared across tasks.
    """

    def __init__(self, initial: State, cfg: FilterConfig,
                 variants: tuple[Variant, ...]):
        self.state = initial
        self.cfg = cfg
        self.surface_rot: np.ndarray | None = None
        self._phi_cache: dict[float, np.ndarray] = {}
        self._qc = cfg.noise.process_cov()
        self._contact_fresh = True
        # Members that take orientation updates: all, none, or one row.
        self._orient_rows = None
        if set(variants) == {Variant.PROPOSED}:
            self._orient_rows = slice(None)
        elif Variant.PROPOSED in variants:
            row = variants.index(Variant.PROPOSED)
            self._orient_rows = slice(row, row + 1)

    def _phi(self, dt: float) -> np.ndarray:
        phi = self._phi_cache.get(dt)
        if phi is None:
            phi = state_transition(dt)
            self._phi_cache[dt] = phi
        return phi

    def _updates_enabled(self) -> bool:
        if self.cfg.update_schedule is UpdateSchedule.EVERY_STEP:
            return True
        return self._contact_fresh

    def step(self, event: StreamRecord) -> State:
        """Route one stream record; returns the (possibly unchanged) state."""
        if event.t < self.state.t - TIME_TOL:
            raise FilterError(
                f"out-of-order record at t={event.t} (filter at t={self.state.t})")

        noise, epsilon = self.cfg.noise, self.cfg.epsilon
        if isinstance(event, ImuStep):
            self.state = propagate(self.state, event, noise,
                                   phi=self._phi(event.dt), qc=self._qc)
        elif isinstance(event, SurfacePose):
            self.surface_rot = event.rot
        elif isinstance(event, FkOrientation):
            if (self._orient_rows is not None
                    and self.surface_rot is not None and self._updates_enabled()):
                self.state = _on_rows(self.state, self._orient_rows, lambda s: update(
                    s, orientation_measurement(self.surface_rot, event.rot, s.mean,
                                               noise), epsilon))
        elif isinstance(event, FkPosition):
            if self._updates_enabled():
                m = position_measurement(event.hp, self.state.mean, noise)
                self.state = update(self.state, m, epsilon)
            self._contact_fresh = False
        elif isinstance(event, SwapEvent):
            self.state = apply_jump(self.state, JumpInput(event.h_d), noise.jump_cov)
            self._contact_fresh = True
        elif isinstance(event, TruthSample):
            pass  # evaluation-only record
        else:
            raise FilterError(f"unknown stream record {type(event)!r}")
        return self.state

    def fold(self, stream: Stream):
        """Route every record of a columnar stream through `step`, in order.

        A generator: yields each truth sample right after routing it, while
        the state is the estimate at that time. The IMU integration terms,
        which depend on the inputs only, are computed ahead along the time
        axis, _TERMS_BLOCK intervals at a time for every stream of a stack.
        """
        imu, seen = stream.columns["imu"], [0] * len(KINDS)
        for code in stream.kinds.tolist():
            k = seen[code]
            seen[code] += 1
            if code == IMU:
                j = k % _TERMS_BLOCK
                if j == 0:
                    ticks = slice(k, k + _TERMS_BLOCK)
                    terms = imu_terms(*(imu[name][ticks] for name in (
                        "t", "dt", "gyro", "accel", "contact_vel")))
                rec = stream.record(code, k, terms=tuple(x[j] for x in terms))
            else:
                rec = stream.record(code, k)
            self.step(rec)
            if code == TRUTH:
                yield rec

