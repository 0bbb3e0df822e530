"""Invariant EKF: propagation, right-invariant updates, and jump handling.

The mean lives on SE_3(3); the 12x12 covariance is expressed in
right-invariant error coordinates xi = log(X_true @ X_hat^-1) with block
order (xi_R, xi_v, xi_p, xi_d). Propagation uses closed-form zero-order-hold
integration of the strapdown equations. The covariance transition
Phi(tau) = exp(A tau) has a constant A, the point of the invariant
construction, so Phi(a) Phi(b) = Phi(a + b) and a run of IMU intervals
(starts t_i, lengths dt_i, T in all, ending at t_end; Ad_i the adjoint of
the mean at t_i) takes one covariance step: cov+ = Phi(T) cov Phi(T)^T +
sum_i Phi(t_end - t_i) Ad_i Qc dt_i Ad_i^T Phi(t_end - t_i)^T. Corrections
are applied by left multiplication: X_hat+ = exp(K z) X_hat.

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
    MAX_IMU_DT,
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

_ORTHO_TOL = 1e-9
_TERMS_BLOCK = 512  # IMU intervals whose integration terms are computed together
_IMU_INPUTS = ("t", "dt", "gyro", "accel", "contact_vel")  # ImuStep fields
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
              phi: np.ndarray | None = None) -> State:
    """Advance mean and covariance over u, one interval or a run of them.

    The mean takes one exact zero-order-hold step per interval (`imu_terms`,
    or u.terms computed ahead), re-projected when it drifts off rotations.
    The covariance takes one: cov+ = Phi(T) cov Phi(T)^T + sum_i G_i Qc dt_i
    G_i^T, G_i = Phi(t_end - t_i) Ad_i maps interval i's process noise into
    invariant coordinates (Ad_i: adjoint of the mean at its start t_i).
    phi, when given, holds Phi(t_end - t_i) per interval.
    """
    run = [np.asarray(getattr(u, name), dtype=float) for name in _IMU_INPUTS]
    if not run[1].ndim:  # a single interval is a run of one
        run = [x[None] for x in run]
    dt = run[1]
    body, shift, offset = u.terms or imu_terms(*run)
    rot, cols, clock = s.mean.rot, s.mean.cols, s.t
    starts = GroupElement(*(np.empty(dt.shape + x.shape) for x in (rot, cols)))
    for i, h in enumerate(dt.tolist()):
        starts.rot[i], starts.cols[i] = rot, cols
        rotated = rot @ body[i]
        rot = rotated[..., :3]
        # Every member is within tolerance when no entry of R^T R - I
        # exceeds a third of it (the Frobenius norm is at most 3 times that).
        if np.abs(_T(rot) @ rot - _EYE3).max() > _ORTHO_TOL / 3.0:
            drifted = rotation_defect(rot) > _ORTHO_TOL
            rot = np.where(drifted[..., None, None], project_to_rotation(rot), rot)
        cols = rotated[..., 3:] + cols @ shift[i] + offset[i]
        clock += h
    phi = state_transition(np.cumsum(dt[::-1])[::-1]) if phi is None else phi
    lead = dt.shape + (1,) * (s.cov.ndim - 2)
    g = phi.reshape(lead + (12, 12)) @ adjoint(starts)
    noise_cov = (g @ (noise.process_cov() * dt.reshape(lead + (1, 1))) @ _T(g)).sum(0)
    cov = _symmetrize(phi[0] @ s.cov @ phi[0].T + noise_cov)
    return State(GroupElement(rot, cols), cov, clock, s.stance_foot)


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
    rot, cols, cov = s.mean.rot.copy(), s.mean.cols.copy(), s.cov.copy()
    rot[rows], cols[rows], cov[rows] = part.mean.rot, part.mean.cols, part.cov
    return State(GroupElement(rot, cols), cov, part.t, part.stance_foot)


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
        self._phi_cache: dict[bytes, np.ndarray] = {}  # run dt -> Phi(t_end - t_i)
        self._contact_fresh = True
        # Members that take orientation updates: all, none, or one row.
        self._orient_rows = None
        if set(variants) == {Variant.PROPOSED}:
            self._orient_rows = slice(None)
        elif Variant.PROPOSED in variants:
            row = variants.index(Variant.PROPOSED)
            self._orient_rows = slice(row, row + 1)

    def _phi(self, dt) -> np.ndarray:
        dt = np.atleast_1d(dt)
        key = dt.tobytes()
        if key not in self._phi_cache:
            self._phi_cache[key] = state_transition(np.cumsum(dt[::-1])[::-1])
        return self._phi_cache[key]

    def _updates_enabled(self) -> bool:
        if self.cfg.update_schedule is UpdateSchedule.EVERY_STEP:
            return True
        return self._contact_fresh

    def _check_time(self, t: float) -> None:
        if t < self.state.t - TIME_TOL:
            raise FilterError(f"out-of-order record at t={t} (filter at t={self.state.t})")

    def step(self, event: StreamRecord) -> State:
        """Route one record or IMU run; returns the (possibly unchanged) state."""
        self._check_time(event.t if np.isscalar(event.t) else event.t[0])
        noise, epsilon = self.cfg.noise, self.cfg.epsilon
        if isinstance(event, ImuStep):
            self.state = propagate(self.state, event, noise,
                                   phi=self._phi(event.dt))
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
        """Route a columnar stream through `step`, each IMU run at once.

        A generator: yields the index of each truth sample (not routed)
        while the state is the estimate at its time. A run of consecutive
        IMU records is one ImuStep of at most _TERMS_BLOCK intervals, whose
        integration terms are computed ahead _TERMS_BLOCK intervals at once.
        """
        imu, kinds = stream.columns["imu"], stream.kinds
        edges = np.flatnonzero(np.diff(kinds, prepend=-1, append=-1))  # kind runs
        seen, end = [0] * len(KINDS), 0  # end: first interval without terms
        for first, stop in zip(map(int, edges[:-1]), map(int, edges[1:])):
            code = int(kinds[first])
            k, seen[code] = seen[code], seen[code] + stop - first
            if code != IMU:
                for i in range(k, seen[code]):
                    if code == TRUTH:
                        self._check_time(stream.columns["truth"]["t"][i])
                        yield i
                    else:
                        self.step(stream.record(code, i))
                continue
            for a in range(k, seen[code], _TERMS_BLOCK):
                b = min(a + _TERMS_BLOCK, seen[code])
                if b > end:
                    start, end = a, a + _TERMS_BLOCK
                    terms = imu_terms(*(imu[name][start:end] for name in _IMU_INPUTS))
                self.step(ImuStep(*(imu[name][a:b] for name in _IMU_INPUTS),
                                  terms=tuple(x[a - start:b - start] for x in terms)))
