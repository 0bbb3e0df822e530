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
"""

from __future__ import annotations

import math
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
    sek3_exp,
    sek3_log,
)
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
    FkOrientation,
    FkPosition,
    StanceFoot,
    StreamRecord,
    SurfacePose,
    SwapEvent,
    TruthSample,
)

MAX_IMU_DT = 0.1
_ORTHO_TOL = 1e-9
_TIME_TOL = 1e-9
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
    variant: Variant = Variant.PROPOSED
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
    """Filter estimate: SE_3(3) mean plus right-invariant error covariance."""

    mean: GroupElement
    cov: np.ndarray
    t: float
    stance_foot: StanceFoot = StanceFoot.LEFT


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def propagate(s: State, u: ImuStep, noise: NoiseParams,
              phi: np.ndarray | None = None,
              qc: np.ndarray | None = None) -> State:
    """Advance mean and covariance over u.dt with zero-order-hold inputs.

    Mean integration is exact for constant inputs (Gamma terms); the
    covariance step is cov+ = Phi cov Phi^T + Qd with the process noise
    mapped into invariant coordinates through the adjoint of the mean.
    """
    if not (0.0 < u.dt <= MAX_IMU_DT):
        raise FilterError(f"imu step dt {u.dt} outside (0, {MAX_IMU_DT}]")
    if not u.is_finite():
        raise FilterError(f"non-finite imu input at t={u.t}")

    dt = u.dt
    rot = s.mean.rot
    g0, g1a, g2a = gamma0_and_applied(u.gyro * dt, u.accel)
    rot_new = rot @ g0
    diff = rot_new.T @ rot_new - _EYE3
    if float((diff * diff).sum()) > _ORTHO_TOL * _ORTHO_TOL:
        rot_new = project_to_rotation(rot_new)
    cols = np.empty((3, 3))
    old = s.mean.cols
    cols[:, 0] = old[:, 0] + GRAVITY * dt + (rot @ g1a) * dt
    cols[:, 1] = (old[:, 1] + old[:, 0] * dt + 0.5 * GRAVITY * dt * dt
                  + (rot @ g2a) * dt * dt)
    cols[:, 2] = old[:, 2] + u.contact_vel * dt

    if phi is None:
        phi = state_transition(dt)
    if qc is None:
        qc = noise.process_cov()
    ad = adjoint(s.mean)
    m = phi @ ad
    cov = _symmetrize(phi @ s.cov @ phi.T + (m @ qc @ m.T) * dt)

    return State(GroupElement(rot_new, cols), cov, s.t + dt, s.stance_foot)


def update(s: State, m: InvariantMeasurement, epsilon: float) -> State:
    """Right-invariant correction with Joseph-form covariance update."""
    z = innovation(m, s.mean)
    pht = s.cov @ m.H.T
    sce = m.H @ pht + m.N + epsilon * _EYE3
    try:
        gain = np.linalg.solve(sce.T, pht.T).T
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular innovation covariance: {exc}") from exc
    if not np.all(np.isfinite(gain)):
        raise FilterError("non-finite Kalman gain (degenerate innovation covariance)")
    mean = compose(sek3_exp(gain @ z), s.mean)
    ikh = _EYE12 - gain @ m.H
    cov = _symmetrize(ikh @ s.cov @ ikh.T + gain @ m.N @ gain.T)
    return State(mean, cov, s.t, s.stance_foot)


def apply_jump(s: State, j: JumpInput, q_jump: np.ndarray | None = None) -> State:
    """Support-foot swap: d+ = d + R h_d; everything else is continuous.

    The jump map has identity Jacobian in right-invariant coordinates, so
    with zero jump noise the covariance is untouched (bit-identical);
    otherwise the tangent-space jump covariance is added through the
    adjoint of the post-jump mean.
    """
    cols = s.mean.cols.copy()
    cols[:, 2] = s.mean.foot + s.mean.rot @ j.h_d
    mean = GroupElement(s.mean.rot, cols)
    cov = s.cov
    if q_jump is not None and np.any(q_jump):
        ad = adjoint(mean)
        cov = _symmetrize(cov + ad @ q_jump @ ad.T)
    return State(mean, cov, s.t, s.stance_foot.other())


@dataclass
class ErrorMetrics:
    """Estimate-vs-truth errors: invariant tangent plus reporting scalars."""

    xi: np.ndarray
    pos_err: float
    vel_err: float
    roll_deg: float
    pitch_deg: float
    yaw_deg: float


def error_vs_truth(s: State, truth: GroupElement) -> ErrorMetrics:
    """xi = log(mean truth^-1) plus norm/Euler scalars (ZYX convention)."""
    xi = sek3_log(compose(s.mean, inverse(truth)))
    rot_err = s.mean.rot @ truth.rot.T
    yaw = math.atan2(rot_err[1, 0], rot_err[0, 0])
    pitch = -math.asin(min(1.0, max(-1.0, rot_err[2, 0])))
    roll = math.atan2(rot_err[2, 1], rot_err[2, 2])
    return ErrorMetrics(
        xi=xi,
        pos_err=float(np.linalg.norm(s.mean.pos - truth.pos)),
        vel_err=float(np.linalg.norm(s.mean.vel - truth.vel)),
        roll_deg=math.degrees(roll),
        pitch_deg=math.degrees(pitch),
        yaw_deg=math.degrees(yaw),
    )


class StreamEstimator:
    """Folds a time-ordered sensor stream through the filter.

    Holds the latest known surface pose (needed to form the orientation
    measurement) and the contact-freshness flag used by the
    on-contact-only update schedule. One instance per estimation run; not
    shared across tasks.
    """

    def __init__(self, initial: State, cfg: FilterConfig):
        self.state = initial
        self.cfg = cfg
        self.surface_rot: np.ndarray | None = None
        self._phi_cache: dict[float, np.ndarray] = {}
        self._qc = cfg.noise.process_cov()
        self._contact_fresh = True

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
        if event.t < self.state.t - _TIME_TOL:
            raise FilterError(
                f"out-of-order record at t={event.t} (filter at t={self.state.t})")

        if isinstance(event, ImuStep):
            self.state = propagate(self.state, event, self.cfg.noise,
                                   phi=self._phi(event.dt), qc=self._qc)
        elif isinstance(event, SurfacePose):
            self.surface_rot = event.rot
        elif isinstance(event, FkOrientation):
            if (self.cfg.variant is Variant.PROPOSED
                    and self.surface_rot is not None and self._updates_enabled()):
                m = orientation_measurement(self.surface_rot, event.rot,
                                            self.state.mean, self.cfg.noise)
                self.state = update(self.state, m, self.cfg.epsilon)
        elif isinstance(event, FkPosition):
            if self._updates_enabled():
                m = position_measurement(event.hp, self.state.mean, self.cfg.noise)
                self.state = update(self.state, m, self.cfg.epsilon)
            self._contact_fresh = False
        elif isinstance(event, SwapEvent):
            self.state = apply_jump(self.state, JumpInput(event.h_d),
                                    self.cfg.noise.jump_cov)
            self._contact_fresh = True
        elif isinstance(event, TruthSample):
            pass  # evaluation-only record
        else:
            raise FilterError(f"unknown stream record {type(event)!r}")
        return self.state

    def run(self, records) -> State:
        for rec in records:
            self.step(rec)
        return self.state


def state_from_truth(truth: TruthSample, cov: np.ndarray) -> State:
    return State(truth.element, np.array(cov, dtype=float), truth.t, truth.stance)
