"""Invariant EKF: propagation, right-invariant updates, and jump handling.

The mean lives on SE_3(3); the 12x12 covariance is expressed in
right-invariant error coordinates xi = log(X_true @ X_hat^-1) with block
order (xi_R, xi_v, xi_p, xi_d). The process is group-affine and its error
dynamics A are constant, so a run of IMU intervals takes one closed-form
step: the intervals' zero-order-hold strapdown maps compose ahead, from the
inputs and noise densities (`imu_terms`), Phi(a) Phi(b) = Phi(a + b) for
Phi(tau) = exp(A tau), and an `ImuStep` holds a run's terms. As
every noise is isotropic by type (`NoiseParams` holds one variance each),
the run's noise term needs no adjoint (`propagate`) and a measurement's
noise is its variance, var I in every frame (`InvariantMeasurement.var`).
Corrections are applied by left multiplication: X_hat+ = exp(K z) X_hat.

The proposed estimator fuses the foot-position kinematic measurement and
the surface-normal orientation measurement; the position-only baseline
skips the latter.

Every function works on a batch of members at once: a State's mean and
covariance may carry leading axes (one member per slice), and a record's
arrays broadcast against them. Since neither the transition matrix nor the
tick grid depends on the estimate, the trials and variants of a campaign
advance in lockstep (`StreamEstimator.fold`); an unbatched State is the
batch of one. The filter takes its streams as checked (`Stream`); of
their times it uses only the record order and each IMU interval's dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .liegroup import (
    XI_D,
    GroupElement,
    adjoint,
    compose,
    gamma0_and_applied,
    hat,
    inverse,
    project_to_rotation,
    rotation_defect,
    sek3_exp,
    sek3_log,
)
from .liegroup import matvec as _mv
from .liegroup import transposed as _T
from .models import (
    GRAVITY,
    ImuStep,
    InvariantMeasurement,
    NoiseParams,
    innovation,
    orientation_measurement,
    position_measurement,
    state_transition,
)
from .streams import (
    IMU,
    KINDS,
    RECORD_TYPES,
    TRUTH,
    FkOrientation,
    FkPosition,
    Stream,
    SurfacePose,
)

_ORTHO_TOL = 1e-9
EPSILON = 1e-9  # regularisation of the innovation covariance and of NEES
_TERMS_BLOCK = 512  # IMU intervals whose integration terms are computed together
_IMU_INPUTS = ("dt", "gyro", "accel", "contact_vel")  # imu_terms' inputs
_EYE3, _EYE12 = np.eye(3), np.eye(12)
_EPSILON_I = EPSILON * _EYE3  # what update adds to the innovation covariance
for _constant in (_EYE3, _EYE12, _EPSILON_I):
    _constant.setflags(write=False)


class FilterError(RuntimeError):
    """Numerically degenerate update (singular innovation covariance); from
    `StreamEstimator.fold`, `record` is the failing record's index in stream order."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


class Variant(Enum):
    PROPOSED = "proposed"
    POSITION_ONLY = "position-only"


@dataclass(frozen=True)
class State:
    """Filter estimate: SE_3(3) mean plus right-invariant error covariance.

    mean.rot/mean.cols (..., 3, 3) and cov (..., 12, 12) share their
    leading batch axes, one member per slice.
    """

    mean: GroupElement
    cov: np.ndarray


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _T(m))


def _shift(x: np.ndarray, s) -> np.ndarray:
    """x M(s) in place, per group [v, p, d] of x's columns (s per first index)."""
    groups = x.reshape(x.shape[:-1] + (-1, 3))  # a view: in place
    groups[..., 1] += s.reshape(s.shape + (1,) * (groups.ndim - 2)) * groups[..., 0]
    return x


# [e_v, e_d] at tau = 0 and d/dtau: sum_i dt_i e e^T = sum_m _STILL[m] sum_i dt_i tau_i^m.
_E0, _E1 = np.zeros((2, 2, 12, 3))
_E0[0, 3:6] = _E0[1, 9:] = _E1[0, 6:9] = _EYE3
_STILL = np.moveaxis([_E0 @ _T(_E0), _E0 @ _T(_E1) + _E1 @ _T(_E0), _E1 @ _T(_E1)], 1, -1)


def imu_terms(dt, gyro, accel, contact_vel, first, noise: NoiseParams):
    """The ImuStep of each run of IMU intervals, its terms composed ahead.

    Interval k maps the mean (R, cols = [v, p, d]) to (R G, R C + cols M +
    W): G = Gamma_0(gyro dt), C = [Gamma_1 accel dt, Gamma_2 accel dt^2, 0],
    M = M(dt) adds v dt to p, W = [g dt, g dt^2 / 2, contact_vel dt]; maps
    compose as (G_a G_b, G_a C_b + C_a M_b, W_a M_b + W_b). Runs (time axis
    first) start at interval 0 and the true entries of `first`. Yields, as
    taken, views of what `propagate` reads: per interval (axis -3), the
    carried noise arguments, the map up to its start drifted with zero input
    to its run's end (C, W), and sg^2 dt; per run, its map ([G | C], W),
    M(T), Phi(T) and the sum of (sa^2 e_v e_v^T + sc^2 e_d e_d^T) dt.
    """
    dt = np.asarray(dt, dtype=float)
    n = len(dt)
    col = dt.reshape(dt.shape + (1,) * (np.ndim(gyro) - dt.ndim))
    g0, g1a, g2a = gamma0_and_applied(gyro * col, accel)
    maps, tau = np.zeros(g0.shape[:-1] + (9,)), dt.copy()  # [G | C | W], its time
    maps[..., :3] = g0
    maps[..., 3] = g1a * col
    maps[..., 4] = g2a * col * col
    maps[..., 6] = GRAVITY * col
    maps[..., 7] = 0.5 * GRAVITY * col * col
    maps[..., 8] = contact_vel * col
    # Segmented inclusive scan: after the pass with hop h, each interval
    # holds the composition of the last 2h intervals of its run up to it.
    first = np.array(first, bool)
    first[0] = True  # a block of intervals that opens inside a run starts one
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    pos = np.arange(n) - starts[run]
    hop, last = 1, pos.max()
    while hop <= last:  # a: the earlier map; then b, composed in place
        k = np.flatnonzero(pos >= hop)
        a, b = maps[k - hop], maps[k]
        gb = a[..., :3] @ b[..., :6]
        _shift(a[..., 3:], tau[k])
        a[..., 3:6] += gb[..., 3:]
        a[..., :3], a[..., 6:] = gb[..., :3], a[..., 6:] + b[..., 6:]
        maps[k], tau[k], hop = a, tau[k - hop] + tau[k], 2 * hop
    # The map up to each interval's start, then the drift to its run's end.
    ends = np.append(starts[1:], n) - 1
    rest = tau[ends][run] - tau + dt
    later = np.flatnonzero(~first)
    carried = np.zeros(maps.shape[:-1] + (6,))
    carried[later] = maps[later - 1, ..., 3:]
    _shift(carried, rest)
    carried[..., 3] += GRAVITY * rest.reshape(col.shape)
    carried[..., 4] += 0.5 * GRAVITY * (rest * rest).reshape(col.shape)
    moments = np.add.reduceat(dt[:, None] * rest[:, None] ** [0, 1, 2], starts)
    shift = _EYE3 + tau[ends, None, None] * np.outer(_EYE3[0], _EYE3[1])
    run_maps = maps[ends]
    still = np.tensordot(moments, _STILL, 1) @ (noise.accel_density,
                                                noise.contact_vel_density)
    runs = zip(run_maps[..., :6], run_maps[..., 6:], shift,
               state_transition(tau[ends]), still)
    carried = np.moveaxis(carried, 0, -3)  # the interval axis next to the matrices
    carried_c, carried_w = carried[..., :3], carried[..., 3:]
    weight = (noise.gyro_density * dt)[:, None, None]
    return (ImuStep(((carried_c[..., i:j, :, :], carried_w[..., i:j, :, :], weight[i:j]),
                     run))
            for i, j, run in zip(starts.tolist(), (ends + 1).tolist(), runs))


def propagate(s: State, u: ImuStep) -> State:
    """Advance mean and covariance over the run of IMU intervals u.

    One closed-form step, from u.terms (`imu_terms`) and the run's start
    (R0, cols0), its rotation re-projected if it drifted: the mean
    moves to (R0 G, R0 C + cols0 M(T) + W), the covariance to Phi(T) cov
    Phi(T)^T + sum_i Phi(tau_i) Ad_i Qc Ad_i^T Phi(tau_i)^T dt_i, Ad_i at
    interval i's start, tau_i from there to the run's end. The densities of
    the `NoiseParams` that u.terms were made with give Qc = diag(sg^2 I,
    sa^2 I, 0, sc^2 I), and R sg^2 I R^T = sg^2 I: term i is sg^2 Z_i
    Z_i^T + E_i diag(sa^2 I, sc^2 I) E_i^T, Z_i = [I; hat(v + g tau_i);
    hat(p + tau_i v + g tau_i^2 / 2); hat(d)] at the mean's columns there,
    E_i = [e_v | e_d] = [0, 0; I, 0; tau_i I, 0; 0, I]: no adjoint.
    """
    (carried_c, carried_w, weight), (body, offset, shift, phi, still) = u.terms
    rot, cols = s.mean.rot, s.mean.cols
    # Every member is within tolerance when no entry of R^T R - I exceeds
    # a third of it (the Frobenius norm is at most 3 times that).
    if np.count_nonzero(np.abs(_T(rot) @ rot - _EYE3) > _ORTHO_TOL / 3.0):
        drifted = rotation_defect(rot) > _ORTHO_TOL
        rot = np.where(drifted[..., None, None], project_to_rotation(rot), rot)
    moved = cols @ shift
    rotated = rot @ body
    mean = GroupElement(rotated[..., :3], rotated[..., 3:] + moved + offset)
    # The Z_i arguments, the interval axis before the matrix axes: the
    # inputs' axes before it are the state's last.
    args = rot[..., None, :, :] @ carried_c + carried_w + moved[..., None, :, :]
    z = np.empty(args.shape[:-2] + (12, 3))
    z[..., :3, :] = _EYE3
    z[..., 3:, :] = hat(_T(args)).reshape(args.shape[:-2] + (9, 3))
    noise_cov = ((z * weight) @ _T(z)).sum(-3) + still
    cov = _symmetrize(phi @ s.cov @ _T(phi) + noise_cov)
    return State(mean, cov)


def update(s: State, m: InvariantMeasurement) -> State:
    """Right-invariant correction with Joseph-form covariance update.

    m.H is the Jacobian's block on the columns m.cols, zero elsewhere: P H^T,
    H P H^T and I - K H (I but on m.cols) read those columns alone, each equal
    to the dense product bit for bit. The noise m.var I adds m.var I to the
    innovation covariance S and K m.var K^T to the Joseph form; EPSILON I, to S.
    """
    z = innovation(m, s.mean)
    pht = s.cov[..., m.cols] @ _T(m.H)
    sce = m.H @ pht[..., m.cols, :] + m.var * _EYE3 + _EPSILON_I
    try:
        gain = _T(np.linalg.solve(_T(sce), _T(pht)))
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"singular innovation covariance: {exc}") from exc
    if np.count_nonzero(np.isfinite(gain)) < gain.size:
        raise FilterError("non-finite Kalman gain (degenerate innovation covariance)")
    mean = compose(sek3_exp(_mv(gain, z)), s.mean)
    ikh = np.empty(gain.shape[:-2] + (12, 12))
    ikh[...] = _EYE12
    ikh[..., m.cols] -= gain @ m.H
    joseph = ikh @ s.cov @ _T(ikh)
    joseph += (gain * m.var) @ _T(gain)
    return State(mean, _symmetrize(joseph))


def apply_jump(s: State, h_d: np.ndarray, jump_pos_var: float) -> State:
    """Support-foot swap: d+ = d + R h_d; everything else is continuous.

    h_d is the new-foot position relative to the old, in the base frame. The
    jump map has identity Jacobian in right-invariant coordinates, so with
    zero jump noise the covariance is untouched (bit-identical); otherwise
    the foot-offset variance is added through the xi_d columns Ad_d of the
    post-jump mean's adjoint: jump_pos_var Ad_d Ad_d^T, which numpy computes
    exactly symmetric, so a symmetric covariance stays so bit for bit.
    """
    cols = s.mean.cols.copy()
    cols[..., 2] = s.mean.foot + _mv(s.mean.rot, h_d)
    mean = GroupElement(s.mean.rot, cols)
    cov = s.cov
    if jump_pos_var:
        ad = adjoint(mean)[..., XI_D]
        cov = cov + jump_pos_var * (ad @ _T(ad))
    return State(mean, cov)


def _on_rows(s: State, rows: slice, step) -> State:
    """`step` applied to the members at `rows` of the state's first axis."""
    if rows == slice(None):
        return step(s)
    part = step(State(GroupElement(s.mean.rot[rows], s.mean.cols[rows]), s.cov[rows]))
    rot, cols, cov = s.mean.rot.copy(), s.mean.cols.copy(), s.cov.copy()
    rot[rows], cols[rows], cov[rows] = part.mean.rot, part.mean.cols, part.cov
    return State(GroupElement(rot, cols), cov)


def error_vs_truth(mean: GroupElement,
                   truth: GroupElement) -> tuple[GroupElement, np.ndarray]:
    """The invariant error of mean against truth: mean truth^-1 and its log xi."""
    err = compose(mean, inverse(truth))
    return err, sek3_log(err)


class StreamEstimator:
    """Folds a time-ordered sensor stream through the filter.

    The state may be a batch of members that see the same records in
    lockstep. `variants` names the variant of each index of the state's
    first axis (one variant for an unbatched state); orientation updates
    reach only the proposed ones, and every kinematic record corrects each
    member it reaches. Holds the latest surface pose (a Stream has one
    before its first fk_rot record). One instance per estimation run; not
    shared across tasks.
    """

    def __init__(self, initial: State, noise: NoiseParams,
                 variants: tuple[Variant, ...]):
        self.state = initial
        self.noise = noise
        self.surface_rot: np.ndarray | None = None
        # Members that take orientation updates: all, none, or one row.
        self._orient_rows = None
        if set(variants) == {Variant.PROPOSED}:
            self._orient_rows = slice(None)
        elif Variant.PROPOSED in variants:
            row = variants.index(Variant.PROPOSED)
            self._orient_rows = slice(row, row + 1)

    def step(self, event) -> None:
        """Route an IMU run (an ImuStep, from `fold`) or a SurfacePose,
        FkOrientation, FkPosition or SwapEvent into `self.state`."""
        noise = self.noise
        if isinstance(event, ImuStep):
            self.state = propagate(self.state, event)
        elif isinstance(event, SurfacePose):
            self.surface_rot = event.rot
        elif isinstance(event, FkOrientation):
            if self._orient_rows is not None:
                m = orientation_measurement(self.surface_rot, event.rot, noise)
                self.state = _on_rows(self.state, self._orient_rows,
                                      lambda s: update(s, m))
        elif isinstance(event, FkPosition):
            self.state = update(self.state, position_measurement(event.hp, noise))
        else:  # a SwapEvent
            self.state = apply_jump(self.state, event.h_d, noise.jump_pos_var)

    def fold(self, stream: Stream):
        """Route a columnar stream through `step`, each IMU run at once.

        A generator: yields the index of each truth sample (not routed)
        while the state is the estimate at its time. A FilterError names
        the record that raised it by its kind and time, and carries its
        index in stream order as `record`. A run of consecutive
        IMU records is one ImuStep of at most _TERMS_BLOCK intervals, whose
        integration terms are computed ahead _TERMS_BLOCK intervals at once:
        such a step is a run of its terms block, the block's runs taken in
        order. Any other record is built from its kind's times, as a list,
        and its value column (`RECORD_TYPES`).
        """
        imu, kinds = stream.columns["imu"], stream.kinds
        opens = np.diff(kinds == IMU, prepend=False)[kinds == IMU]  # starts a run
        edges = np.flatnonzero(np.diff(kinds, prepend=-1, append=-1))  # kind runs
        # Plain ints as they are taken: a memoryview yields ints, not numpy scalars.
        runs = zip(*map(memoryview, (edges[:-1], edges[1:], kinds[edges[:-1]])))
        seen, end = [0] * len(KINDS), 0  # end: first interval without terms
        for first, stop, code in runs:
            k, seen[code] = seen[code], seen[code] + stop - first
            if code == TRUTH:
                yield from range(k, seen[code])
                continue
            if code != IMU:
                (cls, name), c = RECORD_TYPES[code], stream.columns[KINDS[code]]
                records = zip(c["t"][k:seen[code]].tolist(), c[name][k:seen[code]])
                try:
                    for i, (t, value) in enumerate(records, first):
                        self.step(cls(t, value))
                except FilterError as exc:  # within a kind, a time names one record
                    message = f"{KINDS[code]} record at t={t:.9g}: {exc}"
                    raise FilterError(message, i) from exc
                continue
            for a in range(k, seen[code], _TERMS_BLOCK):
                if min(a + _TERMS_BLOCK, seen[code]) > end:
                    end = a + _TERMS_BLOCK
                    steps = imu_terms(*(imu[name][a:end] for name in _IMU_INPUTS),
                                      opens[a:end], self.noise)
                self.step(next(steps))
