"""Synthetic walking-on-a-rocking-treadmill scenario.

Generates an analytic ground-truth trajectory (smooth base motion, stance
feet rigidly attached to the moving surface, alternating every step) and
synthesizes the sensor stream from it. IMU and contact-velocity samples are
produced by inverting the filter's zero-order-hold propagation between
consecutive ticks, so a noiseless stream folded through the filter from the
true initial state reproduces the truth to integration roundoff.

Forward kinematics (hp, foot orientation, swap offsets) are synthesized
directly from the geometry rather than from a joint chain; the contact
velocity is provided directly in the world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegroup import group_element, so3_exp
from .models import GRAVITY, ImuStep, NoiseParams, check_fields, param
from .streams import (
    FkOrientation,
    FkPosition,
    StanceFoot,
    StreamRecord,
    SurfacePose,
    SwapEvent,
    TruthSample,
)

__all__ = [
    "SurfaceConfig", "GaitConfig", "Rates", "TruthTrajectory",
    "generate_truth", "synthesize_sensors",
]

MAX_PITCH_AMPLITUDE = 0.3  # rad


@dataclass(frozen=True)
class SurfaceConfig:
    """Rocking-surface motion: pitch angle amplitude * sin(freq * t) about y."""

    pitch_amplitude: float = param(math.radians(3.0), lo=0.0,
                                   hi=MAX_PITCH_AMPLITUDE)
    pitch_angular_freq: float = param(1.5 * math.pi, lo=0.0)
    pivot: tuple[float, float, float] = param((0.0, 0.0, 0.0))
    belt_speed: float = param(0.0)

    def __post_init__(self):
        check_fields(self)

    @property
    def pivot_vec(self) -> np.ndarray:
        return np.asarray(self.pivot, dtype=float)


@dataclass(frozen=True)
class GaitConfig:
    """Invented in-place walking gait; shapes excitation, not correctness."""

    step_period: float = param(0.6, lo=1e-3)
    step_length: float = param(0.25, lo=0.0)
    stance_width: float = param(0.2, lo=0.0)
    base_height: float = param(0.95, lo=0.0)
    sway_amplitude: float = param(0.03, lo=0.0)
    bob_amplitude: float = param(0.015, lo=0.0)
    surge_amplitude: float = param(0.01, lo=0.0)
    lean_amplitude_deg: float = param(3.0, lo=0.0)
    duration: float = param(30.0, lo=1e-3)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Rates:
    imu_hz: int = param(400, lo=1)
    kin_hz: int = param(100, lo=1)

    def __post_init__(self):
        check_fields(self)
        if self.imu_hz % self.kin_hz != 0:
            raise ValueError("imu_hz: must be an integer multiple of kin_hz")


def _ry_batch(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    return out


class TruthTrajectory:
    """Analytic ground truth: base motion plus surface-locked stance feet.

    All evaluators accept scalar or 1-D arrays of times. Stance intervals
    are [n*step_period, (n+1)*step_period); foot_pos/foot_vel take the
    stance index explicitly so callers control behaviour across swaps.
    """

    def __init__(self, gait: GaitConfig, surf: SurfaceConfig,
                 phases: np.ndarray | None = None):
        self.gait = gait
        self.surf = surf
        self.phases = np.zeros(5) if phases is None else np.asarray(phases, float)
        stride = 2.0 * gait.step_period
        self._w_sway = 2.0 * math.pi / stride
        self._w_bob = 2.0 * self._w_sway
        self._lean = math.radians(gait.lean_amplitude_deg)

    # -- base ---------------------------------------------------------------

    def _osc(self, t):
        ph = self.phases
        g = self.gait
        surge = g.surge_amplitude, self._w_bob, ph[0]
        sway = g.sway_amplitude, self._w_sway, ph[1]
        bob = g.bob_amplitude, self._w_bob, ph[2]
        return surge, sway, bob

    def base_pos(self, t):
        t = np.asarray(t, dtype=float)
        (ax, wx, px), (ay, wy, py), (az, wz, pz) = self._osc(t)
        return np.stack([ax * np.sin(wx * t + px),
                         ay * np.sin(wy * t + py),
                         self.gait.base_height + az * np.sin(wz * t + pz)], axis=-1)

    def base_vel(self, t):
        t = np.asarray(t, dtype=float)
        (ax, wx, px), (ay, wy, py), (az, wz, pz) = self._osc(t)
        return np.stack([ax * wx * np.cos(wx * t + px),
                         ay * wy * np.cos(wy * t + py),
                         az * wz * np.cos(wz * t + pz)], axis=-1)

    def base_acc(self, t):
        t = np.asarray(t, dtype=float)
        (ax, wx, px), (ay, wy, py), (az, wz, pz) = self._osc(t)
        return np.stack([-ax * wx * wx * np.sin(wx * t + px),
                         -ay * wy * wy * np.sin(wy * t + py),
                         -az * wz * wz * np.sin(wz * t + pz)], axis=-1)

    def _roll_pitch(self, t):
        roll = self._lean * np.sin(self._w_sway * t + self.phases[3])
        pitch = 0.5 * self._lean * np.sin(self._w_bob * t + self.phases[4])
        return roll, pitch

    def base_rot(self, t):
        """R = Ry(pitch) Rx(roll); heading fixed, ZYX yaw exactly zero."""
        t = np.asarray(t, dtype=float)
        a, b = self._roll_pitch(t)
        ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        out = np.zeros(t.shape + (3, 3))
        out[..., 0, 0] = cb
        out[..., 0, 1] = sb * sa
        out[..., 0, 2] = sb * ca
        out[..., 1, 1] = ca
        out[..., 1, 2] = -sa
        out[..., 2, 0] = -sb
        out[..., 2, 1] = cb * sa
        out[..., 2, 2] = cb * ca
        return out

    def omega_body(self, t):
        """Body-frame angular velocity of the base (analytic)."""
        t = np.asarray(t, dtype=float)
        a, _ = self._roll_pitch(t)
        da = self._lean * self._w_sway * np.cos(self._w_sway * t + self.phases[3])
        db = 0.5 * self._lean * self._w_bob * np.cos(self._w_bob * t + self.phases[4])
        return np.stack([da, db * np.cos(a), -db * np.sin(a)], axis=-1)

    # -- surface ------------------------------------------------------------

    def surface_angle(self, t):
        t = np.asarray(t, dtype=float)
        return self.surf.pitch_amplitude * np.sin(self.surf.pitch_angular_freq * t)

    def surface_rot(self, t):
        return _ry_batch(self.surface_angle(t))

    def surface_omega(self, t):
        t = np.asarray(t, dtype=float)
        rate = (self.surf.pitch_amplitude * self.surf.pitch_angular_freq
                * np.cos(self.surf.pitch_angular_freq * t))
        out = np.zeros(t.shape + (3,))
        out[..., 1] = rate
        return out

    # -- stance feet ----------------------------------------------------------

    def stance_index(self, t) -> int:
        return int(math.floor(float(t) / self.gait.step_period + 1e-9))

    def stance_foot(self, index: int) -> StanceFoot:
        return StanceFoot.LEFT if index % 2 == 0 else StanceFoot.RIGHT

    def foot_anchor(self, index: int) -> np.ndarray:
        """Surface-local coordinates of the stance foot for one step."""
        sign = 1.0 if index % 2 == 0 else -1.0
        local = np.array([0.5 * self.gait.step_length * sign,
                          0.5 * self.gait.stance_width * sign,
                          0.0])
        return local - self.surf.pivot_vec

    def _local(self, t, index: int):
        t = np.asarray(t, dtype=float)
        drift = self.surf.belt_speed * (t - index * self.gait.step_period)
        local = np.broadcast_to(self.foot_anchor(index), t.shape + (3,)).copy()
        local[..., 0] -= drift
        return local

    def foot_pos(self, t, index: int):
        """World position of the stance foot, rigidly following the surface."""
        rs = self.surface_rot(t)
        local = self._local(t, index)
        return self.surf.pivot_vec + np.einsum("...ij,...j->...i", rs, local)

    def foot_vel(self, t, index: int):
        """Analytic world velocity: omega_s x (d - pivot) + belt term."""
        rs = self.surface_rot(t)
        local = self._local(t, index)
        arm = np.einsum("...ij,...j->...i", rs, local)
        belt_local = np.array([-self.surf.belt_speed, 0.0, 0.0])
        belt = np.einsum("...ij,j->...i", rs, belt_local)
        return np.cross(self.surface_omega(t), arm) + belt

    def swap_times(self) -> np.ndarray:
        n = int(math.ceil(self.gait.duration / self.gait.step_period))
        times = np.arange(1, n) * self.gait.step_period
        return times[times < self.gait.duration - 1e-9]


def generate_truth(gait: GaitConfig, surf: SurfaceConfig,
                   seed: int = 0) -> TruthTrajectory:
    """Truth trajectory; the seed randomizes gait oscillation phases only."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=5)
    return TruthTrajectory(gait, surf, phases)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix (tolerates zero eigenvalues)."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=float))
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _batched_small_log(dr: np.ndarray) -> np.ndarray:
    """so3_log for a batch of near-identity rotations (angle << 1)."""
    skew = 0.5 * np.stack([dr[:, 2, 1] - dr[:, 1, 2],
                           dr[:, 0, 2] - dr[:, 2, 0],
                           dr[:, 1, 0] - dr[:, 0, 1]], axis=-1)
    sin_norm = np.linalg.norm(skew, axis=-1)
    cos_theta = 0.5 * (np.trace(dr, axis1=1, axis2=2) - 1.0)
    theta = np.arctan2(sin_norm, cos_theta)
    if np.any(theta > 0.05):
        raise ValueError("per-tick rotation too large for small-angle synthesis")
    t2 = theta * theta
    factor = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    return skew * factor[:, None]


def _batched_left_jacobian(w: np.ndarray) -> np.ndarray:
    """J_l for a batch of small rotation vectors (series coefficients)."""
    t2 = np.einsum("ij,ij->i", w, w)
    b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    k = np.zeros(w.shape[:1] + (3, 3))
    k[:, 0, 1] = -w[:, 2]
    k[:, 0, 2] = w[:, 1]
    k[:, 1, 0] = w[:, 2]
    k[:, 1, 2] = -w[:, 0]
    k[:, 2, 0] = -w[:, 1]
    k[:, 2, 1] = w[:, 0]
    return np.eye(3) + b[:, None, None] * k + c[:, None, None] * (k @ k)


def synthesize_sensors(truth: TruthTrajectory, noise: NoiseParams,
                       rates: Rates = Rates(), seed: int = 0) -> list[StreamRecord]:
    """Build the full sensor stream from a truth trajectory.

    IMU gyro/accel and the contact velocity are the exact inverses of the
    filter's discrete propagation between ticks (plus seeded noise), which
    makes the noiseless stream self-consistent end to end. Kinematic and
    surface records are emitted on the kinematics grid; swaps land on grid
    ticks and are accompanied by a truth sample.
    """
    gait, surf = truth.gait, truth.surf
    dt = 1.0 / rates.imu_hz
    n_imu = int(round(gait.duration * rates.imu_hz))
    if abs(n_imu - gait.duration * rates.imu_hz) > 1e-6:
        raise ValueError("duration must be an integer number of imu ticks")
    kin_stride = rates.imu_hz // rates.kin_hz
    swap_float = gait.step_period * rates.imu_hz
    swap_stride = int(round(swap_float))
    if abs(swap_stride - swap_float) > 1e-6 or swap_stride == 0:
        raise ValueError("step_period must be an integer number of imu ticks")
    if swap_stride % kin_stride != 0:
        raise ValueError("step_period must land on the kinematics grid")

    ticks = np.arange(n_imu + 1)
    times = ticks / rates.imu_hz
    swap_ticks = [k for k in range(swap_stride, n_imu, swap_stride)]
    # Stance active at each tick, consistent with the swaps actually emitted
    # (no swap at the final tick even if it lands on a stance boundary).
    stance_idx = np.minimum(ticks // swap_stride, len(swap_ticks))

    rot = truth.base_rot(times)          # (N+1, 3, 3)
    vel = truth.base_vel(times)
    pos = truth.base_pos(times)
    rs = truth.surface_rot(times)
    # Foot position at each tick with its own stance, and with the previous
    # stance (needed for the swap offset; differs only at swap ticks).
    foot_own = np.empty((n_imu + 1, 3))
    foot_prev = np.empty((n_imu + 1, 3))
    for idx in range(int(stance_idx[-1]) + 1):
        mask = stance_idx == idx
        foot_own[mask] = truth.foot_pos(times[mask], idx)
    foot_prev[:] = foot_own
    for k in swap_ticks:
        foot_prev[k] = truth.foot_pos(times[k], int(stance_idx[k]) - 1)

    # Exact-inverse IMU synthesis: gyro from the tick-to-tick rotation,
    # accel from the velocity increment through Gamma_1, contact velocity
    # from the foot displacement within the step's stance interval.
    dr = np.einsum("nji,njk->nik", rot[:-1], rot[1:])
    gyro = _batched_small_log(dr) / dt
    jl = _batched_left_jacobian(gyro * dt)
    rhs = vel[1:] - vel[:-1] - GRAVITY * dt
    accel = np.linalg.solve(rot[:-1] @ jl * dt, rhs[..., None])[..., 0]
    foot_next = np.empty((n_imu, 3))
    for idx in range(int(stance_idx[-1]) + 1):
        mask = stance_idx[:-1] == idx
        if np.any(mask):
            foot_next[mask] = truth.foot_pos(times[1:][mask], idx)
    contact_vel = (foot_next - foot_own[:-1]) / dt

    kin_ticks = [k for k in range(0, n_imu + 1, kin_stride)]
    rng = np.random.default_rng(seed)
    gyro_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.gyro_cov / dt).T
    accel_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.accel_cov / dt).T
    cvel_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.contact_vel_cov / dt).T
    fk_n = rng.standard_normal((len(kin_ticks), 3)) @ _psd_sqrt(noise.fk_pos_cov).T
    orient_n = rng.standard_normal((len(kin_ticks), 3)) @ _psd_sqrt(noise.surface_orient_cov).T
    hd_n = rng.standard_normal((len(swap_ticks), 3)) @ _psd_sqrt(noise.jump_cov[9:12, 9:12]).T

    records: list[StreamRecord] = []
    kin_count = 0
    swap_count = 0
    for k in range(n_imu + 1):
        t = times[k]
        if k > 0 and k % swap_stride == 0 and k < n_imu:
            h_d = rot[k].T @ (foot_own[k] - foot_prev[k]) + hd_n[swap_count]
            records.append(SwapEvent(t, h_d))
            swap_count += 1
        if k % kin_stride == 0:
            element = group_element(rot[k], vel[k], pos[k], foot_own[k])
            records.append(TruthSample(t, element,
                                       truth.stance_foot(int(stance_idx[k]))))
            records.append(SurfacePose(t, rs[k]))
            foot_rot = rot[k].T @ rs[k] @ so3_exp(orient_n[kin_count])
            records.append(FkOrientation(t, foot_rot))
            hp = rot[k].T @ (foot_own[k] - pos[k]) + fk_n[kin_count]
            records.append(FkPosition(t, hp))
            kin_count += 1
        if k < n_imu:
            records.append(ImuStep(t, dt, gyro[k] + gyro_n[k],
                                   accel[k] + accel_n[k],
                                   contact_vel[k] + cvel_n[k]))
    return records
