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

from .liegroup import so3_exp, so3_left_jacobian, so3_log
from .liegroup import matvec as _mv
from .liegroup import transposed as _T
from .models import GRAVITY, NoiseParams, check_fields, param
from .streams import (
    FK_POS,
    FK_ROT,
    IMU,
    KINDS,
    SURFACE,
    SWAP,
    TRUTH,
    Stream,
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
    are [n*step_period, (n+1)*step_period); foot_pos takes the stance
    index explicitly so callers control behaviour across swaps.
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

    # -- surface ------------------------------------------------------------

    def surface_angle(self, t):
        t = np.asarray(t, dtype=float)
        return self.surf.pitch_amplitude * np.sin(self.surf.pitch_angular_freq * t)

    def surface_rot(self, t):
        return _ry_batch(self.surface_angle(t))

    # -- stance feet ----------------------------------------------------------

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


def synthesize_sensors(truth: TruthTrajectory, noise: NoiseParams,
                       rates: Rates = Rates(), seed: int = 0) -> Stream:
    """Build the full sensor stream from a truth trajectory.

    IMU gyro/accel and the contact velocity are the exact inverses of the
    filter's discrete propagation between ticks (plus seeded noise), which
    makes the noiseless stream self-consistent end to end. Kinematic and
    surface records are emitted on the kinematics grid; swaps land on grid
    ticks and are accompanied by a truth sample. The Stream is built, and so
    checked, once the intermediates are freed, off the peak of memory.
    """
    return Stream(*_sensor_columns(truth, noise, rates, seed))


def _sensor_columns(truth, noise, rates, seed) -> tuple:
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
    swaps = np.arange(swap_stride, n_imu, swap_stride)
    kin = np.arange(0, n_imu + 1, kin_stride)
    # Stance active at each tick, consistent with the swaps actually emitted
    # (no swap at the final tick even if it lands on a stance boundary).
    stance_idx = np.minimum(ticks // swap_stride, len(swaps))

    rot = truth.base_rot(times)          # (N+1, 3, 3)
    vel = truth.base_vel(times)
    pos = truth.base_pos(times)
    rs = truth.surface_rot(times)
    # Foot position at each tick with its own stance, and with the previous
    # stance (needed for the swap offset; differs only at swap ticks).
    foot_own = np.empty((n_imu + 1, 3))
    for idx in range(int(stance_idx[-1]) + 1):
        mask = stance_idx == idx
        foot_own[mask] = truth.foot_pos(times[mask], idx)
    foot_prev = np.empty((len(swaps), 3))
    for i, k in enumerate(swaps):
        foot_prev[i] = truth.foot_pos(times[k], int(stance_idx[k]) - 1)

    # Exact-inverse IMU synthesis: gyro from the tick-to-tick rotation,
    # accel from the velocity increment through Gamma_1, contact velocity
    # from the foot displacement within the step's stance interval.
    gyro = so3_log(_T(rot[:-1]) @ rot[1:]) / dt
    jl = so3_left_jacobian(gyro * dt)
    rhs = vel[1:] - vel[:-1] - GRAVITY * dt
    accel = np.linalg.solve(rot[:-1] @ jl * dt, rhs[..., None])[..., 0]
    foot_next = np.empty((n_imu, 3))
    for idx in range(int(stance_idx[-1]) + 1):
        mask = stance_idx[:-1] == idx
        if np.any(mask):
            foot_next[mask] = truth.foot_pos(times[1:][mask], idx)
    contact_vel = (foot_next - foot_own[:-1]) / dt

    rng = np.random.default_rng(seed)
    gyro_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.gyro_cov / dt).T
    accel_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.accel_cov / dt).T
    cvel_n = rng.standard_normal((n_imu, 3)) @ _psd_sqrt(noise.contact_vel_cov / dt).T
    fk_n = rng.standard_normal((len(kin), 3)) @ _psd_sqrt(noise.fk_pos_cov).T
    orient_n = rng.standard_normal((len(kin), 3)) @ _psd_sqrt(noise.surface_orient_cov).T
    hd_n = rng.standard_normal((len(swaps), 3)) @ _psd_sqrt(noise.jump_cov[9:12, 9:12]).T

    # Records present at each tick, in the co-timestamp order of KINDS.
    present = np.zeros((n_imu + 1, len(KINDS)), dtype=bool)
    present[swaps, SWAP] = True
    present[kin, TRUTH] = present[kin, SURFACE] = True
    present[kin, FK_ROT] = present[kin, FK_POS] = True
    present[:-1, IMU] = True
    kinds = np.nonzero(present)[1].astype(np.int8)

    rot_k = _T(rot[kin])
    columns = {
        "swap": {"t": times[swaps],
                 "h_d": _mv(_T(rot[swaps]), foot_own[swaps] - foot_prev) + hd_n},
        "truth": {"t": times[kin], "rot": rot[kin], "vel": vel[kin], "pos": pos[kin],
                  "foot": foot_own[kin], "stance": stance_idx[kin] % 2},
        "surface": {"t": times[kin], "rot": rs[kin]},
        "fk_rot": {"t": times[kin], "rot": rot_k @ rs[kin] @ so3_exp(orient_n)},
        "fk_pos": {"t": times[kin],
                   "hp": _mv(rot_k, foot_own[kin] - pos[kin]) + fk_n},
        "imu": {"t": times[:-1], "dt": np.full(n_imu, dt),
                "gyro": gyro + gyro_n, "accel": accel + accel_n,
                "contact_vel": contact_vel + cvel_n},
    }
    return kinds, columns
