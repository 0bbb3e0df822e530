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
from .models import GRAVITY, ConfigError, NoiseParams, check_fields, param
from .streams import (
    FK_POS,
    FK_ROT,
    IMU,
    KINDS,
    MAX_IMU_DT,
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
_BLOCK = 2048  # IMU intervals synthesized at once


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

    def ticks(self, rates: Rates) -> tuple[int, int, int]:
        """The IMU ticks of the duration, of a kinematics interval and of a step.

        Raises ConfigError naming `gait.duration` or `gait.step_period` off the grid.
        """
        n_imu = int(round(self.duration * rates.imu_hz))
        if abs(n_imu - self.duration * rates.imu_hz) > 1e-6:
            raise ConfigError("gait.duration: must be an integer number of imu ticks")
        kin_stride = rates.imu_hz // rates.kin_hz
        swap_float = self.step_period * rates.imu_hz
        swap_stride = int(round(swap_float))
        if abs(swap_stride - swap_float) > 1e-6 or swap_stride == 0:
            raise ConfigError("gait.step_period: must be an integer number of imu ticks")
        if swap_stride % kin_stride != 0:
            raise ConfigError("gait.step_period: must land on the kinematics grid")
        return n_imu, kin_stride, swap_stride


@dataclass(frozen=True)
class Rates:
    imu_hz: int = param(400, lo=math.ceil(1.0 / MAX_IMU_DT))  # dt <= MAX_IMU_DT
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
    index explicitly, an int or an array matching the times, so callers
    control behaviour across swaps. The base makes five oscillations
    (surge, sway, bob, roll, pitch), `amplitude * sin(angular_freq * t +
    phases)` each, in metres and radians.
    """

    def __init__(self, gait: GaitConfig, surf: SurfaceConfig, phases: np.ndarray):
        self.gait = gait
        self.surf = surf
        self.phases = np.asarray(phases, float)
        w = 2.0 * math.pi / (2.0 * gait.step_period)  # once a stride (two steps)
        lean = math.radians(gait.lean_amplitude_deg)
        self.amplitude, self.angular_freq = np.array([
            (gait.surge_amplitude, 2.0 * w), (gait.sway_amplitude, w),
            (gait.bob_amplitude, 2.0 * w), (lean, w), (0.5 * lean, 2.0 * w)]).T

    # -- base ---------------------------------------------------------------

    def _angle(self, t, axes: slice):
        """The oscillations `axes` at times t, their phase angles on a last axis."""
        t = np.asarray(t, dtype=float)[..., None]
        return self.angular_freq[axes] * t + self.phases[axes]

    def base_pos(self, t):
        pos = self.amplitude[:3] * np.sin(self._angle(t, slice(3)))
        pos[..., 2] += self.gait.base_height
        return pos

    def base_vel(self, t):
        return self.amplitude[:3] * self.angular_freq[:3] * np.cos(self._angle(t, slice(3)))

    def base_rot(self, t):
        """R = Ry(pitch) Rx(roll); heading fixed, ZYX yaw exactly zero."""
        roll_pitch = self.amplitude[3:] * np.sin(self._angle(t, slice(3, 5)))
        c, s = np.cos(roll_pitch), np.sin(roll_pitch)
        ca, cb, sa, sb = c[..., 0], c[..., 1], s[..., 0], s[..., 1]
        out = np.zeros(np.shape(t) + (3, 3))
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

    def surface_rot(self, t):
        surf, t = self.surf, np.asarray(t, dtype=float)
        return _ry_batch(surf.pitch_amplitude * np.sin(surf.pitch_angular_freq * t))

    # -- stance feet ----------------------------------------------------------

    def _local(self, t, index):
        """Surface-local stance-foot coordinates, relative to the pivot.

        Stance n sits at +-(step_length, stance_width) / 2 (+ for even n),
        carried back by the belt from the start of its stance interval.
        """
        t, index = np.broadcast_arrays(np.asarray(t, dtype=float), index)
        sign = np.where(index % 2 == 0, 1.0, -1.0)
        g, pivot = self.gait, self.surf.pivot_vec
        drift = self.surf.belt_speed * (t - index * g.step_period)
        # The order (anchor, minus the pivot, minus the drift) fixes the
        # output bits; 0.0 - p keeps a zero pivot's z at +0.0.
        return np.stack([(0.5 * g.step_length * sign - pivot[0]) - drift,
                         0.5 * g.stance_width * sign - pivot[1],
                         np.full(t.shape, 0.0 - pivot[2])], axis=-1)

    def foot_pos(self, t, index):
        """World position of stance `index` at t, rigidly following the surface."""
        rs = self.surface_rot(t)
        local = self._local(t, index)
        return self.surf.pivot_vec + np.einsum("...ij,...j->...i", rs, local)


def generate_truth(gait: GaitConfig, surf: SurfaceConfig,
                   seed: int = 0) -> TruthTrajectory:
    """Truth trajectory; the seed randomizes gait oscillation phases only."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=5)
    return TruthTrajectory(gait, surf, phases)


def synthesize_sensors(truths: list[TruthTrajectory], noise: NoiseParams,
                       rates: Rates, seeds: list[int]) -> Stream:
    """Build the sensor streams of truths with one gait, side by side.

    IMU gyro/accel and the contact velocity are the exact inverses of the
    filter's discrete propagation between ticks (plus seeded noise), which
    makes the noiseless stream self-consistent end to end. Kinematic and
    surface records are emitted on the kinematics grid; swaps land on grid
    ticks and are accompanied by a truth sample. Stream i, with truth i and
    the noise of seed i, is written one at a time into axis 1 of the value
    columns; the gait fixes the record layout they share. A stream's IMU
    records are synthesized _BLOCK intervals at a time and its other records
    from the truth at their own ticks, so no intermediate spans the stream;
    its own columns are freed once written. The Stream is built, and so
    checked, once.
    """
    columns = None
    for i, (truth, seed) in enumerate(zip(truths, seeds, strict=True)):
        if truth.gait != truths[0].gait:
            raise ValueError("streams to synthesize together need one gait")
        kinds, one = _sensor_columns(truth, noise, rates, seed)
        if columns is None:
            columns = {kind: {name: col if col.ndim == 1 else
                              np.empty((len(col), len(truths)) + col.shape[1:])
                              for name, col in c.items()} for kind, c in one.items()}
        for kind, c in one.items():
            for name, col in c.items():
                if col.ndim > 1:
                    columns[kind][name][:, i] = col
        del one  # before the next stream, or the check, is made
    return Stream(kinds, columns)


def _sensor_columns(truth, noise, rates, seed) -> tuple:
    dt = 1.0 / rates.imu_hz
    n_imu, kin_stride, swap_stride = truth.gait.ticks(rates)

    ticks = np.arange(n_imu + 1)
    times = ticks / rates.imu_hz
    swaps = np.arange(swap_stride, n_imu, swap_stride)
    kin = np.arange(0, n_imu + 1, kin_stride)
    # Stance active at each tick, consistent with the swaps actually emitted
    # (no swap at the final tick even if it lands on a stance boundary).
    stance_idx = np.minimum(ticks // swap_stride, len(swaps))

    # Isotropic noise, each axis with the field's variance (a density over dt).
    rng = np.random.default_rng(seed)
    gyro = rng.standard_normal((n_imu, 3)) * math.sqrt(noise.gyro_density / dt)
    accel = rng.standard_normal((n_imu, 3)) * math.sqrt(noise.accel_density / dt)
    cvel = rng.standard_normal((n_imu, 3)) * math.sqrt(noise.contact_vel_density / dt)
    fk_n = rng.standard_normal((len(kin), 3)) * math.sqrt(noise.fk_pos_var)
    orient_n = rng.standard_normal((len(kin), 3)) * math.sqrt(noise.surface_orient_var)
    hd_n = rng.standard_normal((len(swaps), 3)) * math.sqrt(noise.jump_pos_var)

    # Exact-inverse IMU synthesis, added to the noise _BLOCK intervals at a
    # time from the truth at their ticks: gyro from the tick-to-tick
    # rotation, accel from the velocity increment through Gamma_1, contact
    # velocity from the foot displacement within the interval's stance (at
    # a swap tick, the previous stance's foot).
    for a in range(0, n_imu, _BLOCK):
        b = min(a + _BLOCK, n_imu)
        t = times[a:b + 1]
        rot, vel = truth.base_rot(t), truth.base_vel(t)
        w = so3_log(_T(rot[:-1]) @ rot[1:]) / dt
        jl = so3_left_jacobian(w * dt)
        rhs = vel[1:] - vel[:-1] - GRAVITY * dt
        gyro[a:b] += w
        accel[a:b] += np.linalg.solve(rot[:-1] @ jl * dt, rhs[..., None])[..., 0]
        cvel[a:b] += (truth.foot_pos(t[1:], stance_idx[a:b])
                      - truth.foot_pos(t[:-1], stance_idx[a:b])) / dt

    # Records present at each tick, in the co-timestamp order of KINDS.
    present = np.zeros((n_imu + 1, len(KINDS)), dtype=bool)
    present[swaps, SWAP] = True
    present[kin, TRUTH] = present[kin, SURFACE] = True
    present[kin, FK_ROT] = present[kin, FK_POS] = True
    present[:-1, IMU] = True
    kinds = np.nonzero(present)[1].astype(np.int8)

    # The other records from the truth at their own ticks.
    t_kin, t_swap = times[kin], times[swaps]
    rot, pos, rs = truth.base_rot(t_kin), truth.base_pos(t_kin), truth.surface_rot(t_kin)
    foot = truth.foot_pos(t_kin, stance_idx[kin])
    foot_prev = truth.foot_pos(t_swap, stance_idx[swaps - 1])
    columns = {
        "swap": {"t": t_swap, "h_d": _mv(_T(truth.base_rot(t_swap)), truth.foot_pos(
            t_swap, stance_idx[swaps]) - foot_prev) + hd_n},
        "truth": {"t": t_kin, "rot": rot, "vel": truth.base_vel(t_kin), "pos": pos,
                  "foot": foot},
        "surface": {"t": t_kin, "rot": rs},
        "fk_rot": {"t": t_kin, "rot": _T(rot) @ rs @ so3_exp(orient_n)},
        "fk_pos": {"t": t_kin, "hp": _mv(_T(rot), foot - pos) + fk_n},
        "imu": {"t": times[:-1], "dt": np.full(n_imu, dt),
                "gyro": gyro, "accel": accel, "contact_vel": cvel},
    }
    return kinds, columns
