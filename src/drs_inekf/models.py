"""Process and measurement models for the walking estimator.

The estimated state bundles base orientation, base velocity, base position
and support-foot position on SE_3(3). The continuous-time dynamics are
driven by body-frame gyro/accel readings plus the world-frame velocity of
the foot-surface contact point:

    dR/dt = R hat(gyro)
    dv/dt = R accel + g
    dp/dt = v
    dd/dt = contact_vel

Measurements come in the right-invariant form Y = X^-1 b + V. Error
convention used throughout: xi = log(X_true @ X_hat^-1), so the innovation
z = (X_hat Y - b)[:3] linearizes as z = H xi + R_hat-mapped noise, and the
filter correction is X_hat+ = exp(K z) X_hat.
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .liegroup import (
    GroupElement,
    XI_D,
    XI_P,
    XI_R,
    XI_V,
    hat,
)
from .liegroup import matvec as _mv

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class ImuStep:
    """A run of n consecutive IMU intervals: their dt (n,) and their terms.

    The terms are what `filter.propagate` reads of the run's inputs (body-
    frame gyro/accel, world-frame contact-point velocity), composed ahead by
    `filter.imu_terms`: per interval the carried noise arguments, per run
    its map, M(T), Phi(T) and noise sums. They may carry stream axes after
    the run axis (several streams in lockstep).
    """

    dt: np.ndarray
    terms: tuple = field(repr=False, compare=False)


def param(default, lo=None, hi=None):
    """A field of the config document: its default and inclusive bounds."""
    return field(default=default, metadata={"lo": lo, "hi": hi})


def config_fields(cls) -> list:
    """The fields of a dataclass (or instance) declared with `param`."""
    return [f for f in fields(cls) if "lo" in f.metadata]


def _real(value) -> float:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _as_type(hint, value):
    """`value` as the annotated type, or ValueError saying what was expected."""
    if hint is float:
        return _real(value)
    if hint is int:
        if _real(value).is_integer():
            return int(value)
        expected = "an integer"
    elif hint is bool:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    else:  # a tuple of reals
        n = len(typing.get_args(hint))
        if isinstance(value, (list, tuple)) and len(value) == n:
            return tuple(_real(v) for v in value)
        expected = f"{n} numbers"
    raise ValueError(f"expected {expected}, got {value!r}")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def check_fields(obj) -> None:
    """Check the `param` fields of a frozen dataclass; store them converted.

    By annotation, a float must be a finite real and not a bool, an int an
    integral real, a bool a JSON boolean and a tuple that many finite
    reals. Errors read `field: reason`.
    """
    hints = typing.get_type_hints(type(obj))
    for f in config_fields(obj):
        try:
            value = _as_type(hints[f.name], getattr(obj, f.name))
        except (ValueError, OverflowError) as exc:  # an int beyond float range
            raise ValueError(f"{f.name}: {exc}") from None
        lo, hi = f.metadata["lo"], f.metadata["hi"]
        if lo is not None and value < lo:
            raise ValueError(f"{f.name}: must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise ValueError(f"{f.name}: must be <= {hi}, got {value}")
        object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class NoiseParams:
    """Noise model of the filter, the `noise` section of the config document.

    Every noise is isotropic, so each field is one variance: the noise's
    covariance is that variance times I, in every frame. gyro, accel and
    contact_vel are continuous-time white-noise densities ((unit)^2/Hz);
    fk_pos and surface_orient are per-sample measurement variances; jump_pos
    is the variance of the support-foot offset added at swaps (zero
    reproduces the exact no-jump covariance behaviour).
    """

    gyro_density: float = param(1e-5, lo=0.0)
    accel_density: float = param(1e-4, lo=0.0)
    contact_vel_density: float = param(1e-4, lo=0.0)
    fk_pos_var: float = param(1e-4, lo=0.0)
    surface_orient_var: float = param(1e-4, lo=0.0)
    jump_pos_var: float = param(1e-6, lo=0.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class InvariantMeasurement:
    """Right-invariant measurement Y = X^-1 b + V, as the update reads it.

    X's bottom rows are [0 I], so Y = [y; w] and b = [b; w] share their
    augmentation rows w, and the innovation z = (X_hat Y - b)[:3] reads
    3-vectors only. H is its 3x12 Jacobian in the right-invariant error,
    zero outside the state columns `cols` (slice(0, 12) for a dense H).
    var is the variance of the isotropic noise V: its X_hat-mapped
    covariance is var I in every frame, as R_hat var I R_hat^T = var I.
    """

    y: np.ndarray
    w: np.ndarray
    b: np.ndarray
    H: np.ndarray
    var: float
    cols: slice


def innovation(m: InvariantMeasurement, xhat: GroupElement) -> np.ndarray:
    """z = R_hat y + cols_hat w - b, the top three rows of X_hat Y - b."""
    return _mv(xhat.rot, m.y) + _mv(xhat.cols, m.w) - m.b


def error_jacobian_A() -> np.ndarray:
    """Linearized right-invariant error dynamics matrix (d xi/dt = A xi).

    Independent of the linearization state: gravity couples xi_R into xi_v
    and xi_v integrates into xi_p. The exact error dynamics of a nonzero
    world-frame contact velocity also couple xi_R into xi_d (a
    hat(contact_vel) block); the filter leaves that block out and uses this
    constant input-free form, so a run of IMU intervals takes one step as
    Phi(a) Phi(b) = Phi(a + b). With the input-dependent block, a run would
    have to multiply per-interval Phi instead.

    The input-free form is also the consistent one. With the hat(contact_vel)
    block linearised at the noisy measured input, per-interval Phi made the
    filter grossly overconfident where yaw is unobservable (rocking
    position-only, static proposed and position-only): final-5 s mean NEES
    47-50 against 12.7 without the block, for 12 dof (50 trials x 30 s,
    master seed 7). Linearising at the noisy input gives spurious yaw
    information (Huang, Mourikis & Roumeliotis, IJRR 2010).
    """
    a = np.zeros((12, 12))
    a[XI_V, XI_R] = hat(GRAVITY)
    a[XI_P, XI_V] = np.eye(3)
    return a


def state_transition(dt) -> np.ndarray:
    """exp(A dt), exact as A^3 = 0; per entry of dt on leading axes."""
    a = error_jacobian_A()
    dt = np.asarray(dt, dtype=float)[..., None, None]
    return np.eye(12) + a * dt + 0.5 * (a @ a) * dt * dt


_ZERO3 = np.zeros(3)
_POSITION_W = np.array([0.0, 1.0, -1.0])
_POSITION_COLS = slice(XI_P.start, XI_D.stop)  # (xi_p, xi_d)
_POSITION_H = np.zeros((3, 12))
_POSITION_H[:, XI_P] = -np.eye(3)
_POSITION_H[:, XI_D] = np.eye(3)
# The orientation H = [hat(n_s) 0 0 0] is n_s @ this, row j [hat(e_j) 0 0 0].
_ORIENTATION_H = np.concatenate([hat(np.eye(3)), np.zeros((3, 3, 9))], -1).reshape(3, 36)
for _constant in (_ZERO3, _POSITION_W, _POSITION_H, _ORIENTATION_H):
    _constant.setflags(write=False)


def orientation_measurement(surface_rot: np.ndarray, foot_rot_in_base: np.ndarray,
                            noise: NoiseParams) -> InvariantMeasurement:
    """Surface-normal alignment measurement in right-invariant form.

    During secured flat-foot contact the foot normal and the surface normal
    are parallel, giving Y = [foot_rot_in_base e3; 0] = X^-1 [surface_rot e3; 0]:
    y and b are the rotations' third columns, w = 0 and H = [hat(n_s) 0 0 0]
    for n_s = surface_rot e3. Only xi_R is observed; the yaw component drops
    out exactly when the surface normal is parallel to gravity.
    """
    n_s = surface_rot[..., 2]
    h = (n_s @ _ORIENTATION_H).reshape(n_s.shape[:-1] + (3, 12))
    return InvariantMeasurement(foot_rot_in_base[..., 2], _ZERO3, n_s, h,
                                noise.surface_orient_var, XI_R)


def position_measurement(hp: np.ndarray, noise: NoiseParams) -> InvariantMeasurement:
    """Leg-kinematics foot position measurement in right-invariant form.

    hp is the support-foot position relative to the base, in the base frame,
    so hp = R^T (d - p) + noise and Y = [hp; 0, 1, -1], b = [0; 0, 1, -1]:
    y = hp, w = (0, 1, -1), b = 0 and H = [0 0 -I I], nonzero on (xi_p, xi_d).
    The innovation R_hat hp + p_hat - d_hat observes xi_d - xi_p.
    """
    return InvariantMeasurement(hp, _POSITION_W, _ZERO3, _POSITION_H, noise.fk_pos_var,
                                _POSITION_COLS)
