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
from .liegroup import transposed as _T

GRAVITY = np.array([0.0, 0.0, -9.81])
E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ImuStep:
    """Inputs for one propagation interval [t, t + dt], or for a run of n.

    gyro/accel are body-frame raw IMU data; contact_vel is the world-frame
    linear velocity of the foot-surface contact area. The arrays may carry
    leading stream axes (one interval of several streams in lockstep), after
    a run axis of length n (t and dt then have shape (n,)). terms, when
    given, are the integration terms computed ahead (`filter.imu_terms`).
    """

    t: float
    dt: float
    gyro: np.ndarray
    accel: np.ndarray
    contact_vel: np.ndarray
    terms: tuple | None = field(default=None, repr=False, compare=False)


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
    elif typing.get_origin(hint) is tuple:
        n = len(typing.get_args(hint))
        if isinstance(value, (list, tuple)) and len(value) == n:
            return tuple(_real(v) for v in value)
        expected = f"{n} numbers"
    else:  # an Enum: a member or a member's value
        if value in list(hint) + [m.value for m in hint]:
            return hint(value)
        expected = f"one of [{', '.join(m.value for m in hint)}]"
    raise ValueError(f"expected {expected}, got {value!r}")


def check_fields(obj) -> None:
    """Check the `param` fields of a frozen dataclass; store them converted.

    By annotation, a float must be a finite real and not a bool, an int an
    integral real, a bool a JSON boolean, a tuple that many finite reals
    and an Enum a member or a member's value. Errors read `field: reason`.
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


def _diag3(value: float) -> np.ndarray:
    return np.eye(3) * value


@dataclass(frozen=True)
class NoiseLevels:
    """Scalar noise levels, the `noise` section of the config document."""

    gyro_density: float = param(1e-5, lo=0.0)
    accel_density: float = param(1e-4, lo=0.0)
    contact_vel_density: float = param(1e-4, lo=0.0)
    fk_pos_var: float = param(1e-4, lo=0.0)
    surface_orient_var: float = param(1e-4, lo=0.0)
    jump_pos_var: float = param(1e-6, lo=0.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class NoiseParams:
    """Noise model of the filter.

    gyro/accel/contact_vel covariances are continuous-time white-noise
    densities ((unit)^2/Hz), isotropic (a variance times I, as `FilterConfig`
    checks: the filter's propagation needs it); fk_pos and surface_orient
    covariances are per-sample measurement covariances; jump_cov is the
    tangent-space covariance added at support-foot swaps (zero reproduces
    the exact no-jump covariance behaviour).
    """

    gyro_cov: np.ndarray
    accel_cov: np.ndarray
    contact_vel_cov: np.ndarray
    fk_pos_cov: np.ndarray
    surface_orient_cov: np.ndarray
    jump_cov: np.ndarray

    @classmethod
    def from_scalars(cls, *args, **kwargs) -> "NoiseParams":
        """Isotropic noise model from `NoiseLevels(*args, **kwargs)`."""
        s = NoiseLevels(*args, **kwargs)
        jump = np.zeros((12, 12))
        jump[XI_D, XI_D] = _diag3(s.jump_pos_var)
        return cls(_diag3(s.gyro_density), _diag3(s.accel_density),
                   _diag3(s.contact_vel_density), _diag3(s.fk_pos_var),
                   _diag3(s.surface_orient_var), jump)


@dataclass(frozen=True)
class InvariantMeasurement:
    """Right-invariant measurement bundle (Y, b, H, N).

    Y and b are 6-vectors of the form [vector; augmentation rows]; H is the
    3x12 Jacobian of the innovation z = (X_hat Y - b)[:3] with respect to
    the right-invariant error; N is the world-frame covariance of the top
    three rows after the X_hat V mapping.
    """

    Y: np.ndarray
    b: np.ndarray
    H: np.ndarray
    N: np.ndarray


def innovation(m: InvariantMeasurement, xhat: GroupElement) -> np.ndarray:
    """Top three rows of X_hat @ Y - b."""
    return _mv(xhat.rot, m.Y[..., :3]) + _mv(xhat.cols, m.Y[..., 3:]) - m.b[..., :3]


def error_jacobian_A(contact_vel: np.ndarray | None = None) -> np.ndarray:
    """Linearized right-invariant error dynamics matrix (d xi/dt = A xi).

    Independent of the linearization state: gravity couples xi_R into xi_v
    and xi_v integrates into xi_p. A nonzero world-frame contact velocity
    additionally couples xi_R into xi_d (hat(contact_vel) block); the
    filter's covariance propagation uses the constant input-free form: a run
    of IMU intervals takes one step as Phi(a) Phi(b) = Phi(a + b). With the
    input-dependent block, a run must multiply per-interval Phi instead.

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
    if contact_vel is not None:
        a[XI_D, XI_R] = hat(contact_vel)
    return a


def state_transition(dt) -> np.ndarray:
    """exp(A dt), exact as A^3 = 0; per entry of dt on leading axes."""
    a = error_jacobian_A()
    dt = np.asarray(dt, dtype=float)[..., None, None]
    return np.eye(12) + a * dt + 0.5 * (a @ a) * dt * dt


def orientation_measurement(surface_rot: np.ndarray, foot_rot_in_base: np.ndarray,
                            xhat: GroupElement, noise: NoiseParams) -> InvariantMeasurement:
    """Surface-normal alignment measurement in right-invariant form.

    During secured flat-foot contact the foot normal and the surface normal
    are parallel, giving Y = [foot_rot_in_base e3; 0] = X^-1 [surface_rot e3; 0].
    Only xi_R is observed; the yaw component drops out exactly when the
    surface normal is parallel to gravity.
    """
    n_s = surface_rot @ E3
    y = _augment(foot_rot_in_base @ E3, (0.0, 0.0, 0.0))
    b = _augment(n_s, (0.0, 0.0, 0.0))
    h = np.zeros(n_s.shape[:-1] + (3, 12))
    h[..., XI_R] = hat(n_s)
    n = xhat.rot @ noise.surface_orient_cov @ _T(xhat.rot)
    return InvariantMeasurement(y, b, h, n)


_POSITION_B = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0])
_POSITION_H = np.zeros((3, 12))
_POSITION_H[:, XI_P] = -np.eye(3)
_POSITION_H[:, XI_D] = np.eye(3)
for _constant in (_POSITION_B, _POSITION_H):
    _constant.setflags(write=False)


def _augment(v: np.ndarray, rows: tuple) -> np.ndarray:
    """[v; rows] over leading batch axes."""
    out = np.empty(v.shape[:-1] + (3 + len(rows),))
    out[..., :3] = v
    out[..., 3:] = rows
    return out


def position_measurement(hp: np.ndarray, xhat: GroupElement,
                         noise: NoiseParams) -> InvariantMeasurement:
    """Leg-kinematics foot position measurement in right-invariant form.

    hp is the support-foot position relative to the base, in the base frame,
    so hp = R^T (d - p) + noise and Y = [hp; 0, 1, -1], b = [0; 0, 1, -1].
    The innovation R_hat hp + p_hat - d_hat observes xi_d - xi_p.
    """
    y = _augment(hp, (0.0, 1.0, -1.0))
    n = xhat.rot @ noise.fk_pos_cov @ _T(xhat.rot)
    return InvariantMeasurement(y, _POSITION_B, _POSITION_H, n)
