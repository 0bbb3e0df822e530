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
    sek3_exp,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ImuStep:
    """Inputs for one propagation interval [t, t + dt].

    gyro/accel are body-frame raw IMU data; contact_vel is the world-frame
    linear velocity of the foot-surface contact area.
    """

    t: float
    dt: float
    gyro: np.ndarray
    accel: np.ndarray
    contact_vel: np.ndarray

    def is_finite(self) -> bool:
        g, a, c = self.gyro, self.accel, self.contact_vel
        total = (self.dt + g[0] + g[1] + g[2] + a[0] + a[1] + a[2]
                 + c[0] + c[1] + c[2])
        return math.isfinite(total)


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
    densities ((unit)^2/Hz); fk_pos and surface_orient covariances are
    per-sample measurement covariances; jump_cov is the tangent-space
    covariance added at support-foot swaps (zero reproduces the exact
    no-jump covariance behaviour).
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

    @classmethod
    def zero(cls) -> "NoiseParams":
        return cls.from_scalars(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def process_cov(self) -> np.ndarray:
        """12x12 continuous density of the process noise (position rows zero)."""
        qc = np.zeros((12, 12))
        qc[XI_R, XI_R] = self.gyro_cov
        qc[XI_V, XI_V] = self.accel_cov
        qc[XI_D, XI_D] = self.contact_vel_cov
        return qc

    def validate(self, tol: float = 1e-9) -> None:
        for name in ("gyro_cov", "accel_cov", "contact_vel_cov",
                     "fk_pos_cov", "surface_orient_cov", "jump_cov"):
            m = getattr(self, name)
            if not np.allclose(m, m.T, atol=tol):
                raise ValueError(f"{name} is not symmetric")
            if np.min(np.linalg.eigvalsh(m)) < -tol:
                raise ValueError(f"{name} is not positive semidefinite")


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
    return xhat.rot @ m.Y[:3] + xhat.cols @ m.Y[3:] - m.b[:3]


def process_dynamics(x: GroupElement, u: ImuStep) -> np.ndarray:
    """Deterministic part of d/dt of the embedded state matrix."""
    out = np.zeros((6, 6))
    out[:3, :3] = x.rot @ hat(u.gyro)
    out[:3, 3] = x.rot @ u.accel + GRAVITY
    out[:3, 4] = x.vel
    out[:3, 5] = u.contact_vel
    return out


def group_affine_residual(x1: GroupElement, x2: GroupElement, u: ImuStep,
                          dynamics=process_dynamics) -> float:
    """Frobenius norm of f(X1 X2) - f(X1) X2 - X1 f(X2) + X1 f(Id) X2.

    Zero (to roundoff) iff the dynamics are group-affine. A different
    `dynamics` callable can be passed to confirm the check has power.
    """
    from .liegroup import compose, identity

    m1 = x1.embed()
    m2 = x2.embed()
    lhs = dynamics(compose(x1, x2), u)
    rhs = dynamics(x1, u) @ m2 + m1 @ dynamics(x2, u) - m1 @ dynamics(identity(), u) @ m2
    return float(np.linalg.norm(lhs - rhs))


def error_jacobian_A(contact_vel: np.ndarray | None = None) -> np.ndarray:
    """Linearized right-invariant error dynamics matrix (d xi/dt = A xi).

    Independent of the linearization state: gravity couples xi_R into xi_v
    and xi_v integrates into xi_p. A nonzero world-frame contact velocity
    additionally couples xi_R into xi_d (hat(contact_vel) block); the
    filter's covariance propagation uses the constant input-free form.
    """
    a = np.zeros((12, 12))
    a[XI_V, XI_R] = hat(GRAVITY)
    a[XI_P, XI_V] = np.eye(3)
    if contact_vel is not None:
        a[XI_D, XI_R] = hat(contact_vel)
    return a


def state_transition(dt: float, a: np.ndarray | None = None) -> np.ndarray:
    """Discrete transition exp(A dt); exact since A is nilpotent (A^3 = 0)."""
    if a is None:
        a = error_jacobian_A()
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
    y = np.concatenate([foot_rot_in_base @ E3, np.zeros(3)])
    b = np.concatenate([n_s, np.zeros(3)])
    h = np.zeros((3, 12))
    h[:, XI_R] = hat(n_s)
    n = xhat.rot @ noise.surface_orient_cov @ xhat.rot.T
    return InvariantMeasurement(y, b, h, n)


def position_measurement(hp: np.ndarray, xhat: GroupElement,
                         noise: NoiseParams) -> InvariantMeasurement:
    """Leg-kinematics foot position measurement in right-invariant form.

    hp is the support-foot position relative to the base, in the base frame,
    so hp = R^T (d - p) + noise and Y = [hp; 0, 1, -1], b = [0; 0, 1, -1].
    The innovation R_hat hp + p_hat - d_hat observes xi_d - xi_p.
    """
    y = np.concatenate([hp, [0.0, 1.0, -1.0]])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0])
    h = np.zeros((3, 12))
    h[:, XI_P] = -np.eye(3)
    h[:, XI_D] = np.eye(3)
    n = xhat.rot @ noise.fk_pos_cov @ xhat.rot.T
    return InvariantMeasurement(y, b, h, n)
