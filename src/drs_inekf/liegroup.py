"""SO(3) and SE_K(3) primitives.

A group element bundles a rotation matrix with K translation-like column
vectors (here K = 3: base velocity, base position, support-foot position).
Its matrix embedding is

    [ R  c_1 ... c_K ]
    [ 0       I_K    ]

Tangent vectors are (3 + 3K)-vectors in the fixed block order
(xi_R, xi_1, ..., xi_K); for K = 3 that is (xi_R, xi_v, xi_p, xi_d).
All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle the closed-form Rodrigues/Jacobian coefficients
# switch to 4th-order series to avoid 0/0.
SMALL_ANGLE = 1e-6

# Near pi the standard log formula loses the axis; switch to the
# diagonal-dominant extraction branch.
_NEAR_PI = math.pi - 1e-3

# Tangent block slices for K = 3.
XI_R = slice(0, 3)
XI_V = slice(3, 6)
XI_P = slice(6, 9)
XI_D = slice(9, 12)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with hat(v) @ u == cross(v, u)."""
    x, y, z = v
    m = np.zeros((3, 3))
    m[0, 1] = -z
    m[0, 2] = y
    m[1, 0] = z
    m[1, 2] = -x
    m[2, 0] = -y
    m[2, 1] = x
    return m


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of hat (takes the skew part of m)."""
    return 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])


def so3_exp(v: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the Rodrigues formula."""
    a, b, _, _ = _gamma_coeffs(math.sqrt(float(v @ v)))
    k = hat(v)
    return _EYE3 + a * k + b * (k @ k)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Angle-axis vector of a rotation matrix, angle in [0, pi].

    Uses atan2 of the skew norm against the trace for a well-conditioned
    angle, a series for tiny angles, and axis extraction from the symmetric
    part near pi where the skew part degenerates.
    """
    skew_vec = vee(rot)
    sin_norm = math.sqrt(float(skew_vec @ skew_vec))
    cos_theta = 0.5 * (float(np.trace(rot)) - 1.0)
    theta = math.atan2(sin_norm, cos_theta)

    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return skew_vec * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0)

    if theta > _NEAR_PI:
        # R + R^T = 2(cos I + (1 - cos) n n^T); take the dominant diagonal.
        sym = 0.5 * (rot + rot.T)
        outer = (sym - cos_theta * np.eye(3)) / (1.0 - cos_theta)
        i = int(np.argmax(np.diag(outer)))
        axis = np.empty(3)
        axis[i] = math.sqrt(max(outer[i, i], 0.0))
        for j in range(3):
            if j != i:
                axis[j] = outer[i, j] / axis[i]
        axis /= np.linalg.norm(axis)
        if sin_norm > 1e-12:
            if float(skew_vec @ axis) < 0.0:
                axis = -axis
        elif axis[int(np.argmax(np.abs(axis)))] < 0.0:
            axis = -axis
        return theta * axis

    return skew_vec * (theta / sin_norm)


def so3_left_jacobian(v: np.ndarray) -> np.ndarray:
    """Left Jacobian J_l of SO(3): integral of exp over [0, 1]."""
    theta = math.sqrt(float(v @ v))
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        s_half = math.sin(0.5 * theta)
        b = 2.0 * s_half * s_half / (theta * theta)
        c = (theta - math.sin(theta)) / (theta ** 3)
    k = hat(v)
    return _EYE3 + b * k + c * (k @ k)


def so3_left_jacobian_inv(v: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian, stable through theta = pi."""
    theta = math.sqrt(float(v @ v))
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        e = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        s_half = math.sin(0.5 * theta)
        one_minus_cos = 2.0 * s_half * s_half
        e = (1.0 - theta * math.sin(theta) / (2.0 * one_minus_cos)) / (theta * theta)
    k = hat(v)
    return _EYE3 - 0.5 * k + e * (k @ k)


def _gamma_coeffs(theta: float) -> tuple[float, float, float, float]:
    """Series coefficients (a, b, c, g2b) shared by the Gamma matrices.

    With K = hat(v): Gamma_0 = exp = I + a K + b K^2,
    Gamma_1 = I + b K + c K^2 and Gamma_2 = I/2 + c K + g2b K^2.
    """
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return (1.0 - t2 / 6.0 + t2 * t2 / 120.0,
                0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0)
    s = math.sin(theta)
    s_half = math.sin(0.5 * theta)
    one_minus_cos = 2.0 * s_half * s_half
    t2 = theta * theta
    return (s / theta, one_minus_cos / t2, (theta - s) / (t2 * theta),
            (0.5 * t2 - one_minus_cos) / (t2 * t2))


def gamma0_and_applied(v: np.ndarray, u: np.ndarray):
    """Gamma_0(v) as a matrix plus (Gamma_1(v) u, Gamma_2(v) u) as vectors.

    Gamma_m = sum_n hat(v)^n / (n + m)!: Gamma_0 = exp, Gamma_1 = J_l and
    Gamma_2 is the double integral term for the position update. Gamma_1
    and Gamma_2 are applied to u through hat(v) u and hat(v)^2 u, never
    formed.
    """
    a, b, c, g2b = _gamma_coeffs(math.sqrt(float(v @ v)))
    k = hat(v)
    g0 = _EYE3 + a * k + b * (k @ k)
    ku = k @ u
    kku = k @ ku
    return g0, u + b * ku + c * kku, 0.5 * u + c * ku + g2b * kku


def project_to_rotation(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix by polar decomposition (SVD)."""
    u, _, vt = np.linalg.svd(m)
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return rot


def rotation_defect(rot: np.ndarray) -> float:
    """Frobenius distance of rot^T rot from the identity."""
    return float(np.linalg.norm(rot.T @ rot - _EYE3))


@dataclass(frozen=True)
class GroupElement:
    """Point on SE_K(3): rotation plus K column vectors (3, K)."""

    rot: np.ndarray
    cols: np.ndarray

    @property
    def k(self) -> int:
        return self.cols.shape[1]

    @property
    def vel(self) -> np.ndarray:
        return self.cols[:, 0]

    @property
    def pos(self) -> np.ndarray:
        return self.cols[:, 1]

    @property
    def foot(self) -> np.ndarray:
        return self.cols[:, 2]

    def embed(self) -> np.ndarray:
        """(3+K) x (3+K) matrix embedding."""
        n = 3 + self.k
        m = np.eye(n)
        m[:3, :3] = self.rot
        m[:3, 3:] = self.cols
        return m

    def is_close(self, other: "GroupElement", tol: float = 1e-9) -> bool:
        return (np.allclose(self.rot, other.rot, atol=tol)
                and np.allclose(self.cols, other.cols, atol=tol))


def identity(k: int = 3) -> GroupElement:
    return GroupElement(np.eye(3), np.zeros((3, k)))


def from_embedded(m: np.ndarray) -> GroupElement:
    return GroupElement(m[:3, :3].copy(), m[:3, 3:].copy())


def group_element(rot: np.ndarray, vel: np.ndarray, pos: np.ndarray,
                  foot: np.ndarray) -> GroupElement:
    """Convenience constructor for the K = 3 estimator state."""
    return GroupElement(np.asarray(rot, dtype=float),
                        np.column_stack([vel, pos, foot]).astype(float))


def compose(x1: GroupElement, x2: GroupElement) -> GroupElement:
    return GroupElement(x1.rot @ x2.rot, x1.rot @ x2.cols + x1.cols)


def inverse(x: GroupElement) -> GroupElement:
    rt = x.rot.T
    return GroupElement(rt.copy(), -(rt @ x.cols))


def sek3_exp(xi: np.ndarray) -> GroupElement:
    """Group exponential: columns are mapped through J_l of the rotation block."""
    w = xi[:3]
    k = (xi.shape[0] - 3) // 3
    jl = so3_left_jacobian(w)
    cols = jl @ xi[3:].reshape(k, 3).T
    return GroupElement(so3_exp(w), cols)


def sek3_log(x: GroupElement) -> np.ndarray:
    w = so3_log(x.rot)
    jinv = so3_left_jacobian_inv(w)
    out = np.empty(3 + 3 * x.k)
    out[:3] = w
    out[3:] = (jinv @ x.cols).T.reshape(-1)
    return out


def algebra_hat(xi: np.ndarray) -> np.ndarray:
    """Lie-algebra matrix of a tangent vector in the embedding."""
    k = (xi.shape[0] - 3) // 3
    m = np.zeros((3 + k, 3 + k))
    m[:3, :3] = hat(xi[:3])
    m[:3, 3:] = xi[3:].reshape(k, 3).T
    return m


def adjoint(x: GroupElement) -> np.ndarray:
    """Adjoint matrix: satisfies X xi^ X^-1 == (adjoint(X) xi)^."""
    k = x.k
    n = 3 + 3 * k
    rot = x.rot
    cols = x.cols
    # hat(col_i) for all columns as one (k, 3, 3) stack, then batch-multiply.
    hats = np.zeros((k, 3, 3))
    hats[:, 0, 1] = -cols[2]
    hats[:, 0, 2] = cols[1]
    hats[:, 1, 0] = cols[2]
    hats[:, 1, 2] = -cols[0]
    hats[:, 2, 0] = -cols[1]
    hats[:, 2, 1] = cols[0]
    crossed = hats @ rot
    ad = np.zeros((n, n))
    ad[:3, :3] = rot
    for i in range(k):
        r = slice(3 + 3 * i, 6 + 3 * i)
        ad[r, :3] = crossed[i]
        ad[r, r] = rot
    return ad
