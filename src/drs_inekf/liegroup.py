"""SO(3) and SE_3(3) primitives, over any leading batch axes.

A group element bundles a rotation matrix with three column vectors: base
velocity, base position and support-foot position. Its matrix embedding is

    [ R  v  p  d ]
    [ 0     I_3  ]

Tangent vectors are 12-vectors in the fixed block order
(xi_R, xi_v, xi_p, xi_d). All angles are radians.

Every function accepts leading batch axes on its arguments (a stack of
vectors (..., 3), of rotations (..., 3, 3), of elements with rot
(..., 3, 3) and cols (..., 3, 3)) and broadcasts them; an unbatched call
is the batch of shape (). Each slice of a batched call is computed with
the same operations, in the same order, as the unbatched call on that
slice, so results do not depend on the batch they were computed in.
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

# Tangent block slices.
XI_R = slice(0, 3)
XI_V = slice(3, 6)
XI_P = slice(6, 9)
XI_D = slice(9, 12)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def transposed(m: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (a view)."""
    return m.swapaxes(-1, -2)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, computed as the 1-D `a @ b` is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v over leading batch axes, computed as the 2-D by 1-D `m @ v` is."""
    return (m @ v[..., None])[..., 0]


# hat(v) row-major is v @ _HAT: each entry is one component of v times +-1.
_HAT = np.zeros((3, 9))
_HAT[[2, 1, 2, 0, 1, 0], [1, 2, 3, 5, 6, 7]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_HAT.setflags(write=False)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with hat(v) @ u == cross(v, u)."""
    v = np.asarray(v, dtype=float)
    return (v @ _HAT).reshape(v.shape[:-1] + (3, 3))


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of hat (takes the skew part of m)."""
    return np.multiply(0.5, (m - transposed(m))[..., [2, 0, 1], [1, 2, 0]], order="C")


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(dot(v, v))


def _rodrigues(x: np.ndarray, y: np.ndarray, k: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """I + x K + y K^2, with K = k and K^2 = kk, per slice of the coefficients."""
    return _EYE3 + x[..., None, None] * k + y[..., None, None] * kk


def _exp_and_left_jacobian(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(hat(v)), J_l(v)): Gamma_0 and Gamma_1 of v as matrices."""
    v = np.asarray(v, dtype=float)
    a, b, c = _gamma_coeffs(_norm(v), "abc")
    k = hat(v)
    kk = k @ k
    return _rodrigues(a, b, k, kk), _rodrigues(b, c, k, kk)


def so3_exp(v: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the Rodrigues formula."""
    return _exp_and_left_jacobian(v)[0]


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Angle-axis vector of a rotation matrix, angle in [0, pi].

    Uses atan2 of the skew norm against the trace for a well-conditioned
    angle, a series for tiny angles, and axis extraction from the symmetric
    part near pi where the skew part degenerates.
    """
    return _log_and_angle(np.asarray(rot, dtype=float))[0]


def _log_and_angle(rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(so3_log(rot), its rotation angle)."""
    skew_vec = vee(rot)
    sin_norm = _norm(skew_vec)
    cos_theta = 0.5 * (np.einsum("...ii->...", rot) - 1.0)
    theta = np.arctan2(sin_norm, cos_theta)
    small = theta < SMALL_ANGLE
    near_pi = theta > _NEAR_PI
    special = small | near_pi
    if not np.count_nonzero(special):
        return skew_vec * (theta / sin_norm)[..., None], theta
    t2 = theta * theta
    factor = np.where(small, 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
                      theta / np.where(special, 1.0, sin_norm))
    out = skew_vec * factor[..., None]
    if np.count_nonzero(near_pi):
        axis = _near_pi_axis(rot[near_pi], cos_theta[near_pi],
                             skew_vec[near_pi], sin_norm[near_pi])
        out[near_pi] = theta[near_pi][:, None] * axis
    return out, theta


def _near_pi_axis(rot, cos_theta, skew_vec, sin_norm) -> np.ndarray:
    """Rotation axes of a stack (n, 3, 3) of rotations by nearly pi.

    R + R^T = 2(cos I + (1 - cos) n n^T): take the row of n n^T with the
    dominant diagonal, then fix the sign from the skew part (or, when that
    vanishes at pi, make the largest component positive).
    """
    rows = np.arange(len(rot))
    sym = 0.5 * (rot + transposed(rot))
    outer = ((sym - cos_theta[:, None, None] * _EYE3)
             / (1.0 - cos_theta)[:, None, None])
    i = np.argmax(np.diagonal(outer, axis1=1, axis2=2), axis=1)
    lead = np.sqrt(np.maximum(outer[rows, i, i], 0.0))
    axis = outer[rows, i] / lead[:, None]
    axis[rows, i] = lead
    axis /= _norm(axis)[:, None]
    flip = np.where(sin_norm > 1e-12, dot(skew_vec, axis) < 0.0,
                    axis[rows, np.argmax(np.abs(axis), axis=1)] < 0.0)
    return np.where(flip[:, None], -axis, axis)


def so3_left_jacobian(v: np.ndarray) -> np.ndarray:
    """Left Jacobian J_l of SO(3): integral of exp over [0, 1]."""
    return _exp_and_left_jacobian(v)[1]


def _left_jacobian_inv(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """J_l(v)^-1 = I - K/2 + e K^2, with K = hat(v) and theta = |v|."""
    (e,) = _gamma_coeffs(theta, "e")
    k = hat(v)
    return _EYE3 - 0.5 * k + e[..., None, None] * (k @ k)


_COEFFS = {  # name: ((c0, c2, c4) of its series, its closed form)
    "a": ((1.0, 6.0, 120.0), lambda t, t2, s, vs: s / t),
    "b": ((0.5, 24.0, 720.0), lambda t, t2, s, vs: vs / t2),
    "c": ((1.0 / 6.0, 120.0, 5040.0), lambda t, t2, s, vs: (t - s) / (t2 * t)),
    "g": ((1.0 / 24.0, 720.0, 40320.0), lambda t, t2, s, vs: (0.5 * t2 - vs) / (t2 * t2)),
    "e": ((1.0 / 12.0, -720.0, 30240.0), lambda t, t2, s, vs: (1.0 - t * s / (2.0 * vs)) / t2),
}


def _gamma_coeffs(theta, names: str) -> tuple:
    """The coefficients `names` of Gamma_0 = exp = I + a K + b K^2, Gamma_1 =
    J_l = I + b K + c K^2, Gamma_2 = I/2 + c K + g K^2 and J_l^-1 = I - K/2 +
    e K^2 (K = hat(v)) at theta = |v|: below SMALL_ANGLE the series c0 - t^2/c2
    + t^4/c4, above it the closed form in t, t^2, sin t and vs = 1 - cos t, which
    sees 1.0 in place of a small angle so that neither form divides by zero."""
    small = theta < SMALL_ANGLE
    n_small = np.count_nonzero(small)
    if n_small:
        t2 = theta * theta
        lo = tuple(c0 - t2 / c2 + t2 * t2 / c4 for (c0, c2, c4), _ in map(_COEFFS.get, names))
        if n_small == small.size:
            return lo
        theta = np.where(small, 1.0, theta)
    s_half = np.sin(0.5 * theta)
    forms = (theta, theta * theta, np.sin(theta), 2.0 * s_half * s_half)
    hi = tuple(closed(*forms) for _, closed in map(_COEFFS.get, names))
    return tuple(np.where(small, *lh) for lh in zip(lo, hi)) if n_small else hi


def gamma0_and_applied(v: np.ndarray, u: np.ndarray):
    """Gamma_0(v) as a matrix plus (Gamma_1(v) u, Gamma_2(v) u) as vectors.

    Gamma_m = sum_n hat(v)^n / (n + m)!, Gamma_2 being the position update's
    double integral; Gamma_1 and Gamma_2 act on u through hat(v) u and hat(v)^2 u.
    """
    v = np.asarray(v, dtype=float)
    a, b, c, g = _gamma_coeffs(_norm(v), "abcg")
    k = hat(v)
    g0 = _rodrigues(a, b, k, k @ k)
    ku = matvec(k, u)
    kku = matvec(k, ku)
    b, c = b[..., None], c[..., None]
    return g0, u + b * ku + c * kku, 0.5 * u + c * ku + g[..., None] * kku


def project_to_rotation(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix by polar decomposition (SVD)."""
    u, _, vt = np.linalg.svd(m)
    rot = u @ vt
    reflected = np.linalg.det(rot) < 0.0
    if np.count_nonzero(reflected):
        rot[reflected] = (u[reflected] * [1.0, 1.0, -1.0]) @ vt[reflected]
    return rot


def rotation_defect(rot: np.ndarray) -> np.ndarray:
    """Frobenius distance of rot^T rot from the identity."""
    d = transposed(rot) @ rot
    d -= _EYE3  # in place: no second temporary the size of rot
    return np.sqrt(np.einsum("...ij,...ij->...", d, d))


@dataclass(frozen=True)
class GroupElement:
    """Point on SE_3(3): rotation (..., 3, 3) plus columns [v, p, d] (..., 3, 3)."""

    rot: np.ndarray
    cols: np.ndarray

    @property
    def vel(self) -> np.ndarray:
        return self.cols[..., 0]

    @property
    def pos(self) -> np.ndarray:
        return self.cols[..., 1]

    @property
    def foot(self) -> np.ndarray:
        return self.cols[..., 2]


def compose(x1: GroupElement, x2: GroupElement) -> GroupElement:
    return GroupElement(x1.rot @ x2.rot, x1.rot @ x2.cols + x1.cols)


def inverse(x: GroupElement) -> GroupElement:
    rt = transposed(x.rot)
    return GroupElement(rt.copy(), -(rt @ x.cols))


def _tangent_cols(xi: np.ndarray) -> np.ndarray:
    """The translation blocks of tangent vectors as (..., 3, 3) columns."""
    return transposed(xi[..., 3:].reshape(xi.shape[:-1] + (3, 3)))


def sek3_exp(xi: np.ndarray) -> GroupElement:
    """Group exponential from a, b, c alone: columns mapped through J_l of xi_R."""
    xi = np.asarray(xi, dtype=float)
    rot, jl = _exp_and_left_jacobian(xi[..., :3])
    return GroupElement(rot, jl @ _tangent_cols(xi))


def sek3_log(x: GroupElement) -> np.ndarray:
    w, theta = _log_and_angle(x.rot)
    cols = transposed(_left_jacobian_inv(w, theta) @ x.cols)
    return np.concatenate([w, cols.reshape(w.shape[:-1] + (9,))], axis=-1)


def adjoint(x: GroupElement) -> np.ndarray:
    """Adjoint matrix: satisfies X xi^ X^-1 == (adjoint(X) xi)^."""
    rot = x.rot
    lead = rot.shape[:-2]
    # As 4 x 4 blocks of 3 x 3: rot on the diagonal and hat(col_i) @ rot
    # down the first block column.
    ad = np.zeros(lead + (4, 3, 4, 3))
    ad[..., 1:, :, 0, :] = hat(transposed(x.cols)) @ rot[..., None, :, :]
    diagonal = np.arange(4)
    ad[..., diagonal, :, diagonal, :] = rot
    return ad.reshape(lead + (12, 12))
