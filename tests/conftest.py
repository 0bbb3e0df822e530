import math

import numpy as np
import pytest
from scipy.linalg import logm

from drs_inekf.liegroup import (
    GroupElement,
    _gamma_coeffs,
    adjoint,
    compose,
    from_embedded,
    gamma0_and_applied,
    hat,
    inverse,
    project_to_rotation,
    sek3_exp,
    sek3_log,
)
from drs_inekf.models import GRAVITY, ImuStep, process_dynamics, state_transition
from drs_inekf.streams import (
    FkOrientation,
    FkPosition,
    SurfacePose,
    SwapEvent,
    TruthSample,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_element(rng, rot_scale: float = 1.0, col_scale: float = 1.0) -> GroupElement:
    xi = rng.standard_normal(12)
    xi[:3] *= rot_scale
    xi[3:] *= col_scale
    return sek3_exp(xi)


def random_imu(rng, t: float = 0.0, dt: float = 0.0025,
               contact_vel_scale: float = 0.3) -> ImuStep:
    return ImuStep(t, dt, rng.standard_normal(3),
                   rng.standard_normal(3) * 3.0,
                   rng.standard_normal(3) * contact_vel_scale)


def so3_gammas(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Gamma_0, Gamma_1, Gamma_2) for strapdown integration, as matrices.

    Gamma_m = sum_n hat(v)^n / (n + m)!; Gamma_0 = exp, Gamma_1 = J_l and
    Gamma_2 is the double integral term for the position update.
    """
    a, b, c, g2b = _gamma_coeffs(math.sqrt(float(v @ v)))
    k = hat(v)
    k2 = k @ k
    eye = np.eye(3)
    return eye + a * k + b * k2, eye + b * k + c * k2, 0.5 * eye + c * k + g2b * k2


def rk4_flow(x, u, h, substeps=10):
    """Integrate the embedded-matrix process ODE with constant input u."""
    m = x.embed()
    hh = h / substeps
    for _ in range(substeps):
        k1 = process_dynamics(from_embedded(m), u)
        k2 = process_dynamics(from_embedded(m + 0.5 * hh * k1), u)
        k3 = process_dynamics(from_embedded(m + 0.5 * hh * k2), u)
        k4 = process_dynamics(from_embedded(m + hh * k3), u)
        m = m + hh / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return from_embedded(m)


def fd_error_jacobian(x_base, u, h=1e-3, eps=1e-5, substeps=10):
    """Finite-difference Jacobian of the exact error flow.

    Flows the pair (exp(xi) X, X) through the nonlinear dynamics and
    differentiates log of the relative error; the matrix log of the
    resulting transition recovers the error dynamics matrix.
    """
    x1h = rk4_flow(x_base, u, h, substeps)
    phi = np.zeros((12, 12))
    for j in range(12):
        cols = []
        for sgn in (1.0, -1.0):
            xi0 = np.zeros(12)
            xi0[j] = sgn * eps
            x2h = rk4_flow(compose(sek3_exp(xi0), x_base), u, h, substeps)
            cols.append(sek3_log(compose(x2h, inverse(x1h))))
        phi[:, j] = (cols[0] - cols[1]) / (2.0 * eps)
    return np.real(logm(phi)) / h


def fd_measurement_jacobian(build_innovation, eps=1e-6):
    """Central finite differences of an innovation over error perturbations."""
    h = np.zeros((3, 12))
    for j in range(12):
        xi = np.zeros(12)
        xi[j] = eps
        zp = build_innovation(xi)
        xi[j] = -eps
        zm = build_innovation(xi)
        h[:, j] = (zp - zm) / (2.0 * eps)
    return h


# -- scalar reference filter --------------------------------------------------
#
# The per-record, one-estimate-at-a-time fold the lockstep engine replaced,
# kept as the oracle the engine is compared with: propagate, update and
# apply_jump on 2-D arrays, routed record by record, with the metrics of
# one row per truth sample.

def _sym(m):
    return 0.5 * (m + m.T)


def oracle_propagate(mean, cov, u, noise):
    dt = u.dt
    rot = mean.rot
    g0, g1a, g2a = gamma0_and_applied(u.gyro * dt, u.accel)
    rot_new = rot @ g0
    diff = rot_new.T @ rot_new - np.eye(3)
    if float((diff * diff).sum()) > 1e-18:
        rot_new = project_to_rotation(rot_new)
    old = mean.cols
    cols = np.empty((3, 3))
    cols[:, 0] = old[:, 0] + GRAVITY * dt + (rot @ g1a) * dt
    cols[:, 1] = (old[:, 1] + old[:, 0] * dt + 0.5 * GRAVITY * dt * dt
                  + (rot @ g2a) * dt * dt)
    cols[:, 2] = old[:, 2] + u.contact_vel * dt
    phi = state_transition(dt)
    m = phi @ adjoint(mean)
    cov = _sym(phi @ cov @ phi.T + (m @ noise.process_cov() @ m.T) * dt)
    return GroupElement(rot_new, cols), cov


def oracle_update(mean, cov, y, b, h, n, epsilon):
    z = mean.rot @ y[:3] + mean.cols @ y[3:] - b[:3]
    pht = cov @ h.T
    gain = np.linalg.solve((h @ pht + n + epsilon * np.eye(3)).T, pht.T).T
    ikh = np.eye(12) - gain @ h
    return (compose(sek3_exp(gain @ z), mean),
            _sym(ikh @ cov @ ikh.T + gain @ n @ gain.T))


def oracle_metric_rows(records, mean, cov, noise, proposed, on_contact_only,
                       epsilon):
    """Metric rows (pos, vel, |roll|, |pitch|, |yaw| in deg, NEES) per truth."""
    surface, fresh, rows = None, True, []
    for rec in records:
        enabled = fresh or not on_contact_only
        if isinstance(rec, ImuStep):
            mean, cov = oracle_propagate(mean, cov, rec, noise)
        elif isinstance(rec, SurfacePose):
            surface = rec.rot
        elif isinstance(rec, FkOrientation):
            if proposed and enabled:
                n_s = surface @ np.array([0.0, 0.0, 1.0])
                h = np.zeros((3, 12))
                h[:, 0:3] = hat(n_s)
                y = np.concatenate([rec.rot[:, 2], np.zeros(3)])
                n = mean.rot @ noise.surface_orient_cov @ mean.rot.T
                mean, cov = oracle_update(mean, cov, y, np.concatenate(
                    [n_s, np.zeros(3)]), h, n, epsilon)
        elif isinstance(rec, FkPosition):
            if enabled:
                h = np.zeros((3, 12))
                h[:, 6:9] = -np.eye(3)
                h[:, 9:12] = np.eye(3)
                n = mean.rot @ noise.fk_pos_cov @ mean.rot.T
                mean, cov = oracle_update(
                    mean, cov, np.concatenate([rec.hp, [0.0, 1.0, -1.0]]),
                    np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]), h, n, epsilon)
            fresh = False
        elif isinstance(rec, SwapEvent):
            cols = mean.cols.copy()
            cols[:, 2] = mean.foot + mean.rot @ rec.h_d
            mean = GroupElement(mean.rot, cols)
            if np.any(noise.jump_cov):
                ad = adjoint(mean)
                cov = _sym(cov + ad @ noise.jump_cov @ ad.T)
            fresh = True
        elif isinstance(rec, TruthSample):
            truth = rec.element
            xi = sek3_log(compose(mean, inverse(truth)))
            r = mean.rot @ truth.rot.T
            euler = (math.atan2(r[2, 1], r[2, 2]),
                     -math.asin(min(1.0, max(-1.0, r[2, 0]))),
                     math.atan2(r[1, 0], r[0, 0]))
            rows.append([float(np.linalg.norm(mean.pos - truth.pos)),
                         float(np.linalg.norm(mean.vel - truth.vel))]
                        + [abs(math.degrees(a)) for a in euler]
                        + [float(xi @ np.linalg.solve(cov + epsilon * np.eye(12),
                                                      xi))])
    return np.array(rows)
