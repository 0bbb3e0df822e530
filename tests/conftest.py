import math

import numpy as np
import pytest
from scipy.linalg import logm

from drs_inekf.liegroup import (
    GroupElement,
    _gamma_coeffs,
    compose,
    from_embedded,
    hat,
    inverse,
    sek3_exp,
    sek3_log,
)
from drs_inekf.models import ImuStep, process_dynamics


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
