import math

import numpy as np
import pytest
from scipy.linalg import expm

from drs_inekf import liegroup as lg
from drs_inekf.liegroup import (
    GroupElement,
    adjoint,
    algebra_hat,
    compose,
    gamma0_and_applied,
    hat,
    identity,
    inverse,
    project_to_rotation,
    rotation_defect,
    sek3_exp,
    sek3_log,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
    vee,
)

from conftest import random_element, so3_gammas


class TestHat:
    def test_zero(self):
        assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_product_definition(self):
        assert np.allclose(hat(np.array([0.0, 0.0, 1.0])) @ [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0])

    def test_matches_cross_product(self, rng):
        for _ in range(100):
            v, u = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(hat(v) @ u, np.cross(v, u), atol=1e-15)

    def test_linear_and_skew(self, rng):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(2.0 * a - 3.0 * b), 2.0 * hat(a) - 3.0 * hat(b))
        m = hat(a)
        assert np.array_equal(m, -m.T)
        assert np.allclose(vee(m), a)


class TestSo3:
    def test_exp_zero_is_identity(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = so3_exp(np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_log_roundtrip_to_three_radians(self, rng):
        for _ in range(1000):
            v = rng.standard_normal(3)
            v *= rng.uniform(0.0, 3.0) / np.linalg.norm(v)
            assert np.linalg.norm(so3_log(so3_exp(v)) - v) < 1e-10

    def test_small_angle_series_matches_high_order_taylor(self, rng):
        # Independent oracle: truncated Taylor series of exp at tiny angles.
        for scale in (1e-12, 1e-9, 1e-7, 1e-5):
            v = rng.standard_normal(3)
            v *= scale / np.linalg.norm(v)
            k = hat(v)
            taylor = (np.eye(3) + k + k @ k / 2.0 + k @ k @ k / 6.0
                      + k @ k @ k @ k / 24.0)
            assert np.allclose(so3_exp(v), taylor, atol=1e-15)
            assert np.linalg.norm(so3_log(so3_exp(v)) - v) <= 1e-15 + 1e-6 * scale

    def test_exp_log_identity_near_pi(self, rng):
        for _ in range(300):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = math.pi - 10.0 ** rng.uniform(-14.0, -0.5)
            r = so3_exp(axis * theta)
            assert np.linalg.norm(so3_exp(so3_log(r)) - r) < 1e-9

    def test_log_at_exactly_pi(self):
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                     np.array([0.6, -0.64, 0.48])):
            axis = axis / np.linalg.norm(axis)
            r = so3_exp(axis * math.pi)
            v = so3_log(r)
            assert abs(np.linalg.norm(v) - math.pi) < 1e-9
            assert np.linalg.norm(so3_exp(v) - r) < 1e-9

    def test_log_angle_range(self, rng):
        for _ in range(200):
            v = rng.standard_normal(3) * 2.0
            angle = np.linalg.norm(so3_log(so3_exp(v)))
            assert angle <= math.pi + 1e-12

    def test_left_jacobian_matches_integral_oracle(self, rng):
        # J_l(v) = integral of exp(s hat(v)) ds over [0, 1], by quadrature.
        for _ in range(20):
            v = rng.standard_normal(3) * rng.uniform(0.0, 2.5)
            s = np.linspace(0.0, 1.0, 2001)
            quad = np.zeros((3, 3))
            for i in range(len(s) - 1):
                mid = 0.5 * (s[i] + s[i + 1])
                quad += so3_exp(mid * v) * (s[i + 1] - s[i])
            assert np.allclose(so3_left_jacobian(v), quad, atol=1e-7)

    def test_left_jacobian_inverse(self, rng):
        for _ in range(200):
            v = rng.standard_normal(3)
            v *= rng.uniform(0.0, 3.1) / np.linalg.norm(v)
            prod = so3_left_jacobian(v) @ so3_left_jacobian_inv(v)
            assert np.allclose(prod, np.eye(3), atol=1e-10)

    def test_gammas_match_series_oracle(self, rng):
        # Gamma_m = sum_n hat(v)^n / (n+m)! summed far past convergence.
        for _ in range(20):
            v = rng.standard_normal(3) * rng.uniform(0.0, 2.0)
            k = hat(v)
            series = []
            for m in range(3):
                acc = np.zeros((3, 3))
                term = np.eye(3) / math.factorial(m)
                acc += term
                for n in range(1, 30):
                    term = term @ k / (n + m)
                    acc += term
                series.append(acc)
            g0, g1, g2 = so3_gammas(v)
            assert np.allclose(g0, series[0], atol=1e-12)
            assert np.allclose(g1, series[1], atol=1e-12)
            assert np.allclose(g2, series[2], atol=1e-12)

    def test_gamma_applied_matches_matrices(self, rng):
        for _ in range(100):
            v = rng.standard_normal(3) * rng.uniform(0.0, 1.0)
            u = rng.standard_normal(3)
            g0, g1, g2 = so3_gammas(v)
            h0, g1u, g2u = gamma0_and_applied(v, u)
            assert np.allclose(h0, g0, atol=1e-15)
            assert np.allclose(g1u, g1 @ u, atol=1e-14)
            assert np.allclose(g2u, g2 @ u, atol=1e-14)


class TestSek3:
    def test_exp_zero(self):
        x = sek3_exp(np.zeros(12))
        assert x.is_close(identity(), tol=1e-15)

    def test_zero_rotation_block_passes_columns_verbatim(self, rng):
        xi = np.zeros(12)
        xi[3:] = rng.standard_normal(9)
        x = sek3_exp(xi)
        assert np.allclose(x.rot, np.eye(3))
        assert np.allclose(x.cols.T.reshape(-1), xi[3:], atol=1e-15)

    def test_exp_matches_dense_matrix_exponential(self, rng):
        for _ in range(300):
            xi = rng.standard_normal(12)
            dense = expm(algebra_hat(xi))
            assert np.linalg.norm(sek3_exp(xi).embed() - dense) < 1e-9

    def test_log_roundtrip(self, rng):
        for _ in range(500):
            xi = rng.standard_normal(12)
            xi[:3] *= rng.uniform(0.0, 3.1) / np.linalg.norm(xi[:3])
            assert np.linalg.norm(sek3_log(sek3_exp(xi)) - xi) < 1e-10

    def test_compose_inverse_match_dense_oracle(self, rng):
        for _ in range(200):
            x1 = random_element(rng)
            x2 = random_element(rng)
            dense = x1.embed() @ x2.embed()
            assert np.linalg.norm(compose(x1, x2).embed() - dense) < 1e-12
            assert np.linalg.norm(inverse(x1).embed()
                                  - np.linalg.inv(x1.embed())) < 1e-12

    def test_compose_with_inverse_is_identity(self, rng):
        x = random_element(rng)
        assert compose(x, inverse(x)).is_close(identity(), tol=1e-12)
        assert inverse(identity()).is_close(identity(), tol=1e-15)

    def test_inverse_structure(self, rng):
        x = random_element(rng)
        inv = inverse(x)
        assert np.allclose(inv.rot, x.rot.T)
        assert np.allclose(inv.cols, -(x.rot.T @ x.cols))

    def test_group_axioms(self, rng):
        for _ in range(1000):
            a, b, c = (random_element(rng) for _ in range(3))
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            assert np.linalg.norm(lhs.embed() - rhs.embed()) < 1e-11
        a = random_element(rng)
        assert compose(a, identity()).is_close(a, tol=1e-15)
        assert compose(identity(), a).is_close(a, tol=1e-15)


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(adjoint(identity()), np.eye(12))

    def test_pure_rotation_is_block_diagonal(self, rng):
        rot = so3_exp(rng.standard_normal(3))
        x = GroupElement(rot, np.zeros((3, 3)))
        expected = np.zeros((12, 12))
        for i in range(4):
            expected[3 * i:3 * i + 3, 3 * i:3 * i + 3] = rot
        assert np.allclose(adjoint(x), expected)

    def test_defining_identity(self, rng):
        for _ in range(200):
            x = random_element(rng)
            xi = rng.standard_normal(12)
            lhs = x.embed() @ algebra_hat(xi) @ inverse(x).embed()
            rhs = algebra_hat(adjoint(x) @ xi)
            assert np.linalg.norm(lhs - rhs) < 1e-11


class TestNumericalHygiene:
    def test_orthogonality_drift_over_many_compositions(self, rng):
        # 1e5 composed rotations with projection whenever drift exceeds 1e-9.
        rot = np.eye(3)
        step = so3_exp(np.array([1e-3, -2e-3, 0.5e-3]))
        for _ in range(100_000):
            rot = rot @ step
            if rotation_defect(rot) > 1e-9:
                rot = project_to_rotation(rot)
        assert rotation_defect(rot) <= 1e-9

    def test_project_to_rotation(self, rng):
        rot = so3_exp(rng.standard_normal(3))
        noisy = rot + rng.standard_normal((3, 3)) * 1e-6
        fixed = project_to_rotation(noisy)
        assert rotation_defect(fixed) < 1e-12
        assert np.linalg.norm(fixed - rot) < 1e-5
