import math

import numpy as np
import pytest
from scipy.linalg import expm

from drs_inekf import liegroup as lg
from drs_inekf.liegroup import (
    GroupElement,
    adjoint,
    compose,
    gamma0_and_applied,
    hat,
    inverse,
    project_to_rotation,
    rotation_defect,
    sek3_exp,
    sek3_log,
    so3_exp,
    so3_left_jacobian,
    so3_log,
    vee,
)

import conftest
from conftest import (
    algebra_hat,
    embed,
    identity,
    is_close,
    random_element,
    so3_gammas,
    so3_left_jacobian_inv,
)


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

    def test_series_match_closed_forms(self):
        # Every coefficient's small-angle series against its closed form at
        # an angle where both are accurate: they differ by O(t^6) there,
        # a wrong series term by O(t^2) or O(t^4).
        t = np.array(1e-2)
        forms = (t, t * t, np.sin(t), 2.0 * np.sin(0.5 * t) ** 2)
        for name, ((c0, c2, c4), closed) in lg._COEFFS.items():
            series = c0 - t * t / c2 + t ** 4 / c4
            assert abs(series - closed(*forms)) < 1e-9, name

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
        assert is_close(x, identity(), tol=1e-15)

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
            assert np.linalg.norm(embed(sek3_exp(xi)) - dense) < 1e-9

    def test_log_roundtrip(self, rng):
        for _ in range(500):
            xi = rng.standard_normal(12)
            xi[:3] *= rng.uniform(0.0, 3.1) / np.linalg.norm(xi[:3])
            assert np.linalg.norm(sek3_log(sek3_exp(xi)) - xi) < 1e-10

    def test_compose_inverse_match_dense_oracle(self, rng):
        for _ in range(200):
            x1 = random_element(rng)
            x2 = random_element(rng)
            dense = embed(x1) @ embed(x2)
            assert np.linalg.norm(embed(compose(x1, x2)) - dense) < 1e-12
            assert np.linalg.norm(embed(inverse(x1))
                                  - np.linalg.inv(embed(x1))) < 1e-12

    def test_compose_with_inverse_is_identity(self, rng):
        x = random_element(rng)
        assert is_close(compose(x, inverse(x)), identity(), tol=1e-12)
        assert is_close(inverse(identity()), identity(), tol=1e-15)

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
            assert np.linalg.norm(embed(lhs) - embed(rhs)) < 1e-11
        a = random_element(rng)
        assert is_close(compose(a, identity()), a, tol=1e-15)
        assert is_close(compose(identity(), a), a, tol=1e-15)


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
            lhs = embed(x) @ algebra_hat(xi) @ embed(inverse(x))
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


def angle_cases(rng):
    """Rotation vectors at every branch: zero, series, closed form, near pi."""
    angles = np.array([0.0, 1e-12, 1e-7, 9e-7, 2e-6, 0.3, 1.5, math.pi - 1e-2,
                       math.pi - 1e-4, math.pi - 1e-9, math.pi, 2.5])
    axes = rng.standard_normal((len(angles), 3))
    axes[-2] = [0.0, 0.0, 1.0]
    return axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]


class TestBatched:
    """A batched call equals the unbatched call on each slice, bit for bit."""

    @staticmethod
    def assert_slices(got, single, inputs, shape):
        for i in np.ndindex(shape):
            expected = single(*(x[i] for x in inputs))
            if isinstance(expected, tuple):
                for g, e in zip(got, expected):
                    assert np.array_equal(g[i], e), i
            elif isinstance(expected, GroupElement):
                assert np.array_equal(got.rot[i], expected.rot), i
                assert np.array_equal(got.cols[i], expected.cols), i
            else:
                assert np.array_equal(got[i], expected), i

    @pytest.mark.parametrize("name", ["hat", "so3_exp", "so3_left_jacobian",
                                      "so3_left_jacobian_inv", "sek3_exp",
                                      "algebra_hat", "gamma0_and_applied"])
    def test_vector_functions(self, rng, name):
        v = angle_cases(rng)
        xi = np.concatenate([v, rng.standard_normal((len(v), 9))], axis=1)
        u = rng.standard_normal(v.shape)
        # algebra_hat and so3_left_jacobian_inv are test oracles.
        fn = getattr(lg, name, None) or getattr(conftest, name)
        args = {"sek3_exp": (xi,), "algebra_hat": (xi,),
                "gamma0_and_applied": (v, u)}.get(name, (v,))
        for shape in ((len(v),), (3, len(v) // 3)):
            inputs = [a.reshape(shape + a.shape[1:]) for a in args]
            self.assert_slices(fn(*inputs), fn, inputs, shape)

    @pytest.mark.parametrize("name", ["so3_log", "vee", "project_to_rotation",
                                      "rotation_defect"])
    def test_rotation_functions(self, rng, name):
        rots = so3_exp(angle_cases(rng))
        if name == "project_to_rotation":
            rots = rots + rng.standard_normal(rots.shape) * 1e-6
        fn = getattr(lg, name)
        for shape in ((len(rots),), (3, len(rots) // 3)):
            inputs = [rots.reshape(shape + (3, 3))]
            self.assert_slices(fn(*inputs), fn, inputs, shape)

    @pytest.mark.parametrize("name", ["sek3_log", "adjoint", "inverse", "embed"])
    def test_element_functions(self, rng, name):
        v = angle_cases(rng)
        x = GroupElement(so3_exp(v), rng.standard_normal((len(v), 3, 3)))
        fn = embed if name == "embed" else getattr(lg, name)
        for shape in ((len(v),), (3, len(v) // 3)):
            xs = GroupElement(x.rot.reshape(shape + (3, 3)),
                              x.cols.reshape(shape + (3, 3)))
            self.assert_slices(fn(xs), lambda r, c: fn(GroupElement(r, c)),
                               [xs.rot, xs.cols], shape)

    def test_compose_broadcasts_a_shared_element(self, rng):
        xs = GroupElement(so3_exp(angle_cases(rng)),
                          rng.standard_normal((12, 3, 3)))
        y = random_element(rng)
        got = compose(xs, y)
        for i in range(12):
            expected = compose(GroupElement(xs.rot[i], xs.cols[i]), y)
            assert np.array_equal(got.rot[i], expected.rot)
            assert np.array_equal(got.cols[i], expected.cols)

    def test_near_pi_log_in_a_batch_still_round_trips(self, rng):
        v = angle_cases(rng)
        back = so3_exp(so3_log(so3_exp(v)))
        assert np.allclose(back, so3_exp(v), atol=1e-9)
