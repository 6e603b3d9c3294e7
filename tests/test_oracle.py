"""Tests for the brute-force reference solvers."""

import numpy as np
import pytest

from oracles import oracle_lasso_small, oracle_project_l1, oracle_pv_linear, oracle_sphere_lasso
from sixlasso import (
    Dataset,
    NegativeRadius,
    fit_lasso,
    generate_dataset,
    lipschitz_estimate,
    make_signal,
    project_l1_ball,
    pv_linear_fit,
)


def _dataset(X, y):
    X = np.asarray(X, float)
    return Dataset(X=X, y=np.asarray(y, float))


class TestGridSpec:
    def test_validation(self):
        # every exhaustive search takes its grid as a step in (0, 0.1]
        X = np.random.default_rng(2).standard_normal((10, 2))
        data = _dataset(X, np.ones(10))
        for step in (0.0, 0.2):
            with pytest.raises(ValueError, match="step"):
                oracle_lasso_small(data, 1.0, step)
            with pytest.raises(ValueError, match="step"):
                oracle_sphere_lasso(data, 2.0, 1.0, step)
            with pytest.raises(ValueError, match="step"):
                oracle_pv_linear(np.ones(2), 1.0, step)


class TestOracleProjectL1:
    def test_kkt_hand_solve(self):
        np.testing.assert_allclose(oracle_project_l1(np.array([3.0, 1.0]), 2.0),
                                   [2.0, 0.0], atol=1e-12)

    def test_feasible_unchanged(self):
        v = np.array([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(oracle_project_l1(v, 3.0), v)

    def test_sign_preserved(self):
        np.testing.assert_allclose(oracle_project_l1(np.array([-4.0, 0.0]), 1.0),
                                   [-1.0, 0.0], atol=1e-12)

    def test_negative_radius(self):
        with pytest.raises(NegativeRadius):
            oracle_project_l1(np.array([1.0]), -1.0)

    def test_agrees_with_sorted_projector(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            p = int(rng.integers(1, 30))
            v = rng.standard_normal(p) * rng.uniform(0.1, 5)
            radius = rng.uniform(0, np.abs(v).sum())
            np.testing.assert_allclose(oracle_project_l1(v, radius),
                                       project_l1_ball(v, radius), atol=1e-8)


class TestOracleLassoSmall:
    def test_noiseless_recovery_on_grid(self):
        beta_star = np.array([0.5, 0.0])
        X = np.random.default_rng(5).standard_normal((60, 2))
        beta, obj = oracle_lasso_small(_dataset(X, X @ beta_star), 1.0, 0.01)
        np.testing.assert_allclose(beta, beta_star, atol=0.01)
        assert obj <= 1e-25

    def test_tiny_radius_returns_origin(self):
        X = np.random.default_rng(6).standard_normal((30, 2))
        beta, _ = oracle_lasso_small(_dataset(X, np.ones(30)), 1e-12, 0.01)
        np.testing.assert_array_equal(beta, [0.0, 0.0])

    def test_dimension_cap(self):
        X = np.zeros((5, 4))
        with pytest.raises(ValueError, match="p <= 3"):
            oracle_lasso_small(_dataset(X, np.ones(5)), 1.0)

    def test_mutual_bound_with_solver(self):
        sig = make_signal(2, 1, seed=30)
        data = generate_dataset(sig, 100, "logistic", seed=31)
        step = 0.01
        fit = fit_lasso(data, 1.0)
        beta_o, obj_o = oracle_lasso_small(data, 1.0, step)
        L = lipschitz_estimate(data.X)
        # grid point is feasible, so the solver cannot do worse than it
        assert fit.objective <= obj_o + 1e-9
        # rounding the true minimizer to the grid costs at most a first-order
        # term plus curvature
        grad_norm = np.linalg.norm((2.0 / data.n) * data.X.T @ (data.X @ fit.beta_hat - data.y))
        bound = grad_norm * np.sqrt(2) * step + 0.5 * L * 2 * step ** 2
        assert obj_o <= fit.objective + bound

    def test_refinement_monotone(self):
        sig = make_signal(2, 2, seed=33)
        data = generate_dataset(sig, 50, "logistic", seed=34)
        objs = [oracle_lasso_small(data, 1.0, s)[1] for s in (0.08, 0.04, 0.02)]
        assert objs[1] <= objs[0] and objs[2] <= objs[1]


class TestOracleSphereLasso:
    def test_full_circle_recovers_off_grid_direction(self):
        # l1 cap sqrt(2) never cuts the unit circle; noiseless linear data make
        # the true direction the unique minimizer, found to within one step
        theta_star = 0.803
        beta_star = np.array([np.cos(theta_star), np.sin(theta_star)])
        X = np.random.default_rng(3).standard_normal((500, 2))
        data = _dataset(X, X @ beta_star)
        beta, _ = oracle_sphere_lasso(data, np.sqrt(2.0), 1.0, 0.01)
        assert abs(np.arctan2(beta[1], beta[0]) - theta_star) <= 0.01

    def test_tight_cap_keeps_only_axis_points(self):
        beta_star = np.array([0.0, 1.0])
        X = np.random.default_rng(4).standard_normal((200, 2))
        data = _dataset(X, X @ beta_star)
        beta, obj = oracle_sphere_lasso(data, 1.0, 1.0, 0.01)
        np.testing.assert_array_equal(beta, beta_star)
        assert obj == 0.0

    def test_empty_feasible_set(self):
        X = np.random.default_rng(5).standard_normal((20, 2))
        with pytest.raises(ValueError, match="outside the l1 ball"):
            oracle_sphere_lasso(_dataset(X, np.ones(20)), 0.9, 1.0)

    def test_p3_axis_recovery(self):
        beta_star = np.array([0.0, 0.0, -1.0])
        X = np.random.default_rng(6).standard_normal((400, 3))
        data = _dataset(X, X @ beta_star)
        beta, _ = oracle_sphere_lasso(data, 1.0, 1.0, 0.02)
        np.testing.assert_allclose(beta, beta_star, atol=1e-15)

    def test_scaled_sphere(self):
        beta_star = np.array([0.6, 0.8])
        X = np.random.default_rng(7).standard_normal((300, 2))
        data = _dataset(X, X @ (0.5 * beta_star))
        beta, _ = oracle_sphere_lasso(data, 1.0, 0.5, 0.01)
        assert np.linalg.norm(beta) == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(beta - 0.5 * beta_star) <= 0.01

    def test_refinement_monotone(self):
        sig = make_signal(2, 1, seed=8)
        data = generate_dataset(sig, 80, "logistic", seed=9)
        objs = [oracle_sphere_lasso(data, 1.2, 1.0, s)[1] for s in (0.08, 0.04, 0.02)]
        assert objs[1] <= objs[0] and objs[2] <= objs[1]

    def test_dimension_cap(self):
        X = np.zeros((5, 4))
        with pytest.raises(ValueError, match="sphere search supports p in"):
            oracle_sphere_lasso(_dataset(X, np.ones(5)), 2.0, 1.0)


class TestOraclePVLinear:
    def test_axis_gradient_exact(self):
        np.testing.assert_array_equal(oracle_pv_linear(np.array([1.0, 0.0]), 1.0),
                                      [1.0, 0.0])

    def test_diagonal_gradient_near_optimal_objective(self):
        # the linear objective is flat along the sphere near its maximizer, so
        # assert objective closeness (second-order in the coordinate gap)
        g = np.array([1.0, 1.0])
        beta = oracle_pv_linear(g, np.sqrt(2.0), 0.01)
        assert g @ beta >= np.sqrt(2.0) - np.linalg.norm(g) * 0.01
        assert np.linalg.norm(beta - np.sqrt(0.5)) <= np.sqrt(4 * 0.01)

    def test_agrees_with_solver(self):
        g = np.array([2.0, 1.0])
        step = 0.005
        beta_o = oracle_pv_linear(g, 1.2, step)
        w = pv_linear_fit(_dataset(np.eye(2), g), 1.2)
        assert np.linalg.norm(beta_o - w) <= np.sqrt(2) * step
        assert g @ w >= g @ beta_o  # exact solution beats any grid point

    def test_random_small_p_agrees_with_solver(self):
        rng = np.random.default_rng(31)
        step = 0.02
        for _ in range(30):
            p = int(rng.integers(1, 4))
            g = rng.standard_normal(p) * rng.uniform(0.5, 5)
            radius = float(rng.uniform(1.0, np.sqrt(p)))
            beta_o = oracle_pv_linear(g, radius, step)
            w = pv_linear_fit(_dataset(np.eye(p), g), radius)
            # the exact maximizer beats every grid point, and a feasible grid
            # point lies within p * step of it in objective per unit ||g||
            assert g @ w >= g @ beta_o - 1e-12
            assert g @ w - g @ beta_o <= p * step * np.linalg.norm(g)
            assert np.linalg.norm(beta_o - w) <= 2 * np.sqrt(step)

    def test_refinement_monotone_maximization(self):
        g = np.array([1.3, -0.4])
        objs = [g @ oracle_pv_linear(g, 1.1, s) for s in (0.08, 0.04, 0.02)]
        assert objs[1] >= objs[0] and objs[2] >= objs[1]

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="p <= 3"):
            oracle_pv_linear(np.ones(4), 1.0)
