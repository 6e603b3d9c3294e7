"""Tests for the l1-ball projection, the FISTA solver (adaptive backtracking,
restart and exact finish), and the linear baseline."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_project_l1, reference_project_l1
from sixlasso import (
    LINK_KINDS,
    Dataset,
    FitResult,
    SixLassoError,
    fit_lasso,
    generate_dataset,
    lipschitz_estimate,
    make_signal,
    project_l1_ball,
    pv_linear_fit,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=30).map(np.array)
radii = st.floats(min_value=0, max_value=20, allow_nan=False)


class TestProjectL1Ball:
    def test_feasible_point_unchanged(self):
        v = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_single_coordinate_shrink(self):
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0),
                                   [1.0, 0.0], atol=1e-15)

    def test_kkt_hand_solve(self):
        # argmin ||w - (3,1)|| with |w|_1 <= 2: threshold at 1 -> (2, 0)
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 1.0]), 2.0),
                                   [2.0, 0.0], atol=1e-12)

    def test_exact_boundary_is_noop(self):
        v = np.array([0.75, -0.25])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be >= 0 and not NaN, got -0.1"):
            project_l1_ball(np.array([1.0]), -0.1)

    def test_zero_radius(self):
        np.testing.assert_array_equal(project_l1_ball(np.array([3.0, -2.0]), 0.0), [0.0, 0.0])

    @given(v=vectors, radius=radii)
    @settings(max_examples=200, deadline=None)
    def test_feasibility(self, v, radius):
        w = project_l1_ball(v, radius)
        assert np.abs(w).sum() <= radius + 1e-9

    @given(v=vectors, radius=radii)
    @settings(max_examples=200, deadline=None)
    def test_idempotence(self, v, radius):
        w = project_l1_ball(v, radius)
        np.testing.assert_allclose(project_l1_ball(w, radius), w, atol=1e-12)

    @given(v=vectors, radius=radii, shift=st.lists(finite_floats, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_non_expansiveness(self, v, radius, shift):
        u = v + np.resize(np.array(shift), v.shape)
        d_in = np.linalg.norm(u - v)
        d_out = np.linalg.norm(project_l1_ball(u, radius) - project_l1_ball(v, radius))
        assert d_out <= d_in + 1e-12

    def test_matches_breakpoint_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = int(rng.integers(1, 51))
            v = rng.standard_normal(p) * rng.uniform(0.1, 10)
            radius = rng.uniform(0, np.abs(v).sum() * 1.2)
            got = project_l1_ball(v, radius)
            want = oracle_project_l1(v, radius)
            np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("v", [[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0],
                                   [1.0, np.nan]])
    def test_non_finite_entry_raises(self, v):
        # [inf, 1] at radius 1 would otherwise come back as [nan, 0]
        with pytest.raises(ValueError, match="NaN or infinite"):
            project_l1_ball(np.array(v), 1.0)

    def test_non_finite_entry_raises_inside_an_infinite_ball(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            project_l1_ball(np.array([np.inf, 1.0]), np.inf)

    def test_nan_radius_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            project_l1_ball(np.array([3.0, 1.0]), np.nan)

    def test_overflowing_l1_norm_raises(self):
        # finite entries whose sum overflows would otherwise project to
        # [0, 0]; numpy warns of the overflow in the sum first
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="overflows"):
                project_l1_ball(np.array([1e308, 1e308]), 1.0)

    def test_infinite_radius_is_the_whole_space(self):
        v = np.array([1e300, -2.0])
        np.testing.assert_array_equal(project_l1_ball(v, np.inf), v)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3)])
    def test_any_shape_projects_all_its_entries_together(self, shape):
        v = np.random.default_rng(3).standard_normal(shape) * 4.0
        w = project_l1_ball(v, 1.0)
        _assert_same_bits(w, project_l1_ball(v.ravel(), 1.0).reshape(shape))
        assert np.abs(w).sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("v", [np.float64(3.0), np.float64(0.5), 3.0],
                             ids=["float64_outside", "float64_inside", "float_outside"])
    def test_zero_d_v_raises(self, v):
        # a scalar has no axis to project along: outside the ball numpy's
        # TypeError surfaced, inside it came back unchanged
        with pytest.raises(ValueError, match=r"\bv\b.*0-d"):
            project_l1_ball(v, 1.0)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# small integers tie often; fractions of them land inside, on and outside the ball
tie_vectors = st.lists(st.integers(-4, 4), min_size=1, max_size=40).map(lambda v: np.array(v, float))


class TestProjectL1BallMatchesReference:
    """project_l1_ball works in fewer arrays than the plain sort-and-threshold
    of tests/oracles.py, with the same operations in the same order: the
    two agree bit for bit, signed zeros included."""

    @given(v=vectors, radius=radii)
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_vectors(self, v, radius):
        _assert_same_bits(project_l1_ball(v, radius), reference_project_l1(v, radius))

    @given(v=tie_vectors, frac=st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 0.999, 1.0, 1.5]))
    @settings(max_examples=300, deadline=None)
    def test_ties_inside_on_and_outside_the_ball(self, v, frac):
        radius = frac * float(np.abs(v).sum())
        _assert_same_bits(project_l1_ball(v, radius), reference_project_l1(v, radius))

    @pytest.mark.parametrize("v", [[3.0, -2.0], [0.0, -0.0, 1.0], [-0.0], [5.0, 5.0, -5.0]])
    def test_radius_zero(self, v):
        v = np.array(v)
        _assert_same_bits(project_l1_ball(v, 0.0), reference_project_l1(v, 0.0))

    def test_on_the_sphere_and_below_an_ulp(self):
        v = np.array([0.75, -0.25, 0.0, -0.0])
        for radius in (1.0, np.nextafter(1.0, 0.0), 1e-300, 5e-324):
            _assert_same_bits(project_l1_ball(v, radius), reference_project_l1(v, radius))

    def test_fit_sized_vectors(self):
        # the length and spread of a p = 1200 gradient step
        rng = np.random.default_rng(31)
        for _ in range(100):
            v = rng.standard_normal(1200) * rng.uniform(1e-3, 10)
            radius = rng.uniform(0, 1.2) * float(np.abs(v).sum())
            _assert_same_bits(project_l1_ball(v, radius), reference_project_l1(v, radius))


class TestLipschitzEstimate:
    def test_identity_design(self):
        n = 6
        est = lipschitz_estimate(np.eye(n))
        assert est == pytest.approx(2.0 / n, abs=1e-6)

    def test_diagonal_design(self):
        # (2/2) X'X = diag(9, 1): largest diagonal entry 9
        est = lipschitz_estimate(np.diag([3.0, 1.0]))
        assert est == pytest.approx(9.0, abs=1e-6)

    def test_matches_dense_eigensolver(self):
        # exactly the largest diagonal entry of (2/n) X'X (integer entries, so
        # every column sum is exact), and never above the top eigenvalue
        rng = np.random.default_rng(8)
        X = rng.integers(-4, 5, size=(50, 10)).astype(float)
        gram = (2.0 / 50) * X.T @ X
        est = lipschitz_estimate(X)
        assert est == np.diag(gram).max()
        assert est <= float(np.linalg.eigvalsh(gram)[-1])

    def test_zero_matrix_raises(self):
        with pytest.raises(SixLassoError, match="identically zero"):
            lipschitz_estimate(np.zeros((4, 3)))

    def test_underflowing_squares_raise(self):
        # 1e-200 squared is 0 in double precision: a start of 0 that doubling
        # could never lift
        with pytest.raises(SixLassoError, match="underflow"):
            lipschitz_estimate(np.diag([1e-200, 1e-200]))

    def test_overflowing_squares_raise(self):
        with pytest.raises(ValueError, match="overflow"):
            lipschitz_estimate(np.diag([1e200, 1e200]))

    @pytest.mark.parametrize("X", [np.ones(3), np.empty((0, 3)), np.empty((3, 0))],
                             ids=["1-d", "no-rows", "no-columns"])
    def test_not_a_nonempty_matrix_rejected(self, X):
        with pytest.raises(ValueError, match="nonempty 2-d array"):
            lipschitz_estimate(X)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_named(self, bad, scale):
        # the non-finite start is the only finiteness check fit_lasso makes
        # of X, so its message must name the bad entries, not an overflow,
        # even where the finite columns' squares overflow too (scale 1e200)
        X = np.diag([scale, scale, 1.0])
        X[2, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite") as info:
            lipschitz_estimate(X)
        assert "overflow" not in str(info.value)


def _dataset(X, y):
    return Dataset(X=X, y=np.asarray(y, float))


def _prefix_view():
    """The first 3000 rows of a column-major 3100 x 1200 logistic draw."""
    sig = make_signal(1200, 10, seed=9)
    full = generate_dataset(sig, 3100, "logistic", seed=10)
    return _dataset(full.X[:3000], full.y[:3000])


def _float64_bytes(X):
    """The bytes of a float64 array of X's shape: the memory bounds below
    are fractions of it, so they do not halve with a float32 X."""
    return X.size * 8


def _traced_fit(data, radius):
    """fit_lasso's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        fit = fit_lasso(data, radius=radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fit, peak


class TestFitLasso:
    def test_noiseless_interpolation(self):
        beta_star = np.array([0.6, 0.8, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 5))
        fit = fit_lasso(_dataset(X, X @ beta_star), radius=1.5)
        assert np.linalg.norm(fit.beta_hat - beta_star) <= 1e-6
        assert fit.converged

    def test_constraint_collapse(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        fit = fit_lasso(_dataset(X, rng.standard_normal(40)), radius=1e-12)
        assert np.linalg.norm(fit.beta_hat) <= 1e-11

    def test_result_invariants(self):
        sig = make_signal(6, 2, seed=5)
        data = generate_dataset(sig, 120, "logistic", seed=6)
        fit = fit_lasso(data, radius=1.0)
        assert np.abs(fit.beta_hat).sum() <= 1.0 + 1e-9
        recomputed = float(np.sum((data.y - data.X @ fit.beta_hat) ** 2)) / data.n
        assert fit.objective == pytest.approx(recomputed, rel=1e-10)

    def test_monotone_descent(self):
        for seed in range(5):
            sig = make_signal(10, 3, seed=seed)
            data = generate_dataset(sig, 60, "logistic", seed=seed + 50)
            fit = fit_lasso(data, radius=1.2)
            assert np.all(np.diff(fit.objective_path) <= 0.0)

    def test_certificate_when_converged(self):
        sig = make_signal(8, 2, seed=9)
        data = generate_dataset(sig, 200, "logistic", seed=10)
        fit = fit_lasso(data, radius=1.0)
        assert fit.converged
        assert fit.fp_residual <= 1e-6

    def test_max_iter_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr("sixlasso.solver.MAX_ITER", 2)
        sig = make_signal(30, 5, seed=3)
        data = generate_dataset(sig, 50, "logistic", seed=4)
        fit = fit_lasso(data, radius=2.0)
        assert fit.iterations == 2
        assert not fit.converged

    def test_iteration_cap_is_not_a_parameter(self):
        # every fit runs to MAX_ITER
        with pytest.raises(TypeError, match="max_iter"):
            fit_lasso(_dataset(np.eye(2), [1.0, 0.0]), 1.0, max_iter=2)

    def test_iterations_when_n_much_less_than_p(self):
        # the plain 1/L projected-gradient loop took 800-1500 iterations here
        sig = make_signal(1200, 10, seed=1)
        for seed in range(2):
            data = generate_dataset(sig, 150, "probit", seed=seed)
            fit = fit_lasso(data, radius=np.sqrt(10.0))
            assert fit.converged
            assert fit.iterations <= 400

    @staticmethod
    def _correlated_design(beta):
        """Three strongly correlated columns, with y = X beta plus noise: each
        diagonal entry of (2/n) X'X is about a third of its top eigenvalue."""
        rng = np.random.default_rng(0)
        n = 40
        X = rng.standard_normal(n)[:, None] + 0.3 * rng.standard_normal((n, 3))
        y = X @ np.array(beta) + 0.1 * rng.standard_normal(n)
        top = float(np.linalg.eigvalsh((2.0 / n) * X.T @ X)[-1])
        return X, y, top

    def test_start_below_half_the_top_eigenvalue(self):
        # L starts below half the top eigenvalue; the fit starts near the top
        # eigenvector, along X'y, and its steps across the flat directions
        # need no backtrack, so L may end below its start but not above twice
        # the top
        X, y, top = self._correlated_design([0.6, 0.3, 0.4])
        start = lipschitz_estimate(X)
        assert start < 0.5 * top
        fit = fit_lasso(_dataset(X, y), radius=1.0)
        assert fit.converged
        assert np.all(np.diff(fit.objective_path) <= 0.0)
        assert 0.0 < fit.lipschitz <= 2.0 * top
        # on the face b1 + b2 + b3 = 1, the KKT system
        # [X'X 1; 1' 0][b; nu] = [X'y; 1] has b > 0 and nu > 0: the minimizer
        ones = np.ones((3, 1))
        kkt = np.block([[X.T @ X, ones], [ones.T, np.zeros((1, 1))]])
        b_nu = np.linalg.solve(kkt, np.append(X.T @ y, 1.0))
        assert np.all(b_nu > 0.0)
        np.testing.assert_allclose(fit.beta_hat, b_nu[:3], rtol=0, atol=1e-12)

    def test_backtracking_lifts_the_step_constant_above_a_low_start(self):
        # a signal of mixed signs: X'y leans off the top eigenvector, the
        # steps meet its curvature, and backtracking must raise L above a
        # start below half of it
        X, y, top = self._correlated_design([0.6, 0.3, -0.4])
        start = lipschitz_estimate(X)
        assert start < 0.5 * top
        fit = fit_lasso(_dataset(X, y), radius=1.0)
        assert fit.converged
        assert np.all(np.diff(fit.objective_path) <= 0.0)
        assert fit.backtracks > 0
        assert start < fit.lipschitz <= 2.0 * top

    def test_rejected_finish_that_lowers_the_objective_is_adopted(self):
        # objective_path holds one entry per iteration, one for the start and
        # one for an accepted finish; any entry beyond those is an adopted
        # finish, whose certificate failed but whose objective was lower
        adopted = 0
        for seed in range(8):
            sig = make_signal(300, 5, seed=seed)
            data = generate_dataset(sig, 60, "logistic", seed=seed + 100)
            fit = fit_lasso(data, radius=np.sqrt(5.0))
            adopted += len(fit.objective_path) > fit.iterations + 2
            assert np.all(np.diff(fit.objective_path) <= 0.0)
            assert fit.converged
            assert fit.fp_residual <= 1e-6
        assert adopted >= 1

    @pytest.mark.parametrize("seed", [8, 15, 43])
    def test_rejected_finish_at_a_stop_is_dropped(self, seed):
        # two columns 1e-9 apart: the loop's first step passes its
        # certificate and stops, and the finish tried there lowers the
        # objective but fails the certificate; adopting it would end the fit
        # unconverged (fp_residual 2.9e-5 at seed 8), dropping it keeps the
        # certified iterate
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(30)
        X = np.column_stack((x, x + 1e-9 * rng.standard_normal(30)))
        y = rng.standard_normal(30)
        fit = fit_lasso(_dataset(X, y), radius=5.0)
        assert fit.converged
        assert fit.iterations == 1
        assert fit.fp_residual <= 1e-6

    def test_step_constant_ends_below_half_the_top_eigenvalue_when_n_much_less_than_p(self):
        # the curvature on the final support is a fraction of the top
        # eigenvalue of (2/n) X'X, and the adaptive L follows it, not the top
        sig = make_signal(1200, 10, seed=1)
        data = generate_dataset(sig, 150, "probit", seed=3)
        fit = fit_lasso(data, radius=np.sqrt(10.0))
        assert fit.converged
        assert np.all(np.diff(fit.objective_path) <= 0.0)
        top = (2.0 / 150) * float(np.linalg.eigvalsh(data.X @ data.X.T)[-1])
        assert fit.lipschitz < 0.5 * top

    def test_row_and_column_major_designs_fit_alike(self):
        sig = make_signal(300, 5, seed=7)
        data = generate_dataset(sig, 80, "logistic", seed=8)
        rows = fit_lasso(_dataset(np.ascontiguousarray(data.X), data.y), radius=2.0)
        cols = fit_lasso(_dataset(np.asfortranarray(data.X), data.y), radius=2.0)
        assert rows.backtracks > 0
        for name in FitResult.__dataclass_fields__:
            a, b = getattr(rows, name), getattr(cols, name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), name
            else:
                assert a == b, name

    def test_column_major_prefix_view_is_fitted_in_place(self):
        # a sweep fits the first n rows of its rep's column-major draw; the
        # fit makes no n x p temporary and gathers X_S one row block at a time
        view = _prefix_view()
        assert not view.X.flags.f_contiguous and view.X.strides[0] == view.X.itemsize
        fit, peak = _traced_fit(view, np.sqrt(10))
        assert fit.converged
        assert peak < _float64_bytes(view.X) / 8, (peak, _float64_bytes(view.X))
        copied = fit_lasso(_dataset(np.asfortranarray(view.X), view.y), radius=np.sqrt(10))
        np.testing.assert_allclose(fit.beta_hat, copied.beta_hat, rtol=0, atol=1e-12)

    def test_wide_support_fit_stays_under_half_the_design(self):
        # at radius 10 the support holds hundreds of columns: a whole n x |S|
        # gather of them would take most of the design's own size
        view = _prefix_view()
        fit, peak = _traced_fit(view, 10.0)
        assert fit.converged
        assert np.count_nonzero(fit.beta_hat) > 300
        assert peak < _float64_bytes(view.X) / 2, (peak, _float64_bytes(view.X))

    def test_singular_support(self):
        # two equal columns share the weight, so X_S'X_S is singular; the fit
        # must still certify a minimizer: the one of the merged design, with
        # its first weight split between the two columns
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        X = np.column_stack([a[:, 0], a[:, 0], a[:, 1]])
        y = X @ np.array([0.5, 0.5, -0.3]) + 0.1 * rng.standard_normal(30)
        fit = fit_lasso(_dataset(X, y), radius=3.0)
        merged = fit_lasso(_dataset(a, y), radius=3.0)
        assert fit.converged and fit.fp_residual <= 1e-6
        assert np.all(np.diff(fit.objective_path) <= 0.0)
        np.testing.assert_allclose([fit.beta_hat[0] + fit.beta_hat[1], fit.beta_hat[2]],
                                   merged.beta_hat, rtol=0, atol=1e-6)
        assert fit.objective == pytest.approx(merged.objective, rel=1e-9)

    def test_near_singular_support(self):
        # the second copy of the column is perturbed at 1e-14: X_S'X_S is
        # not numerically positive definite, but LAPACK does not report it
        # singular, so the finish's solve gives a point, and the certificate
        # accepts it within 3 iterations (the loop alone stops after 10)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        X = np.column_stack([a[:, 0], a[:, 0], a[:, 1]])
        y = X @ np.array([0.5, 0.5, -0.3]) + 0.1 * rng.standard_normal(30)
        X[:, 1] += 1e-14 * rng.standard_normal(30)
        fit = fit_lasso(_dataset(X, y), radius=3.0)
        merged = fit_lasso(_dataset(a, y), radius=3.0)
        assert fit.converged and fit.fp_residual <= 1e-6
        assert fit.iterations <= 3
        assert np.all(np.diff(fit.objective_path) <= 0.0)
        np.testing.assert_allclose([fit.beta_hat[0] + fit.beta_hat[1], fit.beta_hat[2]],
                                   merged.beta_hat, rtol=0, atol=1e-6)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be finite and >= 0, got -1.0"):
            fit_lasso(_dataset(np.eye(2), [1.0, 0.0]), radius=-1.0)

    def test_non_finite_input_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            X = np.eye(3)
            X[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_lasso(_dataset(X, [1.0, 0.0, 0.0]), radius=1.0)
            with pytest.raises(ValueError, match="finite"):
                fit_lasso(_dataset(np.eye(3), [1.0, bad, 0.0]), radius=1.0)
            with pytest.raises(ValueError, match="radius must be finite"):
                fit_lasso(_dataset(np.eye(3), [1.0, 0.0, 0.0]), radius=bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_labels_rejected(self):
        # every label is finite but y'y is not: the fit refuses y by name,
        # before the pv start's X'y overflows inside the projection
        X = np.full((3, 2), 1e150)
        with pytest.raises(ValueError, match="the squared norm of y overflows"):
            fit_lasso(_dataset(X, [1e300, 1e300, 1e300]), radius=1.0)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), p=st.integers(1, 12),
           radius=st.floats(0, 5), c=st.sampled_from([1e-3, 0.37, 4.0, 1e3]))
    # (cX, cy) stops on a rounding rise of its step from beta at iteration 1,
    # where (X, y) stops on its certificate; about 5 in 750 random draws
    # from these ranges reach that stop, so one is pinned
    @example(seed=3322160024, n=1, p=3, radius=1.8975575875930872, c=1e3)
    @settings(max_examples=100, deadline=None)
    def test_feasible_certified_and_scale_invariant(self, seed, n, p, radius, c):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        y = rng.choice([-1.0, 1.0], n)
        fit = fit_lasso(_dataset(X, y), radius)
        assert 0.0 < fit.lipschitz < np.inf
        assert np.abs(fit.beta_hat).sum() <= radius + 1e-9
        assert np.all(np.diff(fit.objective_path) <= 0)
        if fit.converged:
            assert fit.fp_residual <= 1e-6
        # (cX, cy) scales the objective by c^2 and L by c^2: the iterates do not move
        scaled = fit_lasso(_dataset(c * X, c * y), radius)
        np.testing.assert_allclose(scaled.beta_hat, fit.beta_hat, rtol=0, atol=1e-9)
        assert scaled.converged == fit.converged
        # the start, one entry per iteration and one per finish taken
        for f in (fit, scaled):
            assert f.objective == f.objective_path[-1]
            assert len(f.objective_path) >= f.iterations + 1


def _pv_start(data, radius):
    """fit_lasso's start, recomputed: t w for the pv direction w at radius
    max(radius, 1) and the line-search minimizer t along it, capped at the
    l1 sphere."""
    w = pv_linear_fit(data, max(radius, 1.0))
    Xw = data.X @ w
    t = min(float(Xw @ data.y) / float(Xw @ Xw), radius / float(np.abs(w).sum()))
    return t * w


class TestPVStart:
    """fit_lasso starts at the pv point of its own data, not at 0."""

    @staticmethod
    def _objective(data, beta):
        r = data.X @ beta - data.y
        return float(r @ r) / data.n

    @pytest.mark.parametrize("radius", [np.sqrt(5.0), 0.3])
    def test_objective_path_starts_at_the_pv_point(self, radius):
        sig = make_signal(200, 5, seed=2)
        data = generate_dataset(sig, 60, "logistic", seed=3)
        start = _pv_start(data, radius)
        fit = fit_lasso(data, radius)
        assert fit.converged
        assert np.abs(start).sum() <= radius * (1 + 1e-15)
        assert fit.objective_path[0] < float(data.y @ data.y) / data.n
        assert fit.objective_path[0] == pytest.approx(self._objective(data, start), rel=1e-12)

    def test_radius_below_one_starts_inside_the_ball(self):
        # pv takes no radius below 1: the direction comes from radius 1, and
        # the cap at the sphere pulls the line-search minimizer inside.  The
        # radius is half the l1 norm of that minimizer, and below 1, so the
        # cap binds whatever the draw (w'X'y > 0, as w maximizes it)
        sig = make_signal(200, 5, seed=2)
        data = generate_dataset(sig, 60, "logistic", seed=3)
        w = pv_linear_fit(data, 1.0)
        Xw = data.X @ w
        reach = float(Xw @ data.y) / float(Xw @ Xw) * np.abs(w).sum()
        radius = 0.5 * min(reach, 1.0)
        start = _pv_start(data, radius)
        assert np.abs(start).sum() == pytest.approx(radius, rel=1e-15)
        fit = fit_lasso(data, radius)
        assert fit.objective_path[0] == pytest.approx(self._objective(data, start), rel=1e-12)

    def test_zero_correlation_starts_at_zero(self):
        # X'y = 0: there is no direction, and the fit stays at 0
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        fit = fit_lasso(_dataset(X, [1.0, -1.0]), radius=1.0)
        assert fit.converged
        assert fit.objective_path[0] == 1.0
        np.testing.assert_array_equal(fit.beta_hat, [0.0, 0.0])

    def test_zero_radius_starts_and_ends_at_zero(self):
        sig = make_signal(50, 3, seed=4)
        data = generate_dataset(sig, 30, "probit", seed=5)
        fit = fit_lasso(data, radius=0.0)
        assert fit.converged
        assert fit.objective_path[0] == float(data.y @ data.y) / data.n
        np.testing.assert_array_equal(fit.beta_hat, np.zeros(50))


def _assert_pv_kkt(g, w, radius):
    """KKT of max <g, w> s.t. ||w||_1 <= radius, ||w||_2 <= 1.

    There are mu, theta >= 0 with |g_i| = theta + mu |w_i| and sign(w_i) =
    sign(g_i) on the support of w, |g_i| <= theta off it, theta > 0 only on
    the l1 sphere and mu > 0 only on the l2 sphere.
    """
    a, b = np.abs(g), np.abs(w)
    on = w != 0
    np.testing.assert_array_equal(np.sign(w[on]), np.sign(g[on]))
    tol = 1e-9 * a.max()
    hi, lo = np.argmax(np.where(on, b, -np.inf)), np.argmin(np.where(on, b, np.inf))
    if b[hi] > b[lo]:
        mu = (a[hi] - a[lo]) / (b[hi] - b[lo])
    elif np.linalg.norm(w) < 1 - 1e-9:
        mu = 0.0
    else:  # |w| is constant on its support: the least theta the off-support allows
        mu = (a[hi] - a[~on].max(initial=0.0)) / b[hi]
    theta = a[hi] - mu * b[hi]
    assert mu >= 0 and theta >= -tol
    np.testing.assert_allclose(a[on], theta + mu * b[on], rtol=0, atol=tol)
    assert np.all(a[~on] <= theta + tol)
    if theta > tol:
        assert np.abs(w).sum() == pytest.approx(radius, rel=1e-12)
    if mu * b[hi] > tol:
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)


class TestPVLinearFit:
    def test_axis_gradient(self):
        data = _dataset(np.eye(3), [5.0, 0.0, 0.0])
        np.testing.assert_allclose(pv_linear_fit(data, 1.0), [1.0, 0.0, 0.0], atol=1e-12)

    def test_l2_maximizer_already_feasible(self):
        data = _dataset(np.eye(2), [1.0, 1.0])
        np.testing.assert_allclose(pv_linear_fit(data, np.sqrt(2.0)),
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_exact_solve_hits_radius(self):
        # two active entries of mean 1.5 and variance 1/4:
        # theta = 1.5 - 1.2 sqrt(0.25 / (2 - 1.44)), between |g|_(3) = 0 and |g|_(2) = 1
        data = _dataset(np.eye(3), [2.0, 1.0, 0.0])
        w = pv_linear_fit(data, 1.2)
        theta = 1.5 - 1.2 * np.sqrt(0.25 / 0.56)
        want = np.array([2.0 - theta, 1.0 - theta, 0.0])
        np.testing.assert_allclose(w, want / np.linalg.norm(want), rtol=0, atol=1e-15)
        assert np.abs(w).sum() == pytest.approx(1.2, abs=1e-15)

    def test_tied_gradient_face(self):
        # two entries tie for the largest |g| and 2 >= 1.2^2, so no soft
        # threshold reaches the l1 sphere: the tied face is scaled onto it
        data = _dataset(np.eye(2), [1.0, 1.0])
        w = pv_linear_fit(data, 1.2)
        np.testing.assert_allclose(w, [0.6, 0.6], atol=1e-9)

    def test_feasibility_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = int(rng.integers(2, 40))
            g = rng.standard_normal(p) * rng.uniform(0.5, 5)
            radius = rng.uniform(1.0, np.sqrt(p))
            w = pv_linear_fit(_dataset(np.eye(p), g), radius)
            assert np.abs(w).sum() <= radius + 1e-9
            assert np.linalg.norm(w) <= 1.0 + 1e-9

    # integer entries: few values tie often, many values tie rarely
    @given(g=st.sampled_from([4, 1000]).flatmap(
               lambda k: st.lists(st.integers(-k, k), min_size=1, max_size=50).filter(any)),
           scale=st.floats(1e-3, 1e3), frac=st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_feasible_and_kkt_with_ties(self, g, scale, frac):
        g = np.array(g, float) * scale
        radius = 1.0 + frac * (np.sqrt(g.size) - 1.0)
        w = pv_linear_fit(_dataset(np.eye(g.size), g), radius)
        assert np.abs(w).sum() <= radius * (1 + 1e-12)
        assert np.linalg.norm(w) <= 1 + 1e-12
        _assert_pv_kkt(g, w, radius)

    def test_zero_gradient(self):
        with pytest.raises(SixLassoError, match="X'y = 0"):
            pv_linear_fit(_dataset(np.eye(2), [0.0, 0.0]), 1.0)

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            pv_linear_fit(_dataset(np.eye(2), [1.0, 0.0]), 0.5)

    def test_nan_radius_rejected(self):
        # it would otherwise pass the radius check and end in an argmax
        # over an empty sequence
        with pytest.raises(ValueError, match="NaN"):
            pv_linear_fit(_dataset(np.eye(3), [3.0, 2.0, 1.0]), np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_named(self, bad):
        X = np.eye(3)
        X[0, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            pv_linear_fit(_dataset(X, [3.0, 2.0, 1.0]), 1.5)

    def test_overflowing_product_named(self):
        X = np.array([[1e308, 1.0], [1e308, 2.0]])
        with pytest.raises(ValueError, match="overflows"):
            pv_linear_fit(_dataset(X, [1.0, 1.0]), 1.5)

    def test_overflowing_norm_named(self):
        # every entry of X'y is finite, its l2 norm is not
        X = np.array([[1e200, 1e200], [1.0, 2.0]])
        with pytest.raises(ValueError, match="overflows"):
            pv_linear_fit(_dataset(X, [1.0, 1.0]), 1.5)


_DESIGN = np.arange(1.0, 7.0).reshape(3, 2)


@pytest.mark.parametrize("fit", [lambda d: fit_lasso(d, radius=2.0),
                                 lambda d: pv_linear_fit(d, 2.0)], ids=["lasso", "pv"])
class TestShapeCheck:
    """fit_lasso and pv_linear_fit share one shape check: X is 2-d with at
    least one row and one column and y is 1-d with one value per row of X,
    or the fit raises ValueError naming the one at fault."""

    def test_column_of_labels_names_y(self, fit):
        with pytest.raises(ValueError, match=r"^y must be 1-d .* y has shape \(3, 1\)"):
            fit(_dataset(_DESIGN, [[1.0], [-1.0], [1.0]]))

    def test_labels_one_short_name_y(self, fit):
        with pytest.raises(ValueError, match=r"^y must be 1-d .* 3 rows, y has shape \(2,\)"):
            fit(_dataset(_DESIGN, [1.0, -1.0]))

    def test_one_dimensional_design_names_x(self, fit):
        with pytest.raises(ValueError, match=r"^X must be a 2-d array, got shape \(3,\)"):
            fit(_dataset(np.array([1.0, 2.0, 3.0]), [1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("shape, y", [((0, 3), []), ((3, 0), [1.0, -1.0, 1.0])],
                             ids=["no_rows", "no_columns"])
    def test_empty_design_names_x(self, fit, shape, y):
        # a bad argument, not degenerate data: pv's X'y would be 0
        with pytest.raises(ValueError, match=r"^X must be a nonempty 2-d array, got shape "
                                             + re.escape(str(shape))):
            fit(_dataset(np.zeros(shape), y))


def _float64_copy(data):
    return _dataset(np.asfortranarray(data.X, dtype=float), data.y)


class TestFloat32Design:
    """A float32 X, as generate_dataset draws it, is fitted as it is: its
    products X'v run in float32 and everything else in float64, so the fits
    match those of its float64 copy to within float32 rounding."""

    @pytest.mark.parametrize("scale", [1e39, 1e-46], ids=["huge", "tiny"])
    def test_labels_beyond_float32s_range(self, scale):
        # a float32 cast of y or of the residual would overflow (1e39) or
        # flush to 0 (1e-46): the products run on v / max|v|
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 20)).astype(np.float32)
        y = scale * rng.choice([-1.0, 1.0], 50)
        data, copy = _dataset(X, y), _float64_copy(_dataset(X, y))
        fit, ref = fit_lasso(data, radius=1.0), fit_lasso(copy, radius=1.0)
        assert fit.converged and ref.converged
        np.testing.assert_allclose(fit.beta_hat / scale, ref.beta_hat / scale, rtol=0, atol=1e-6)
        w = pv_linear_fit(data, 2.0)
        np.testing.assert_allclose(w, pv_linear_fit(copy, 2.0), rtol=0, atol=1e-6)

    # every link at n > p, where the minimizer is unique; the binary links
    # also at n < p, the sweep's regime.  (The noiseless linear fit at
    # n < p ends with more nonzeros than rows, among many minimizers, and
    # the two precisions may stop at different ones.)
    @pytest.mark.parametrize("link, p, n", [(link, 200, 400) for link in LINK_KINDS]
                             + [(link, 300, 100) for link in LINK_KINDS[1:]])
    def test_fits_match_the_float64_copy(self, link, p, n):
        sig = make_signal(p, 5, seed=3)
        data = generate_dataset(sig, n, link, seed=4)
        copy = _float64_copy(data)
        fit, ref = fit_lasso(data, np.sqrt(5)), fit_lasso(copy, np.sqrt(5))
        assert fit.converged == ref.converged
        np.testing.assert_allclose(fit.beta_hat, ref.beta_hat, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(np.sign(fit.beta_hat), np.sign(ref.beta_hat))
        w, w_ref = pv_linear_fit(data, np.sqrt(5)), pv_linear_fit(copy, np.sqrt(5))
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(np.sign(w), np.sign(w_ref))

    def test_lipschitz_estimate_makes_no_copy(self):
        # the squares are summed in float64 a buffer at a time
        X = generate_dataset(make_signal(400, 3, seed=1), 1000, "logistic", seed=2).X
        tracemalloc.start()
        try:
            est = lipschitz_estimate(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4, (peak, X.nbytes)
        assert est == pytest.approx(lipschitz_estimate(X.astype(float)), rel=1e-13)

    def test_products_beyond_float32s_range_are_refused(self):
        # sqrt(n) times a column norm passes float32's range, so X'y could
        # overflow there: refused by name, where the float64 copy fits
        X = np.full((50, 20), 3e37, np.float32)
        y = np.ones(50)
        with pytest.raises(ValueError, match="X is float32 .* pass X as float64"):
            fit_lasso(_dataset(X, y), radius=1.0)
        assert fit_lasso(_float64_copy(_dataset(X, y)), radius=1.0).converged
