"""Tests for direction/support/accuracy metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixlasso import (
    Dataset,
    SixLassoError,
    classify_accuracy,
    direction_error,
    generate_dataset,
    make_signal,
    norm_gap,
    plane_coordinates,
    support_metrics,
)

unit_scales = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestDirectionError:
    def test_identical(self):
        b = np.array([0.6, 0.8])
        assert direction_error(b, b) == 0.0

    def test_scale_invariant(self):
        b = np.array([0.6, 0.8])
        assert direction_error(2 * b, b) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal(self):
        b = np.array([1.0, 0.0])
        assert direction_error(-b, b) == pytest.approx(2.0)

    def test_orthogonal(self):
        assert direction_error(np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2.0))

    @given(c=unit_scales, d=unit_scales)
    @settings(max_examples=100, deadline=None)
    def test_invariance_under_positive_scaling(self, c, d):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        assert direction_error(c * a, d * b) == pytest.approx(direction_error(a, b), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            assert direction_error(a, b) == pytest.approx(direction_error(b, a), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e = direction_error(rng.standard_normal(4), rng.standard_normal(4))
            assert 0.0 <= e <= 2.0

    def test_zero_vector(self):
        with pytest.raises(SixLassoError, match="zero vector"):
            direction_error(np.zeros(3), np.ones(3))
        with pytest.raises(SixLassoError, match="zero vector"):
            direction_error(np.ones(3), np.zeros(3))


class TestNormGap:
    def test_zero_gap(self):
        lam = 0.4
        assert norm_gap(np.array([lam, 0.0]), lam) == pytest.approx(0.0)

    def test_zero_vector_gap(self):
        assert norm_gap(np.zeros(4), 0.7) == pytest.approx(-0.7)

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError):
            norm_gap(np.ones(2), 0.0)


class TestSupportMetrics:
    def test_perfect_recovery(self):
        sig = np.array([0.0, 0.5, -0.5, 0.0])
        assert support_metrics(sig, sig) == (1.0, 1.0)

    def test_empty_estimate_convention(self):
        sig = np.array([0.0, 1.0])
        assert support_metrics(np.zeros(2), sig) == (1.0, 0.0)

    def test_half_right(self):
        sig = np.array([1.0, 1.0, 0.0, 0.0])  # true support {0, 1}
        est = np.array([1.0, 0.0, 1.0, 0.0])  # picks {0, 2}
        assert support_metrics(est, sig) == (0.5, 0.5)

    def test_default_threshold_strips_dust(self):
        sig = np.array([1.0, 0.0, 0.0])
        est = np.array([1.0, 1e-9, -1e-12])
        assert support_metrics(est, sig) == (1.0, 1.0)

    def test_both_one_iff_exact_support(self):
        """Exhaustive over all estimated supports at p=6: precision=recall=1
        exactly when the estimated support equals the true support."""
        p = 6
        sig = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 0.0])
        true = {1, 3}
        for bits in range(2 ** p):
            est_support = {j for j in range(p) if bits >> j & 1}
            beta_hat = np.array([1.0 if j in est_support else 0.0 for j in range(p)])
            prec, rec = support_metrics(beta_hat, sig)
            assert (prec == 1.0 and rec == 1.0) == (est_support == true)


class TestClassifyAccuracy:
    def test_true_direction_on_sign_data(self):
        sig = make_signal(5, 2, seed=1)
        test = generate_dataset(sig, 500, "sign", seed=2)
        assert classify_accuracy(sig, test) == 1.0

    def test_flipped_direction(self):
        sig = make_signal(5, 2, seed=3)
        test = generate_dataset(sig, 500, "sign", seed=4)
        assert classify_accuracy(-sig, test) == 0.0

    def test_scale_invariance_exact(self):
        sig = make_signal(6, 3, seed=5)
        test = generate_dataset(sig, 300, "sign", seed=6)
        rng = np.random.default_rng(7)
        beta_hat = rng.standard_normal(6)
        base = classify_accuracy(beta_hat, test)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert classify_accuracy(c * beta_hat, test) == base

    def test_sign_zero_counts_as_plus(self):
        data = Dataset(X=np.array([[0.0], [1.0]]), y=np.array([1.0, 1.0]))
        assert classify_accuracy(np.array([1.0]), data) == 1.0

    def test_zero_vector(self):
        sig = make_signal(4, 1, seed=8)
        test = generate_dataset(sig, 50, "sign", seed=9)
        with pytest.raises(SixLassoError, match="zero coefficient vector"):
            classify_accuracy(np.zeros(4), test)

    def test_rejects_non_binary_labels(self):
        data = Dataset(X=np.eye(2), y=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            classify_accuracy(np.ones(2), data)


class TestErrorsContract:
    """Degenerate data raises SixLassoError and a bad argument ValueError
    naming it, as errors.py documents; none ends in a silent NaN."""

    B = np.array([0.6, 0.0, 0.8])
    TEST_SET = Dataset(X=np.array([[1.0, 0.5, 0.0], [-1.0, 0.2, 0.3]]), y=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("metric", [support_metrics, plane_coordinates])
    def test_zero_beta_star_is_degenerate(self, metric):
        # support_metrics divided by an empty support, plane_coordinates
        # returned [nan, nan]
        with pytest.raises(SixLassoError, match="beta_star is zero"):
            metric(self.B, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric, other", [
        (direction_error, B), (support_metrics, B), (plane_coordinates, B), (norm_gap, 0.5),
        (classify_accuracy, TEST_SET),
    ], ids=["direction_error", "support_metrics", "plane_coordinates", "norm_gap",
            "classify_accuracy"])
    def test_non_finite_beta_hat_is_refused(self, metric, other, bad):
        # a NaN gave direction_error nan, support_metrics (1.0, 0.0) and an
        # accuracy that counted every NaN score as a -1 prediction
        b = self.B.copy()
        b[0] = bad
        with pytest.raises(ValueError, match="beta_hat must be finite"):
            metric(b, other)

    @pytest.mark.parametrize("metric", [direction_error, support_metrics, plane_coordinates])
    def test_non_finite_beta_star_is_refused(self, metric):
        with pytest.raises(ValueError, match="beta_star must be finite"):
            metric(self.B, np.array([np.nan, 1.0, 0.0]))

    def test_non_finite_test_design_is_refused(self):
        test = Dataset(X=np.array([[np.nan, 1.0], [1.0, 0.0]]), y=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="test.X must be finite"):
            classify_accuracy(np.array([1.0, 0.5]), test)

    def test_empty_test_set_is_refused(self):
        # the mean over no rows was nan, after two RuntimeWarnings
        test = Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
        with pytest.raises(ValueError, match="test must have at least one row"):
            classify_accuracy(np.array([1.0, 0.5]), test)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_lambda_must_be_finite_and_positive(self, lam):
        # lam <= 0 let a NaN through, and norm_gap gave nan
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            norm_gap(self.B, lam)
