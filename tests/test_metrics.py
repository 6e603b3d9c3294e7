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
