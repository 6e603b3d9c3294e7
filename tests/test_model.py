"""Tests for links, the link constant, signals, and data generation."""

import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import norm

from oracles import compute_lambda_mc
from sixlasso import (
    LINK_KINDS,
    SweepSpec,
    compute_lambda,
    generate_dataset,
    link_mean,
    make_signal,
)
from sixlasso.model import _KEPT


class TestLinkMean:
    def test_logistic_at_origin(self):
        assert link_mean("logistic", 0.0) == 0.0

    def test_sign_saturates(self):
        assert link_mean("sign", 2.7) == 1.0
        assert link_mean("sign", -0.4) == -1.0
        assert link_mean("sign", 0.0) == 0.0

    def test_probit_at_origin(self):
        assert link_mean("probit", 0.0) == 0.0

    def test_linear_is_identity(self):
        t = np.linspace(-4, 4, 17)
        np.testing.assert_array_equal(link_mean("linear", t), t)

    def test_logistic_matches_rescaled_sigmoid(self):
        t = np.linspace(-20, 20, 201)
        expected = 2.0 * np.exp(t) / (1.0 + np.exp(t)) - 1.0
        np.testing.assert_allclose(link_mean("logistic", t), expected, atol=1e-15)

    def test_probit_matches_gaussian_cdf(self):
        t = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(link_mean("probit", t), 2.0 * norm.cdf(t) - 1.0, atol=1e-14)
        # the standard library's erf against scipy's, into both saturated tails
        t = np.concatenate([np.linspace(-40, 40, 8001),
                            np.random.default_rng(3).standard_normal(20_000) * 4])
        np.testing.assert_allclose(link_mean("probit", t), erf(t / np.sqrt(2.0)),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("link", LINK_KINDS, ids=str)
    def test_odd_symmetry_is_exact(self, link):
        """F(-t) == -F(t) bit-for-bit, not just approximately; and F(t)t >= 0,
        which makes lambda = E[F(Z)Z] positive for every link."""
        t = np.random.default_rng(7).standard_normal(20_000) * 5
        np.testing.assert_array_equal(link_mean(link, -t), -np.asarray(link_mean(link, t)))
        assert np.all(link_mean(link, t) * t >= 0)

    @pytest.mark.parametrize("link", ["logistic", "probit", "sign"], ids=str)
    def test_binary_links_stay_in_range(self, link):
        t = np.array([-1e6, -40.0, -1.0, 0.0, 1.0, 40.0, 1e6])
        f = np.asarray(link_mean(link, t))
        assert np.all(np.abs(f) <= 1.0)

    def test_callable_form(self):
        # a link is called by its name through link_mean: a scalar gives a float
        value = link_mean("logistic", 0.0)
        assert type(value) is float and value == 0.0


class TestLinkLookup:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="cauchy"):
            link_mean("cauchy", 0.0)
        with pytest.raises(ValueError, match="cauchy"):
            compute_lambda("cauchy")
        with pytest.raises(ValueError, match="cauchy"):
            generate_dataset(make_signal(4, 1, seed=0), 3, "cauchy", seed=0)
        with pytest.raises(ValueError, match="cauchy"):
            SweepSpec(p=4, s=1, n_grid=(3,), link="cauchy")


class TestComputeLambda:
    def test_linear_is_one(self):
        assert compute_lambda("linear") == pytest.approx(1.0, abs=1e-12)

    def test_sign_closed_form(self):
        # E[sign(Z) Z] = E|Z| = sqrt(2/pi)
        assert compute_lambda("sign") == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-8)

    def test_probit_closed_form(self):
        # Stein: E[F(Z)Z] = E[F'(Z)] = 2 E[phi(Z)] = 1/sqrt(pi)
        assert compute_lambda("probit") == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-8)

    def test_linear_and_probit_are_exact(self):
        # Stein: linear has F' = 1; probit has F' = 2 phi, so 2 E[phi(Z)] = 1/sqrt(pi)
        assert compute_lambda("linear") == 1.0
        assert compute_lambda("probit") == 1.0 / np.sqrt(np.pi)

    def test_logistic_value(self):
        assert compute_lambda("logistic") == pytest.approx(0.4132, abs=1e-3)

    @pytest.mark.parametrize("link", LINK_KINDS, ids=str)
    def test_adaptive_quadrature_agrees(self, link):
        """Independent oracle: adaptive integration of F(z) z phi(z), split at
        the only possible kink, z = 0.  Stein's identity makes the sign value
        exact."""
        def integrand(z):
            return link_mean(link, z) * z * norm.pdf(z)
        edges = [-40.0, 0.0, 40.0]
        parts = [quad(integrand, a, b, limit=200) for a, b in zip(edges[:-1], edges[1:])]
        assert sum(err for _, err in parts) < 1e-7  # scipy's estimate is conservative
        assert compute_lambda(link) == pytest.approx(sum(v for v, _ in parts), abs=1e-8)

    @pytest.mark.parametrize("link", LINK_KINDS, ids=str)
    def test_quadrature_mc_agreement(self, link):
        value, stderr = compute_lambda_mc(link, budget=1_000_000, seed=99)
        assert abs(compute_lambda(link) - value) <= 3.0 * stderr

    def test_mc_chunks_continue_one_stream(self):
        # three chunks of draws give the samples of one call; the sums are
        # rounded chunk by chunk, and the variance's subtraction amplifies
        # that in the standard error
        budget = 3 * (1 << 20) - 7
        value, stderr = compute_lambda_mc("logistic", budget=budget, seed=5)
        z = np.random.default_rng(5).standard_normal(budget)
        v = link_mean("logistic", z) * z
        mean = float(v.mean())
        var = (float(v @ v) - budget * mean * mean) / (budget - 1)
        assert value == pytest.approx(mean, rel=1e-15, abs=0)
        assert stderr == pytest.approx(np.sqrt(var / budget), rel=1e-14, abs=0)

    def test_budget_floors(self):
        with pytest.raises(ValueError):
            compute_lambda_mc("logistic", budget=100)


class TestMakeSignal:
    def test_paper_scale_random_magnitude(self):
        sig = make_signal(1200, 10, seed=42)
        assert sig.shape == (1200,)
        assert np.count_nonzero(sig) == 10
        assert np.linalg.norm(sig) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(sig).sum() <= np.sqrt(10.0) + 1e-12

    def test_single_spike(self):
        sig = make_signal(3, 1, seed=0)
        assert np.count_nonzero(sig) == 1
        assert np.abs(sig).max() == pytest.approx(1.0)

    def test_support_matches_nonzeros(self):
        # the nonzeros are exactly the drawn support: no drawn entry is 0
        sig = make_signal(40, 7, seed=11)
        drawn = np.sort(np.random.default_rng(11).choice(40, size=7, replace=False))
        np.testing.assert_array_equal(np.flatnonzero(sig), drawn)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError, match="need 1 <= s <= p, got s=0, p=5"):
            make_signal(5, 0, seed=0)
        with pytest.raises(ValueError, match="need 1 <= s <= p, got s=6, p=5"):
            make_signal(5, 6, seed=0)

    def test_deterministic(self):
        a = make_signal(30, 4, seed=5)
        b = make_signal(30, 4, seed=5)
        np.testing.assert_array_equal(a, b)


class TestGenerateDataset:
    def test_linear_mode_is_noiseless(self):
        sig = make_signal(8, 3, seed=2)
        data = generate_dataset(sig, 50, "linear", seed=9)
        np.testing.assert_array_equal(data.y, data.X @ sig)

    def test_sign_link_is_deterministic_labels(self):
        sig = make_signal(6, 2, seed=4)
        data = generate_dataset(sig, 200, "sign", seed=13)
        np.testing.assert_array_equal(data.y, np.sign(data.X @ sig))

    @pytest.mark.parametrize("link", ["logistic", "probit", "sign"], ids=str)
    def test_binary_labels(self, link):
        sig = make_signal(5, 2, seed=1)
        data = generate_dataset(sig, 300, link, seed=8)
        assert set(np.unique(data.y)) <= {-1.0, 1.0}

    def test_bit_identical_given_seed(self):
        sig = make_signal(10, 3, seed=6)
        a = generate_dataset(sig, 100, "logistic", seed=21)
        b = generate_dataset(sig, 100, "logistic", seed=21)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_design_is_column_major(self):
        sig = make_signal(40, 3, seed=6)
        data = generate_dataset(sig, 25, "probit", seed=2)
        assert data.X.shape == (25, 40)
        assert data.X.flags.f_contiguous

    def test_moment_identity_logistic(self):
        """E[y x] = lambda beta* under Gaussian design; the engine behind
        direction recovery."""
        sig = make_signal(5, 2, seed=17)
        data = generate_dataset(sig, 100_000, "logistic", seed=23)
        emp = (data.y[:, None] * data.X).mean(axis=0)
        lam = compute_lambda("logistic")
        assert np.linalg.norm(emp - lam * sig) <= 0.02

    def test_rejects_empty_sample(self):
        sig = make_signal(4, 1, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(sig, 0, "logistic", seed=0)

    @pytest.mark.parametrize("link", ["logistic", "linear"], ids=str)
    def test_rejects_a_signal_that_is_not_1d(self, link):
        # a (p, 1) signal would give y of shape (n, n), or (n, 1) for linear
        sig = make_signal(4, 2, seed=0)
        with pytest.raises(ValueError, match=r"signal must be a 1-d array, got shape \(4, 1\)"):
            generate_dataset(sig[:, None], 5, link, seed=0)


class TestKeptDraws:
    """generate_dataset keeps its last two draws, read-only, and hands a kept
    draw back to a call with the same values."""

    SIG = make_signal(10, 3, seed=6)
    ARGS = dict(signal=SIG, n=40, link="logistic", seed=21)

    @staticmethod
    def _evict():
        other = make_signal(3, 1, seed=0)
        generate_dataset(other, 2, "sign", seed=0)
        generate_dataset(other, 3, "sign", seed=0)

    @pytest.mark.parametrize("link", ["logistic", "linear"], ids=str)
    def test_writing_to_a_draw_raises(self, link):
        data = generate_dataset(self.SIG, 40, link, seed=21)
        with pytest.raises(ValueError):
            data.X[0, 0] = 0.0
        with pytest.raises(ValueError):
            data.y[0] = 0.0

    def test_identical_call_returns_the_kept_draw(self):
        self._evict()
        first = generate_dataset(**self.ARGS)
        assert generate_dataset(**self.ARGS) is first
        # matched by value: an equal copy of the signal is the same call
        assert generate_dataset(**dict(self.ARGS, signal=self.SIG.copy())) is first
        # one other draw since: the first is the older of the two kept
        generate_dataset(**dict(self.ARGS, seed=22))
        assert generate_dataset(**self.ARGS) is first

    @pytest.mark.parametrize("change", [
        {"seed": 22},
        {"n": 41},
        {"link": "probit"},
        # same p and support, another beta
        {"signal": -SIG},
    ], ids=["seed", "n", "link", "signal"])
    def test_changed_call_draws_afresh(self, change):
        first = generate_dataset(**self.ARGS)
        args = dict(self.ARGS, **change)
        fresh = generate_dataset(**args)
        assert fresh is not first
        self._evict()
        cold = generate_dataset(**args)
        assert cold is not fresh
        np.testing.assert_array_equal(fresh.X, cold.X)
        np.testing.assert_array_equal(fresh.y, cold.y)

    def test_signal_edited_in_place_draws_afresh(self):
        sig = make_signal(20, 3, seed=1)
        first = generate_dataset(sig, 50, "logistic", 7)
        sig[:] = -sig
        fresh = generate_dataset(sig, 50, "logistic", 7)
        assert fresh is not first
        _KEPT.clear()
        cold = generate_dataset(sig, 50, "logistic", 7)
        np.testing.assert_array_equal(fresh.y, cold.y)

    @pytest.mark.parametrize("bad", [dict(link="cauchy"), dict(n=0), dict(signal=SIG[:, None])],
                             ids=["link", "n", "signal"])
    def test_refused_call_evicts_nothing(self, bad):
        first = generate_dataset(**self.ARGS)
        second = generate_dataset(**dict(self.ARGS, seed=22))
        with pytest.raises(ValueError):
            generate_dataset(**dict(self.ARGS, seed=3, **bad))
        assert generate_dataset(**self.ARGS) is first
        assert generate_dataset(**dict(self.ARGS, seed=22)) is second

    def test_two_other_draws_evict_the_first(self):
        first = generate_dataset(**self.ARGS)
        X, y = first.X.copy(), first.y.copy()
        kept = weakref.ref(first)
        del first
        generate_dataset(**dict(self.ARGS, seed=22))
        generate_dataset(**dict(self.ARGS, seed=23))
        gc.collect()
        assert kept() is None
        again = generate_dataset(**self.ARGS)
        np.testing.assert_array_equal(again.X, X)
        np.testing.assert_array_equal(again.y, y)
