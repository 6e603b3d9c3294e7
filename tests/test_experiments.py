"""Tests for the Monte Carlo harness: seeds, trials, sweeps, aggregation."""

import concurrent.futures
import dataclasses
import sys

import numpy as np
import pytest

from sixlasso import (
    Dataset,
    FitResult,
    SixLassoError,
    SweepSpec,
    TrialMetrics,
    TrialRecord,
    classify_accuracy,
    compute_lambda,
    direction_error,
    experiments,
    fit_lasso,
    generate_dataset,
    make_signal,
    mix64,
    model,
    norm_gap,
    plane_coordinates,
    pv_linear_fit,
    run_sweep,
    run_trial,
    summarize,
    support_metrics,
)
from sixlasso.experiments import (
    _PLANE,
    _TEST_TAG,
    _failed_metrics,
    rep_seed,
    resolve_radius,
    sweep_signal,
    trial_id_for,
)


def smoke_spec(**overrides):
    base = dict(p=10, s=2, n_grid=(50, 100), link="logistic", reps=2,
                base_seed=7, estimators=("lasso",), test_n=300)
    base.update(overrides)
    return SweepSpec(**base)


def _without_runtime(rec):
    d = dataclasses.asdict(rec)
    d.pop("runtime_ms")
    return d


class TestMix64:
    def test_published_stream_values(self):
        """First two outputs of the reference splitmix64 stream seeded at 0:
        the finalizer applied to k * golden gamma."""
        gamma = 0x9E3779B97F4A7C15
        assert mix64(gamma) == 0xE220A8397B1DCDAF
        assert mix64((2 * gamma) & (2 ** 64 - 1)) == 0x6E789E6AA1B965F4

    def test_zero_fixed_point(self):
        assert mix64(0) == 0

    def test_stays_in_64_bits(self):
        for x in (1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5):
            assert 0 <= mix64(x) < 2 ** 64


class TestSweepSpecValidation:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            smoke_spec(n_grid=(100, 50))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            smoke_spec(n_grid=())

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            smoke_spec(estimators=("lasso", "ridge"))

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            smoke_spec(s=11)

    def test_explicit_rule_needs_value(self):
        with pytest.raises(ValueError):
            smoke_spec(radius_rule="explicit")

    def test_estimator_order_canonicalized(self):
        a = smoke_spec(estimators=("pv", "lasso"))
        b = smoke_spec(estimators=("lasso", "pv"))
        assert a == b
        assert a.estimators == ("lasso", "pv")

    def test_bad_link_rejected(self):
        with pytest.raises(ValueError):
            smoke_spec(link="cauchy")

    def test_pv_needs_explicit_radius_of_at_least_one(self):
        with pytest.raises(ValueError, match="pv"):
            smoke_spec(estimators=("lasso", "pv"), radius_rule="explicit", radius_value=0.5)
        smoke_spec(estimators=("lasso",), radius_rule="explicit", radius_value=0.5)
        smoke_spec(estimators=("pv",), radius_rule="explicit", radius_value=1.0)

    def test_radius_value_needs_explicit_rule(self):
        with pytest.raises(ValueError, match="explicit"):
            smoke_spec(radius_rule="sqrt_s", radius_value=0.01)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_base_seed_outside_64_bits_rejected(self, seed):
        # mix64 reads 64 bits: -1 would alias 2**64 - 1, and 2**64 alias 0
        with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\*\*64\)"):
            smoke_spec(base_seed=seed)
        assert smoke_spec(base_seed=2**64 - 1).base_seed == 2**64 - 1

    @pytest.mark.parametrize("field, value, message", [
        ("reps", 0, "reps must be >= 1"),
        ("test_n", 0, "test_n must be >= 1"),
        ("n_grid", (0, 5), "sample sizes must be >= 1"),
        ("estimators", (), "estimators must be a nonempty subset"),
    ])
    def test_values_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            smoke_spec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_grid", (50.7, 100)), ("n_grid", (50, 100.0)), ("reps", 2.5),
        ("test_n", 10.5), ("p", 10.5), ("s", 2.0), ("reps", "2"), ("base_seed", 1.5),
    ])
    def test_non_integral_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            smoke_spec(**{field: value})

    def test_numpy_integers_accepted(self):
        spec = smoke_spec(p=np.int64(10), s=np.int32(2), reps=np.int64(2),
                          test_n=np.int64(300), n_grid=np.array([50, 100]))
        assert spec == smoke_spec()
        assert all(type(v) is int for v in (spec.p, spec.s, spec.reps, spec.test_n,
                                            *spec.n_grid))


class TestRadiusRules:
    def test_sqrt_s(self):
        assert resolve_radius(smoke_spec()) == pytest.approx(np.sqrt(2.0))

    def test_explicit(self):
        spec = smoke_spec(radius_rule="explicit", radius_value=3.5)
        assert resolve_radius(spec) == 3.5


class TestTrialIdentity:
    def test_ids_enumerate_cells(self):
        spec = smoke_spec(estimators=("lasso", "pv"))
        ids = [trial_id_for(spec, n, rep, est)
               for n in spec.n_grid for rep in range(spec.reps) for est in spec.estimators]
        assert ids == list(range(8))

    def test_seed_is_mixed_rep(self):
        spec = smoke_spec(estimators=("lasso", "pv"))
        for n in spec.n_grid:
            for rep in range(spec.reps):
                for est in spec.estimators:
                    rec = run_trial(spec, (n, rep), est)
                    assert rec.seed == mix64(mix64(spec.base_seed) ^ rep)
                    assert rec.seed == rep_seed(spec, rep)

    def test_neighbouring_base_seeds_share_no_data_seed(self):
        # mixing base ^ trial_id alone gave base 8 trial 1 and base 9
        # trial 0 one seed
        seeds = {}
        for base in (8, 9):
            spec = SweepSpec(p=20, s=3, n_grid=(30, 60), reps=5, base_seed=base, test_n=50)
            seeds[base] = {rec.seed for rec in run_sweep(spec)}
        assert len(seeds[8]) == len(seeds[9]) == 5
        assert not seeds[8] & seeds[9]

    def test_out_of_grid_cell_rejected(self):
        with pytest.raises(ValueError):
            run_trial(smoke_spec(), (75, 0), "lasso")

    @pytest.mark.parametrize("rep, estimator, message", [
        (-1, "lasso", r"rep=-1 outside \[0, 2\)"),
        (2, "lasso", r"rep=2 outside \[0, 2\)"),
        (0, "pv", r"estimator 'pv' not in \('lasso',\)"),
    ])
    def test_cell_outside_the_spec_rejected(self, rep, estimator, message):
        with pytest.raises(ValueError, match=message):
            trial_id_for(smoke_spec(), 50, rep, estimator)


class TestRunTrial:
    def test_deterministic_except_runtime(self):
        spec = smoke_spec()
        a = run_trial(spec, (50, 0), "lasso")
        b = run_trial(spec, (50, 0), "lasso")
        assert _without_runtime(a) == _without_runtime(b)

    def test_linear_noiseless_interpolation(self):
        spec = smoke_spec(link="linear", n_grid=(200,), reps=1)
        rec = run_trial(spec, (200, 0), "lasso")
        assert rec.metrics.direction_error <= 1e-6
        assert rec.converged

    def test_linear_square_design_converges(self):
        # n = p interpolates: the objective falls toward 0 at a constant
        # relative rate, and only the certificate can tell the fit is done
        spec = SweepSpec(p=300, s=5, n_grid=(300,), link="linear", reps=1,
                         base_seed=13, test_n=300)
        rec = run_trial(spec, (300, 0), "lasso")
        assert rec.converged

    def test_noiseless_overdetermined_fit_has_exact_support(self):
        # n > p and y = X beta*: the minimizer is beta* itself, so no
        # coordinate off the true support may survive as solver dust
        spec = SweepSpec(p=60, s=5, n_grid=(120,), link="linear", reps=2,
                         base_seed=23, test_n=120)
        for rep in range(2):
            rec = run_trial(spec, (120, rep), "lasso")
            assert rec.converged
            assert rec.metrics.support_precision == 1.0
            assert rec.metrics.direction_error <= 1e-12

    def test_metrics_are_populated(self):
        rec = run_trial(smoke_spec(), (100, 0), "lasso")
        m = rec.metrics
        assert 0.0 <= m.direction_error <= 2.0
        assert 0.0 <= m.support_precision <= 1.0
        assert 0.0 <= m.support_recall <= 1.0
        assert 0.0 <= m.test_accuracy <= 1.0
        assert m.norm_beta_hat == pytest.approx(m.norm_gap + compute_lambda("logistic"))

    def test_pv_estimator_runs(self):
        spec = smoke_spec(estimators=("lasso", "pv"))
        rec = run_trial(spec, (100, 0), "pv")
        assert rec.estimator == "pv"
        assert rec.iterations == 0 and rec.converged

    def test_fixed_signal_is_shared_across_trials(self):
        spec = smoke_spec()
        sig = sweep_signal(spec)
        a = run_trial(spec, (50, 0), "lasso")
        b = run_trial(spec, (50, 1), "lasso")
        # raw errors differ (different data) but both trials scored the same signal
        assert a.seed != b.seed
        assert np.count_nonzero(sig) == spec.s

    def test_negative_radius_is_not_a_failed_record(self, monkeypatch):
        # a bad argument is not degenerate data: it propagates, and no
        # failed record hides it
        monkeypatch.setattr("sixlasso.experiments.resolve_radius", lambda spec: -1.0)
        with pytest.raises(ValueError, match="radius"):
            run_trial(smoke_spec(), (50, 0), "lasso")

    @pytest.mark.parametrize("rule", ["sqrt_s", "explicit"])
    def test_standalone_trial_matches_the_sweep(self, rule):
        # run_trial derives lambda and the radius from the spec itself
        spec = smoke_spec(estimators=("lasso", "pv"), radius_rule=rule,
                          radius_value=1.5 if rule == "explicit" else None)
        swept = run_sweep(spec)
        assert {rec.radius for rec in swept} == {resolve_radius(spec)}
        for rec in swept:
            alone = run_trial(spec, (rec.n, _rep_of(spec, rec)), rec.estimator)
            assert _without_runtime(alone) == _without_runtime(rec)


class TestRunSweep:
    def test_cardinality_single_estimator(self):
        records = run_sweep(smoke_spec())
        assert len(records) == 4
        assert [r.trial_id for r in records] == [0, 1, 2, 3]

    def test_both_estimators_double_count(self):
        records = run_sweep(smoke_spec(estimators=("lasso", "pv")))
        assert len(records) == 8
        assert {r.estimator for r in records} == {"lasso", "pv"}

    def test_rerun_identical_modulo_runtime(self):
        spec = smoke_spec()
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert [_without_runtime(r) for r in a] == [_without_runtime(r) for r in b]

    def test_parallel_matches_serial(self, monkeypatch):
        spec = smoke_spec()
        monkeypatch.delenv("SIXLASSO_THREADS", raising=False)
        serial = run_sweep(spec)
        monkeypatch.setenv("SIXLASSO_THREADS", "2")
        pooled = run_sweep(spec)
        assert [_without_runtime(r) for r in serial] == [_without_runtime(r) for r in pooled]

    def test_takes_the_spec_alone(self):
        # every fit runs to fit_lasso's fixed cap: no iteration cap rides along
        spec = smoke_spec()
        with pytest.raises(TypeError):
            run_sweep(spec, 10)
        with pytest.raises(TypeError):
            run_trial(spec, (50, 0), "lasso", 10)
        # nor a signal: the spec fixes beta*, so no other one can reach a trial
        with pytest.raises(TypeError):
            run_trial(spec, (50, 0), "lasso", signal=sweep_signal(spec))

    @pytest.fixture
    def kept_after_rep(self, monkeypatch):
        """The number of draws each rep's thread still keeps when the rep
        ends, returned or raised."""
        left = []
        real = experiments._run_rep

        def spy(spec, rep):
            try:
                return real(spec, rep)
            finally:
                left.append(len(model._KEPT.draws))

        monkeypatch.setattr(experiments, "_run_rep", spy)
        return left

    def test_serial_sweep_keeps_no_draws(self, monkeypatch, kept_after_rep):
        # a rep's two draws go with the rep, whether it returns or raises
        monkeypatch.delenv("SIXLASSO_THREADS", raising=False)
        run_sweep(smoke_spec())
        assert kept_after_rep == [0, 0]
        assert model._KEPT.draws == []
        monkeypatch.setattr("sixlasso.experiments.resolve_radius", lambda spec: -1.0)
        with pytest.raises(ValueError, match="radius"):
            run_sweep(smoke_spec())
        assert kept_after_rep[2:] == [0]
        assert model._KEPT.draws == []

    def test_pooled_sweep_raises_and_keeps_no_draws(self, monkeypatch, kept_after_rep):
        # a rep's error reaches the caller through the pool, and every rep
        # that ran emptied its own thread's draws
        model._KEPT.draws.clear()
        monkeypatch.setenv("SIXLASSO_THREADS", "2")
        monkeypatch.setattr("sixlasso.experiments.resolve_radius", lambda spec: -1.0)
        with pytest.raises(ValueError, match="radius"):
            run_sweep(smoke_spec(reps=4))
        assert kept_after_rep and set(kept_after_rep) == {0}
        assert model._KEPT.draws == []

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool run_sweep builds; the pools are real
        thread pools."""
        built = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        return built

    def test_one_rep_sweep_builds_no_pool(self, monkeypatch, pool_sizes):
        # a pool of one would run the rep no sooner than the caller does
        spec = smoke_spec(reps=1)
        monkeypatch.delenv("SIXLASSO_THREADS", raising=False)
        serial = run_sweep(spec)
        monkeypatch.setenv("SIXLASSO_THREADS", "2")
        swept = run_sweep(spec)
        assert pool_sizes == []
        assert [_without_runtime(r) for r in swept] == [_without_runtime(r) for r in serial]

    def test_pool_has_no_more_workers_than_reps(self, monkeypatch, pool_sizes):
        for threads, reps, workers in ((2, 2, 2), (5, 2, 2), (2, 3, 2), (3, 3, 3)):
            monkeypatch.setenv("SIXLASSO_THREADS", str(threads))
            run_sweep(smoke_spec(reps=reps, n_grid=(50,)))
            assert pool_sizes.pop() == workers, (threads, reps)
        assert pool_sizes == []

    def test_env_var_controls_threads(self, monkeypatch):
        monkeypatch.setenv("SIXLASSO_THREADS", "not-a-number")
        with pytest.raises(ValueError):
            run_sweep(smoke_spec())


def _cell_pairs(records):
    """(lasso, pv) record pairs of a lasso,pv sweep, one per cell."""
    pairs = list(zip(records[0::2], records[1::2]))
    for lasso, pv in pairs:
        assert (lasso.estimator, pv.estimator) == ("lasso", "pv")
        assert (lasso.n, lasso.trial_id + 1) == (pv.n, pv.trial_id)
    return pairs


def _rep_of(spec, rec):
    return rec.trial_id // len(spec.estimators) % spec.reps


def _nested_train(spec, signal, n, seed):
    """The first n rows of the rep's draw of max(n_grid) rows."""
    full = generate_dataset(signal, spec.n_grid[-1], spec.link, seed)
    return Dataset(X=full.X[:n], y=full.y[:n])


def _cell_metrics(spec, signal, n, seed, estimator):
    """(metrics, (iterations, converged)) of `estimator` fitted on the first n
    rows of the draw of data seed `seed` and scored on that seed's held-out
    set."""
    train = _nested_train(spec, signal, n, seed)
    radius = resolve_radius(spec)
    if estimator == "lasso":
        fit = fit_lasso(train, radius)
        beta_hat, diagnostics = fit.beta_hat, (fit.iterations, fit.converged)
    else:
        beta_hat, diagnostics = pv_linear_fit(train, radius), (0, True)
    prec, rec = support_metrics(beta_hat, signal)
    test = _plane_test_set(spec.test_n, spec.link, mix64(seed ^ _TEST_TAG))
    metrics = TrialMetrics(
        direction_error=direction_error(beta_hat, signal),
        raw_l2_error=float(np.linalg.norm(beta_hat - signal)),
        norm_beta_hat=float(np.linalg.norm(beta_hat)),
        norm_gap=norm_gap(beta_hat, compute_lambda(spec.link)),
        support_precision=prec,
        support_recall=rec,
        test_accuracy=_plane_score(beta_hat, signal, test),
    )
    return metrics, diagnostics


def _as_computed(rec):
    return rec.metrics, (rec.iterations, rec.converged)


class TestPairedDesign:
    """Every trial of a rep fits a prefix of one nested training draw and is
    scored on one held-out set, both drawn from the rep's seed."""

    def test_pv_fits_the_lasso_rows_data(self):
        spec = smoke_spec(p=60, s=3, estimators=("lasso", "pv"), test_n=500)
        signal = sweep_signal(spec)
        for lasso, pv in _cell_pairs(run_sweep(spec)):
            assert lasso.seed == rep_seed(spec, _rep_of(spec, lasso))
            assert pv.seed == lasso.seed
            assert _as_computed(pv) == _cell_metrics(spec, signal, pv.n, pv.seed, "pv")
            fit = fit_lasso(_nested_train(spec, signal, lasso.n, lasso.seed),
                            resolve_radius(spec))
            assert lasso.metrics.direction_error == direction_error(fit.beta_hat, signal)

    def test_every_record_fits_the_first_n_rows_of_its_reps_draw(self):
        spec = smoke_spec(p=60, s=3, n_grid=(40, 70, 100), reps=3,
                          estimators=("lasso", "pv"), test_n=500)
        signal = sweep_signal(spec)
        records = run_sweep(spec)
        assert len(records) == 18
        for rec in records:
            seed = rep_seed(spec, _rep_of(spec, rec))
            assert rec.seed == seed
            assert _as_computed(rec) == _cell_metrics(spec, signal, rec.n, seed, rec.estimator)

    def test_sweep_draws_one_signal_per_trial_and_two_sets_per_rep(self, monkeypatch):
        spec = smoke_spec(p=60, s=3, reps=4, estimators=("lasso", "pv"), test_n=500,
                          base_seed=31)
        draws = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] == "sixlasso.model":
                draws.append(caller.f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        # each trial rebuilds the signal from the spec; per rep, one training
        # draw and one held-out draw.  Pooled, each thread keeps its own
        # rep's draws: a cache the threads shared would evict one rep's set
        # for another's and draw it again.  4 threads on a short switch
        # interval interleave the reps as finely as the interpreter allows
        trials = len(spec.n_grid) * spec.reps * len(spec.estimators)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (None, "2", "4"):
                draws.clear()
                if threads is None:
                    monkeypatch.delenv("SIXLASSO_THREADS", raising=False)
                else:
                    monkeypatch.setenv("SIXLASSO_THREADS", threads)
                records = [_without_runtime(r) for r in run_sweep(spec)]
                assert draws.count("make_signal") == trials, threads
                assert draws.count("generate_dataset") == 2 * spec.reps, threads
                assert len(draws) == trials + 2 * spec.reps, threads
                if threads is None:
                    serial = records
                assert records == serial, threads
        finally:
            sys.setswitchinterval(interval)


def _plane_test_set(n, link, seed):
    """The held-out set as run_trial draws it, labels included."""
    test = generate_dataset(_PLANE, n, link, seed)
    if link == "linear":
        test = dataclasses.replace(test, y=np.where(test.y >= 0, 1.0, -1.0))
    return test


def _plane_score(beta_hat, beta_star, test):
    return classify_accuracy(plane_coordinates(beta_hat, beta_star), test)


def _at_correlation(u, rho, rng, scale=1.0):
    """A vector at cosine rho to the unit vector u."""
    w = rng.standard_normal(u.size)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return scale * (rho * u + np.sqrt(1.0 - rho * rho) * w)


class TestPlaneScoring:
    """run_trial scores beta_hat by its coordinates in the plane of beta*
    and beta_hat, on a 2-column held-out set."""

    def test_coordinates(self):
        u = np.array([0.6, 0.8, 0.0])
        a, c = plane_coordinates(np.array([3.0, 4.0, 12.0]), 2.0 * u)
        assert a == pytest.approx(5.0) and c == pytest.approx(12.0)
        np.testing.assert_allclose(plane_coordinates(-2.5 * u, u), [-2.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("link", ["sign", "logistic", "probit", "linear"])
    def test_embedded_set_scores_identically(self, link):
        """Embedding the plane set in R^p as Z @ [u, v]^T and scoring beta_hat
        there gives the plane score exactly, case by case."""
        rng = np.random.default_rng(41)
        p = 40
        u = make_signal(p, 4, seed=42)
        cases = [c * u for c in (1.0, 0.3, 7.0, -0.5, -4.0)]
        cases += [rng.standard_normal(p) for _ in range(6)]
        cases += [_at_correlation(u, rho, rng, 2.0) for rho in (0.999, -0.2)]
        for i, beta_hat in enumerate(cases):
            plane = _plane_test_set(5000, link, seed=100 + i)
            a, c = plane_coordinates(beta_hat, u)
            if c > 1e-12 * abs(a):
                v = (beta_hat - a * u) / c
            else:  # beta_hat on the beta* axis: any unit v orthogonal to u
                v = _at_correlation(u, 0.0, rng)
            embedded = Dataset(X=plane.X @ np.vstack([u, v]), y=plane.y)
            assert classify_accuracy(beta_hat, embedded) == _plane_score(beta_hat, u, plane)

    @pytest.mark.parametrize("link", ["sign", "linear", "probit"])
    def test_mean_matches_population_accuracy(self, link):
        # P(sign(x'beta_hat) = y) at cosine rho; probit labels are
        # sign(x'beta* + e) with e ~ N(0, 1), at cosine rho / sqrt(2)
        shrink = np.sqrt(2.0) if link == "probit" else 1.0

        def closed_form(rho):
            return 0.5 + np.arcsin(rho / shrink) / np.pi

        rng = np.random.default_rng(43)
        u = make_signal(30, 5, seed=44)
        for rho in (-0.4, 0.5, 0.98):
            beta_hat = _at_correlation(u, rho, rng, 3.0)
            scores = np.array([_plane_score(beta_hat, u, _plane_test_set(10_000, link, seed))
                               for seed in range(100)])
            se = scores.std(ddof=1) / np.sqrt(scores.size)
            assert abs(scores.mean() - closed_form(rho)) <= 3.0 * se, (rho, scores.mean())

    def test_logistic_mean_matches_full_dimensional_scoring(self):
        rng = np.random.default_rng(45)
        sig = make_signal(30, 5, seed=46)
        for rho in (0.3, 0.9):
            beta_hat = _at_correlation(sig, rho, rng, 0.7)
            plane = np.array([_plane_score(beta_hat, sig,
                                           _plane_test_set(10_000, "logistic", seed))
                              for seed in range(100)])
            full = np.array([
                classify_accuracy(beta_hat, generate_dataset(sig, 10_000, "logistic", 500 + seed))
                for seed in range(100)])
            se = np.sqrt(plane.var(ddof=1) / plane.size + full.var(ddof=1) / full.size)
            assert abs(plane.mean() - full.mean()) <= 3.0 * se, (rho, plane.mean(), full.mean())

    def test_run_trial_scores_in_the_plane(self):
        spec = smoke_spec(p=60, s=3, test_n=2000)
        signal = sweep_signal(spec)
        for n in spec.n_grid:
            for rep in range(spec.reps):
                rec = run_trial(spec, (n, rep), "lasso")
                assert rec.seed == rep_seed(spec, rep)
                fit = fit_lasso(_nested_train(spec, signal, n, rec.seed), resolve_radius(spec))
                test = _plane_test_set(spec.test_n, spec.link, mix64(rec.seed ^ _TEST_TAG))
                assert rec.metrics.test_accuracy == _plane_score(fit.beta_hat, signal, test)

    def test_zero_fit_is_a_failed_record(self, monkeypatch):
        spec = smoke_spec()

        def zero_fit(data, radius):
            zero = np.zeros(data.X.shape[1])
            return FitResult(beta_hat=zero, objective=1.0, iterations=3, converged=True,
                             fp_residual=0.0, lipschitz=1.0, backtracks=0,
                             objective_path=np.ones(4))

        monkeypatch.setattr("sixlasso.experiments.fit_lasso", zero_fit)
        rec = run_trial(spec, (50, 0), "lasso")
        m = rec.metrics
        assert m.direction_error == 2.0 and np.isnan(m.raw_l2_error)
        assert np.isnan(m.test_accuracy)
        assert not rec.converged and rec.iterations == 0
        with pytest.raises(SixLassoError, match="zero coefficient vector"):
            _plane_score(np.zeros(spec.p), sweep_signal(spec),
                         _plane_test_set(10, "sign", 0))


def _record(estimator, n, trial_id, value):
    metrics = TrialMetrics(value, value, value, value, value, value, value)
    return TrialRecord(trial_id=trial_id, seed=0, n=n, p=5, s=1, link="sign",
                       estimator=estimator, radius=1.0, metrics=metrics,
                       iterations=1, converged=True, runtime_ms=0.0)


class TestSummarize:
    def test_single_record(self):
        rows = summarize([_record("lasso", 50, 0, 0.25)])
        for row in rows:
            assert row.q25 == row.median == row.q75 == 0.25

    def test_median_of_three(self):
        records = [_record("lasso", 50, i, v) for i, v in enumerate([1.0, 2.0, 3.0])]
        rows = {r.metric: r for r in summarize(records)}
        assert rows["direction_error"].median == 2.0
        assert rows["direction_error"].q25 == 1.0  # lower-interpolation convention
        assert rows["direction_error"].q75 == 2.0

    def test_constant_metric_collapses_quantiles(self):
        records = [_record("pv", 80, i, 0.5) for i in range(6)]
        for row in summarize(records):
            assert row.q25 == row.median == row.q75 == 0.5

    def test_groups_by_estimator_and_n(self):
        records = [_record("lasso", 50, 0, 1.0), _record("lasso", 100, 1, 2.0),
                   _record("pv", 50, 2, 3.0)]
        rows = summarize(records)
        cells = {(r.estimator, r.n) for r in rows}
        assert cells == {("lasso", 50), ("lasso", 100), ("pv", 50)}

    def test_empty_records(self):
        with pytest.raises(ValueError, match="no records to summarize"):
            summarize([])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_trial_drops_out_of_quantiles(self):
        records = [_record("lasso", 50, i, v) for i, v in enumerate([0.1, 0.2, 0.3])]
        records.append(dataclasses.replace(_record("lasso", 50, 3, 0.0),
                                           metrics=_failed_metrics(0.5), converged=False))
        rows = {r.metric: r for r in summarize(records)}
        for name in ("raw_l2_error", "test_accuracy"):
            assert (rows[name].q25, rows[name].median, rows[name].q75) == (0.1, 0.2, 0.2)
        # a failure still counts as direction error 2: without it q75 would be 0.2
        assert (rows["direction_error"].median, rows["direction_error"].q75) == (0.2, 0.3)

    def test_matches_numpy_lower_quantiles(self):
        # one sort per group and its order statistics at floor(q (m - 1))
        # give what np.quantile's "lower" method gives, bit for bit
        rng = np.random.default_rng(17)
        for size in range(1, 51):
            vals = rng.standard_normal(size)
            vals[rng.random(size) < 0.2] = np.nan
            records = [_record("lasso", 50, i, v) for i, v in enumerate(vals)]
            row = summarize(records)[0]
            finite = vals[np.isfinite(vals)]
            if not finite.size:
                assert np.isnan([row.q25, row.median, row.q75]).all()
                continue
            want = [float(np.quantile(finite, q, method="lower")) for q in (0.25, 0.5, 0.75)]
            assert [row.q25, row.median, row.q75] == want, size

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_failed_cell_is_nan(self):
        failed = [dataclasses.replace(_record("pv", 80, i, 0.0), metrics=_failed_metrics(0.5),
                                      converged=False) for i in range(3)]
        rows = {r.metric: r for r in summarize(failed)}
        for name in ("raw_l2_error", "test_accuracy"):
            assert all(np.isnan(q) for q in (rows[name].q25, rows[name].median, rows[name].q75))
        assert rows["direction_error"].median == 2.0
