"""Micro-benchmarks of the hot paths of one figure-1 trial (p = 1200), and of
a lasso fit with n << p.

They run with the rest of the suite at a few rounds each and assert results,
never times.  For timings, run

    PYTHONPATH=src python -m pytest tests/test_bench.py --benchmark-only

and add --benchmark-disable to the tier-1 run to skip the timing loops.
"""

import numpy as np
import pytest

from sixlasso import (
    classify_accuracy,
    fit_lasso,
    generate_dataset,
    make_signal,
    plane_coordinates,
    project_l1_ball,
)
from sixlasso.experiments import _PLANE

P = 1200
RADIUS = np.sqrt(10.0)


@pytest.fixture(scope="module")
def signal():
    return make_signal(P, 10, seed=1)


def test_project_l1_ball(benchmark):
    v = np.random.default_rng(2).standard_normal(P)
    w = benchmark.pedantic(project_l1_ball, args=(v, RADIUS), rounds=20, iterations=5)
    assert np.abs(w).sum() == pytest.approx(RADIUS)


@pytest.mark.parametrize("n", [200, 3000])
def test_fit_lasso(benchmark, signal, n):
    data = generate_dataset(signal, n, "logistic", seed=3)
    fit = benchmark.pedantic(fit_lasso, args=(data, RADIUS), rounds=2, iterations=1)
    assert fit.converged


def test_fit_lasso_n_much_less_than_p(benchmark, signal):
    data = generate_dataset(signal, 150, "probit", seed=3)
    fit = benchmark.pedantic(fit_lasso, args=(data, RADIUS), rounds=2, iterations=1)
    assert fit.converged


def test_trial_test_scoring(benchmark, signal):
    beta_hat = signal + 0.1 * np.random.default_rng(4).standard_normal(P)

    def score():
        test = generate_dataset(_PLANE, 10_000, "logistic", seed=5)
        return classify_accuracy(plane_coordinates(beta_hat, signal), test)

    accuracy = benchmark.pedantic(score, rounds=5, iterations=1)
    assert 0.5 < accuracy < 1.0
