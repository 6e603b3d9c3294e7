"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4, 5, and 9 share one full-scale sweep (p=1200, s=10, logistic,
n from 200 to 3000, 10 repetitions), run once per session.  Lines are
printed to the real stdout so they stay visible under pytest capture.
"""

import os
import sys
import time

import numpy as np
import pytest

from oracles import (
    compute_lambda_mc,
    oracle_lasso_small,
    oracle_project_l1,
    oracle_sphere_lasso,
)
from sixlasso import (
    SweepSpec,
    compute_lambda,
    fit_lasso,
    generate_dataset,
    lipschitz_estimate,
    make_signal,
    project_l1_ball,
    run_sweep,
)
from sixlasso.cli import records_csv_text
from sixlasso.experiments import THREADS_ENV

FIGURE1_SPEC = SweepSpec(
    p=1200,
    s=10,
    n_grid=(200, 600, 1000, 1400, 1800, 2200, 2600, 3000),
    link="logistic",
    radius_rule="sqrt_s",
    reps=10,
    base_seed=20240810,
    estimators=("lasso", "pv"),
)

SMOKE_SPEC = SweepSpec(p=10, s=2, n_grid=(50, 100), link="logistic", reps=2,
                       base_seed=99, estimators=("lasso", "pv"), test_n=200)


def _report(criterion: int, name: str, ok: bool, detail: str):
    line = f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def figure1():
    workers = int(os.environ.get(THREADS_ENV, "0") or 0)
    start = time.perf_counter()
    records = run_sweep(FIGURE1_SPEC)
    elapsed = time.perf_counter() - start
    return records, elapsed, workers


def _median(records, estimator, n, field):
    vals = [getattr(r.metrics, field) for r in records
            if r.estimator == estimator and r.n == n]
    return float(np.median(vals))


def test_criterion_1_link_constants():
    start = time.perf_counter()
    lam_linear = compute_lambda("linear")
    lam_sign = compute_lambda("sign")
    lam_probit = compute_lambda("probit")
    lam_logistic = compute_lambda("logistic")
    mc_value, mc_se = compute_lambda_mc("logistic", budget=10_000_000, seed=1)
    elapsed = time.perf_counter() - start

    err_linear = abs(lam_linear - 1.0)
    err_sign = abs(lam_sign - np.sqrt(2.0 / np.pi))
    err_probit = abs(lam_probit - 1.0 / np.sqrt(np.pi))
    gap_logistic = abs(lam_logistic - mc_value)
    ok = (err_linear <= 1e-12 and err_sign <= 1e-8 and err_probit <= 1e-8
          and gap_logistic <= 3.0 * mc_se and elapsed < 1.0)
    _report(1, "link constants", ok,
            f"linear err {err_linear:.2e}, sign err {err_sign:.2e}, "
            f"probit err {err_probit:.2e}, logistic |quad-mc| {gap_logistic:.2e} "
            f"vs 3se {3 * mc_se:.2e}, {elapsed:.2f}s")


def test_criterion_2_projection_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    ok = True
    for _ in range(1000):
        p = int(rng.integers(1, 51))
        v = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
        radius = float(rng.uniform(0.0, np.abs(v).sum() * 1.3))
        w = project_l1_ball(v, radius)
        w_oracle = oracle_project_l1(v, radius)
        worst_gap = max(worst_gap, float(np.max(np.abs(w - w_oracle))))
        ok &= np.abs(w).sum() <= radius + 1e-9
        ok &= float(np.linalg.norm(project_l1_ball(w, radius) - w)) <= 1e-12
        u = v + rng.standard_normal(p)
        expand = (np.linalg.norm(project_l1_ball(u, radius) - w)
                  - np.linalg.norm(u - v))
        ok &= expand <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and worst_gap <= 1e-8 and elapsed < 5.0
    _report(2, "projection certification", ok,
            f"1000 cases, max oracle gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_3_solver_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    step = 0.01
    worst_excess = -np.inf
    worst_residual = 0.0
    converged_count = 0
    ok = True
    for trial in range(50):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(30, 61))
        s = int(rng.integers(1, p + 1))
        radius = float(rng.uniform(0.5, 1.2))
        signal = make_signal(p, s, seed=1000 + trial)
        data = generate_dataset(signal, n, "logistic", seed=2000 + trial)
        fit = fit_lasso(data, radius)
        _, oracle_obj = oracle_lasso_small(data, radius, step)
        bound = lipschitz_estimate(data.X) * p * step ** 2
        worst_excess = max(worst_excess, fit.objective - oracle_obj)
        ok &= fit.objective <= oracle_obj + bound
        if fit.converged:
            converged_count += 1
            worst_residual = max(worst_residual, fit.fp_residual)
            ok &= fit.fp_residual <= 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(3, "solver optimality vs exhaustive grid", ok,
            f"50 instances, max objective excess {worst_excess:.2e}, "
            f"{converged_count} converged, max residual {worst_residual:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_figure1_error_decline(figure1):
    records, elapsed, workers = figure1
    medians = [_median(records, "lasso", n, "direction_error")
               for n in FIGURE1_SPEC.n_grid]
    ratio = medians[-1] / medians[0]
    smoothed = [(a + b) / 2.0 for a, b in zip(medians, medians[1:])]
    monotone = all(b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:]))
    budget = 240.0 if workers >= 8 else 900.0
    ok = ratio <= 0.5 and monotone and elapsed <= budget
    _report(4, "figure-1 error decline", ok,
            f"median(n=3000)={medians[-1]:.3f} vs median(n=200)={medians[0]:.3f}, "
            f"ratio {ratio:.3f} <= 0.5, smoothed monotone={monotone}, "
            f"{elapsed:.0f}s with {workers} workers (budget {budget:.0f}s)")


def test_criterion_5_norm_concentration_and_raw_error(figure1):
    records, _, _ = figure1
    lam = compute_lambda("logistic")
    norm_med = _median(records, "lasso", 3000, "norm_beta_hat")
    raw_med = _median(records, "lasso", 3000, "raw_l2_error")
    ok = (lam - 0.15 <= norm_med <= lam + 0.15) and raw_med >= 0.3
    _report(5, "scale concentrates but raw error persists", ok,
            f"median |beta_hat| {norm_med:.3f} in [{lam - 0.15:.3f}, {lam + 0.15:.3f}], "
            f"median raw error {raw_med:.3f} >= 0.3")


def test_criterion_6_sphere_program_agreement():
    start = time.perf_counter()
    lam = compute_lambda("logistic")
    step = 0.005
    s = 1
    ok = True
    details = []
    for mult in (0.7, 1.0, 1.3):
        k = mult * lam
        med = {}
        for n in (100, 5000):
            gaps = []
            for seed in range(20):
                signal = make_signal(2, s, seed=1000 + seed)
                data = generate_dataset(signal, n, "logistic", seed=2000 + seed)
                unit_fit, _ = oracle_sphere_lasso(data, 2.0 * np.sqrt(s) / lam, 1.0, step)
                scaled_fit, _ = oracle_sphere_lasso(data, np.sqrt(s), k, step)
                gaps.append(float(np.linalg.norm(unit_fit - scaled_fit / k)))
            med[n] = float(np.median(gaps))
        ok &= med[5000] <= 0.5 * med[100]
        details.append(f"k={mult:g}*lam: {med[100]:.3f}->{med[5000]:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(6, "sphere programs converge together", ok,
            "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_7_moment_identity():
    start = time.perf_counter()
    ok = True
    details = []
    for link in ("linear", "logistic", "probit", "sign"):
        lam = compute_lambda(link)
        signal = make_signal(5, 2, seed=70)
        data = generate_dataset(signal, 100_000, link, seed=71)
        emp = (data.y[:, None] * data.X).mean(axis=0)
        dev = float(np.linalg.norm(emp - lam * signal))
        ok &= dev <= 0.02
        details.append(f"{link} {dev:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(7, "moment identity E[yx] = lambda beta*", ok,
            ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_8_sweep_determinism(monkeypatch):
    def stripped(records):
        lines = records_csv_text(records).strip().split("\n")
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

    monkeypatch.delenv(THREADS_ENV, raising=False)
    serial_a = stripped(run_sweep(SMOKE_SPEC))
    serial_b = stripped(run_sweep(SMOKE_SPEC))
    monkeypatch.setenv(THREADS_ENV, "2")
    pooled = stripped(run_sweep(SMOKE_SPEC))
    ok = serial_a == serial_b == pooled
    _report(8, "byte-identical records across reruns and thread counts", ok,
            f"{len(serial_a.splitlines()) - 1} records compared modulo runtime_ms")


def test_criterion_9_baseline_within_factor_two(figure1):
    records, _, _ = figure1
    lasso_med = _median(records, "lasso", 3000, "direction_error")
    pv_med = _median(records, "pv", 3000, "direction_error")
    ratio = pv_med / lasso_med
    ok = 0.5 <= ratio <= 2.0
    _report(9, "linear baseline within factor 2 of the lasso", ok,
            f"pv median {pv_med:.3f} vs lasso median {lasso_med:.3f}, ratio {ratio:.3f}")
