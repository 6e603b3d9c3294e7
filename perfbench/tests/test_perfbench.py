"""Tests of the benchmark's own machinery: tracing, pooling and the gate.

Run from the repository root with the sources on the path:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402
from gate import check_sweep, record_problems  # noqa: E402
from spans import Tracer, layer_metrics, trial_metrics  # noqa: E402

from sixlasso.cli import records_csv_text  # noqa: E402
from sixlasso.experiments import TrialRecord  # noqa: E402
from sixlasso.metrics import TrialMetrics  # noqa: E402

TINY = {
    "p": 20, "s": 3, "n_grid": [30, 60], "link": "logistic", "radius_rule": "sqrt_s",
    "reps": 2, "estimators": ["lasso", "pv"], "test_n": 200, "base_seed": 7,
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


def _deadline():
    return time.perf_counter() + 120.0


def test_traced_records_match_untraced(out_dir):
    plain = bench.run_sweep(TINY, 0, _deadline())
    traced = bench.run_sweep(TINY, 0, _deadline(), spans_path=out_dir / "spans.json")
    for sweep in (plain, traced):
        assert sweep.gate.problems == [] and sweep.gate.failed == 0
    assert plain.gate.stripped == traced.gate.stripped
    layers = traced.report["layers"]
    assert len(traced.report["trial_ms"]) == 8
    assert layers["model.generate_dataset.calls"][0] == 16
    assert traced.report["absent"] == []
    assert (out_dir / "spans.json").is_file()


@pytest.mark.skipif(bench.nproc() < 2, reason="a pool of 2 needs 2 cores")
def test_serial_and_pooled_records_match(out_dir):
    serial = bench.run_sweep(TINY, 0, _deadline())
    pooled = bench.run_sweep(TINY, 2, _deadline())
    assert serial.gate.failed == pooled.gate.failed == 0
    assert serial.gate.stripped == pooled.gate.stripped


def _record(trial_id, estimator, metrics, converged):
    return TrialRecord(trial_id=trial_id, seed=1, n=30, p=20, s=3, link="logistic",
                       estimator=estimator, radius=math.sqrt(3), metrics=metrics,
                       iterations=12 if estimator == "lasso" else 0, converged=converged,
                       runtime_ms=1.0)


def test_gate_rejects_failed_trial_record(tmp_path):
    nan = float("nan")
    good = TrialMetrics(0.3, 0.5, 0.6, -0.03, 0.75, 1.0, 0.8)
    failed = TrialMetrics(direction_error=2.0, raw_l2_error=nan, norm_beta_hat=0.0,
                          norm_gap=-0.6, support_precision=1.0, support_recall=0.0,
                          test_accuracy=nan)
    records = [_record(0, "lasso", good, True), _record(1, "pv", failed, False)]
    assert record_problems(records[0], TINY) == []
    assert "failed-trial record" in record_problems(records[1], TINY)
    unconverged = _record(0, "lasso", good, False)
    assert record_problems(unconverged, TINY) != []
    assert record_problems(unconverged, TINY, require_converged=False) == []

    paths = [tmp_path / name for name in ("r.csv", "r_summary.csv", "r.svg")]
    paths[0].write_text(records_csv_text(records), encoding="utf-8")
    paths[1].write_text("x\n", encoding="utf-8")
    paths[2].write_text("<svg/>\n", encoding="utf-8")
    spec = dict(TINY, n_grid=[30], reps=1)
    result = check_sweep(spec, *map(str, paths))
    assert (result.attempted, result.failed) == (2, 1)


def test_missing_layer_is_reported_absent():
    class Module:
        pass

    tracer = Tracer()
    tracer.wrap(Module, "run_trial", "experiments.run_trial")
    assert tracer.absent == ["experiments.run_trial"]
    metrics = layer_metrics(tracer, test_n=200)
    assert metrics["solver.iterations_p50"][0] == 0.0
    assert trial_metrics([])["experiments.run_trial.count"] == (0.0, "count")
