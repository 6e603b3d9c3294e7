"""Span tracer that times the sixlasso layers from outside the package.

Each public function in WRAPS is replaced, in the module where its caller
looks it up, by a wrapper that records a span (name, start, end, parent)
in memory.  The trial id of the enclosing run_trial span is the span's
request id.  A function missing from its module is reported as an absent
layer rather than failing the run, so a refactor can drop a layer without
breaking the benchmark.

Tracing only sees the calling process, so traced sweeps run serially.
"""

from __future__ import annotations

import importlib
import json
import time
from functools import wraps

import numpy as np

# (module, attribute its caller looks up, span name)
WRAPS = (
    ("sixlasso.cli", "summarize", "cli.summarize"),
    ("sixlasso.cli", "records_csv_text", "cli.records_csv_text"),
    ("sixlasso.cli", "summary_csv_text", "cli.summary_csv_text"),
    ("sixlasso.cli", "sweep_svg_text", "cli.sweep_svg_text"),
    ("sixlasso.cli", "write_text_atomic", "cli.write_text_atomic"),
    ("sixlasso.experiments", "run_trial", "experiments.run_trial"),
    ("sixlasso.experiments", "generate_dataset", "model.generate_dataset"),
    ("sixlasso.experiments", "fit_lasso", "solver.fit_lasso"),
    ("sixlasso.experiments", "pv_linear_fit", "solver.pv_linear_fit"),
    ("sixlasso.experiments", "direction_error", "metrics.direction_error"),
    ("sixlasso.experiments", "norm_gap", "metrics.norm_gap"),
    ("sixlasso.experiments", "support_metrics", "metrics.support_metrics"),
    ("sixlasso.experiments", "classify_accuracy", "metrics.classify_accuracy"),
    ("sixlasso.solver", "lipschitz_estimate", "solver.lipschitz_estimate"),
    ("sixlasso.solver", "project_l1_ball", "solver.project_l1_ball"),
)

CLI_OUTPUT = ("cli.summarize", "cli.records_csv_text", "cli.summary_csv_text",
              "cli.sweep_svg_text", "cli.write_text_atomic")
SCORING = ("metrics.direction_error", "metrics.norm_gap", "metrics.support_metrics",
           "metrics.classify_accuracy")


def _dataset_attrs(out):
    n, p = out.X.shape
    return {"n": int(n), "bytes": int(n) * int(p) * 8}


def _fit_attrs(out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _trial_attrs(out):
    return {"trial_id": int(out.trial_id)}


# Small facts kept from a call's result; the result itself is not kept alive.
ATTRS = {
    "model.generate_dataset": _dataset_attrs,
    "solver.fit_lasso": _fit_attrs,
    "experiments.run_trial": _trial_attrs,
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        spans, stack, extract = self.spans, self._stack, ATTRS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                try:
                    span[4] = extract(out)
                except (AttributeError, TypeError, ValueError):
                    pass
            return out

        setattr(module, attr, traced)

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            self.wrap(module, attr, name)

    def request_ids(self) -> list:
        """Trial id of each span's enclosing run_trial span (None outside trials)."""
        ids: list = []
        for name, _, _, parent, attrs in self.spans:
            if name == "experiments.run_trial":
                ids.append((attrs or {}).get("trial_id"))
            else:
                ids.append(ids[parent] if parent >= 0 else None)
        return ids

    def dump(self, path: str) -> None:
        rows = [[name, start, end, parent, rid]
                for (name, start, end, parent, _), rid in zip(self.spans, self.request_ids())]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "trial_id"],
                       "spans": rows, "absent": self.absent}, handle)


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest whole percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; that gives (0, min).
    """
    vals = np.asarray(values, dtype=float)
    if vals.size <= 10:
        return 0.0, float(vals.min()) if vals.size else 0.0
    for q in range(99, -1, -1):
        v = float(np.percentile(vals, q, method="lower"))
        if np.count_nonzero(vals > v) >= 10:
            return float(q), v
    return 0.0, float(vals.min())


def trial_ms(tracer: Tracer) -> list[float]:
    """Duration of every run_trial span, in milliseconds."""
    return [(end - start) * 1000.0 for name, start, end, _, _ in tracer.spans
            if name == "experiments.run_trial"]


def trial_metrics(durations_ms: list[float]) -> dict[str, tuple[float, str]]:
    """Median and tail of trial times pooled over traced sweeps."""
    tail_pct, tail_ms = tail(durations_ms)
    return {
        "experiments.run_trial.count": (float(len(durations_ms)), "count"),
        "experiments.run_trial.p50_ms": (
            float(np.median(durations_ms)) if durations_ms else 0.0, "ms"),
        "experiments.run_trial.tail_ms": (tail_ms, "ms"),
        "experiments.run_trial.tail_pct": (tail_pct, "%"),
    }


def layer_metrics(tracer: Tracer, test_n: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals, counts and ratios of one traced sweep.

    A generate_dataset call of test_n rows is the held-out test set; any
    other is training data.  Self time is a span's duration minus that of
    its child spans (the traced code is serial, so children never overlap).
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[0] in names)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

    def attrs(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    data = attrs("model.generate_dataset")
    test_s = sum(d for s, d in zip(spans, dur)
                 if s[0] == "model.generate_dataset" and (s[4] or {}).get("n") == test_n)
    fits = attrs("solver.fit_lasso")
    iterations = [f["iterations"] for f in fits]
    fit_ids = {i for i, s in enumerate(spans) if s[0] == "solver.fit_lasso"}
    fit_projections = sum(1 for s in spans if s[0] == "solver.project_l1_ball" and s[3] in fit_ids)

    return {
        "model.generate_dataset.test_s": (test_s, "s"),
        "model.generate_dataset.train_s": (total("model.generate_dataset") - test_s, "s"),
        "model.generate_dataset.calls": (float(count("model.generate_dataset")), "count"),
        "model.generate_dataset.bytes": (float(sum(a["bytes"] for a in data)), "bytes_computed"),
        "solver.lipschitz_estimate_s": (total("solver.lipschitz_estimate"), "s"),
        "solver.lipschitz_estimate.calls": (float(count("solver.lipschitz_estimate")), "count"),
        "solver.fit_lasso.self_s": (self_time("solver.fit_lasso"), "s"),
        "solver.project_l1_ball_s": (total("solver.project_l1_ball"), "s"),
        "solver.project_l1_ball.calls": (float(count("solver.project_l1_ball")), "count"),
        "solver.iterations_p50": (float(np.median(iterations)) if iterations else 0.0, "count"),
        "solver.iterations_max": (float(max(iterations, default=0)), "count"),
        "solver.projections_per_iteration": (
            fit_projections / sum(iterations) if sum(iterations) else 0.0, "ratio"),
        "solver.converged_share": (
            sum(f["converged"] for f in fits) / len(fits) if fits else 0.0, "fraction"),
        "solver.pv_linear_fit_s": (total("solver.pv_linear_fit"), "s"),
        "metrics.classify_accuracy_s": (total("metrics.classify_accuracy"), "s"),
        "metrics.scoring_s": (total(*SCORING), "s"),
        "experiments.run_trial.self_s": (self_time("experiments.run_trial"), "s"),
        "cli.output_s": (total(*CLI_OUTPUT), "s"),
    }
