"""Correctness gate for the files one `sixlasso sweep` wrote.

A trial fails when its record is missing, is a failed-trial record
(direction_error 2 with a NaN raw error), is a lasso fit that did not
converge, or carries a non-finite or out-of-range metric.  Every failed
trial counts toward the run's failures and makes the run incorrect.
Unconverged lasso fits are also counted on their own; a sweep run to
measure them passes require_converged=False, so that they are counted
but not failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

METRIC_RANGES = {
    "direction_error": (0.0, 2.0),
    "raw_l2_error": (0.0, INF),
    "norm_beta_hat": (0.0, INF),
    "norm_gap": (-INF, INF),
    "support_precision": (0.0, 1.0),
    "support_recall": (0.0, 1.0),
    "test_accuracy": (0.0, 1.0),
}


@dataclass
class GateResult:
    """Outcome of checking one sweep: trials expected, trials failed, and why."""

    attempted: int
    failed: int = 0
    unconverged: int = 0
    problems: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)
    stripped: list[str] = field(default_factory=list)


def expected_trials(spec: dict) -> int:
    return len(spec["n_grid"]) * spec["reps"] * len(spec["estimators"])


def record_problems(rec, spec: dict, require_converged: bool = True) -> list[str]:
    """Reasons one parsed TrialRecord is not a correct trial (empty when it is)."""
    m = rec.metrics
    out = []
    if m.direction_error == 2.0 and math.isnan(m.raw_l2_error):
        out.append("failed-trial record")
    for name, (lo, hi) in METRIC_RANGES.items():
        v = getattr(m, name)
        if not math.isfinite(v):
            out.append(f"{name} is {v}")
        elif not lo <= v <= hi:
            out.append(f"{name} = {v} outside [{lo}, {hi}]")
    if require_converged and rec.estimator == "lasso" and not rec.converged:
        out.append(f"lasso fit did not converge in {rec.iterations} iterations")
    if rec.estimator not in spec["estimators"] or rec.n not in spec["n_grid"]:
        out.append(f"unexpected cell ({rec.estimator}, n={rec.n})")
    if (rec.p, rec.s, rec.link) != (spec["p"], spec["s"], spec["link"]):
        out.append(f"record describes p={rec.p}, s={rec.s}, {rec.link}")
    return out


def check_sweep(spec: dict, records_path: str, summary_path: str, svg_path: str,
                require_converged: bool = True) -> GateResult:
    """Parse and check the records, summary and SVG of one sweep."""
    from sixlasso.cli import InputError, parse_records_csv

    result = GateResult(attempted=expected_trials(spec))
    for path in (summary_path, svg_path):
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            result.problems.append(f"missing or empty output {os.path.basename(path)}")
    try:
        with open(records_path, encoding="utf-8") as handle:
            text = handle.read()
        result.records = parse_records_csv(text)
    except (OSError, InputError, ValueError) as exc:
        result.failed = result.attempted
        result.problems.append(f"records unreadable: {exc}")
        return result
    # every column but the last (runtime_ms) must repeat bit-for-bit
    result.stripped = [line.rsplit(",", 1)[0] for line in text.splitlines()]

    seen = set()
    for rec in result.records:
        why = record_problems(rec, spec, require_converged)
        result.unconverged += rec.estimator == "lasso" and not rec.converged
        if not 0 <= rec.trial_id < result.attempted or rec.trial_id in seen:
            why.append("unexpected or duplicate trial id")
        seen.add(rec.trial_id)
        if why:
            result.failed += 1
            result.problems.append(f"trial {rec.trial_id}: " + "; ".join(why))
    missing = result.attempted - len(seen & set(range(result.attempted)))
    if missing:
        result.failed += missing
        result.problems.append(f"{missing} trials missing from the records")
    result.failed = min(result.failed, result.attempted)
    return result


def shape_problems(records) -> list[str]:
    """The paper's figure-1 shape, on medians over every record given.

    The lasso's median direction error at the largest n is at most half
    that at the smallest n.  The pv/lasso ratio of criterion 9 is left out:
    with the 5 reps of a run, its median fell below 0.5 on some seeds.
    """
    ns = sorted({r.n for r in records if r.estimator == "lasso"})
    if not ns:
        return ["no lasso records for the shape check"]

    def median(n):
        return float(np.median([r.metrics.direction_error for r in records
                                if r.estimator == "lasso" and r.n == n]))

    lo, hi = median(ns[0]), median(ns[-1])
    if hi <= 0.5 * lo:
        return []
    return [f"lasso error did not halve: n={ns[0]} {lo:.4f} -> n={ns[-1]} {hi:.4f}"]
