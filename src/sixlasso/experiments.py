"""Seeded Monte Carlo harness: sweep grids, per-rep seeds, aggregation.

Every data seed derives from the sweep's base seed and a repetition index,
so records are reproducible bit-for-bit no matter how (or whether) trials
are parallelized.  Each rep draws one nested training set of n_max =
max(n_grid) rows and one held-out set; cell (n, rep) fits the first n rows,
so every estimator and every n of a rep sees the same draws (common random
numbers across estimators and along the n axis).  One signal, drawn once
per sweep from its own seed stream, serves every rep.  A rep's cells run n
descending, and the pool takes a whole rep as one task, where
generate_dataset's two kept draws let every cell reuse the rep's two sets.

Reproducibility needs BLAS to sum in the same order in every process:
`import sixlasso` pins BLAS to one thread (see the package docstring), and
the pool's spawned workers inherit the setting.  A value above 1 that the
user exported for OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS,
MKL_NUM_THREADS) is kept, and so are the threads of a process that imported
numpy before sixlasso; lasso records may then differ from a one-thread run
in the last digit.
"""

from __future__ import annotations

import math
import operator
import os
import time
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import SixLassoError
from .metrics import (
    TrialMetrics,
    classify_accuracy,
    direction_error,
    norm_gap,
    plane_coordinates,
    support_metrics,
)
from .model import (
    LINK_KINDS,
    Dataset,
    compute_lambda,
    generate_dataset,
    make_signal,
)
from .solver import fit_lasso, pv_linear_fit

THREADS_ENV = "SIXLASSO_THREADS"

ESTIMATORS = ("lasso", "pv")

RADIUS_RULES = ("sqrt_s", "explicit")

_MASK64 = (1 << 64) - 1
_TEST_TAG = 0x74657374  # ascii "test": separates the held-out stream
_SIGNAL_TAG = 0x7369676E616C  # ascii "signal": separates the signal stream

# The held-out set lives in the plane of beta* and beta_hat: its first axis
# is beta*/||beta*||, its second the unit vector along the rest of beta_hat.
_PLANE = np.array([1.0, 0.0])


def mix64(x: int) -> int:
    """SplitMix64 finalizer: the 64-bit mixing step behind all derived seeds."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _integer(name: str, value) -> int:
    """value as an int; a float or other non-integer is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SweepSpec:
    """Every setting of one Monte Carlo sweep: the spec alone fixes its records.

    radius_rule picks the l1 budget per trial: "sqrt_s" (sqrt(s), the
    effective-sparsity radius) or "explicit" with radius_value.  estimators
    are canonicalized to ("lasso", "pv") order so that trial ids do not
    depend on input order.
    One s-sparse random-magnitude signal, drawn from the base seed, serves
    every trial of the sweep.  p, s, reps, base_seed, test_n and the n_grid
    entries must be integers (numpy integers included); a float such as
    50.7 is a ValueError, not truncated.  base_seed must lie in [0, 2^64),
    the range mix64 reads whole: outside it two seeds would give one sweep.

    test_n is the number of held-out rows each trial scores test_accuracy
    on.  The rows are drawn in the plane of beta* and beta_hat (two normals
    each, not p; see run_trial), which leaves the accuracy's distribution
    exactly as for test_n full p-dimensional rows.
    """

    p: int
    s: int
    n_grid: tuple[int, ...]
    link: str = "logistic"
    radius_rule: str = "sqrt_s"
    radius_value: float | None = None
    reps: int = 10
    base_seed: int = 0
    estimators: tuple[str, ...] = ("lasso",)
    test_n: int = 10_000

    def __post_init__(self):
        for name in ("p", "s", "reps", "base_seed", "test_n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "n_grid", tuple(_integer("n_grid entry", n)
                                                 for n in self.n_grid))
        requested = tuple(self.estimators)
        unknown = set(requested) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}; expected from {ESTIMATORS}")
        object.__setattr__(self, "estimators", tuple(e for e in ESTIMATORS if e in requested))
        if not self.estimators:
            raise ValueError(f"estimators must be a nonempty subset of {ESTIMATORS}")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError(f"n_grid must be strictly ascending, got {self.n_grid}")
        if min(self.n_grid) < 1:
            raise ValueError("sample sizes must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed}")
        if not 1 <= self.s <= self.p:
            raise ValueError(f"need 1 <= s <= p, got s={self.s}, p={self.p}")
        if self.radius_rule not in RADIUS_RULES:
            raise ValueError(f"unknown radius_rule {self.radius_rule!r}")
        if self.radius_rule == "explicit":
            if self.radius_value is None or not 0 < self.radius_value < np.inf:
                raise ValueError(f"explicit radius_rule needs a finite radius_value > 0, "
                                 f"got {self.radius_value}")
            if "pv" in self.estimators and self.radius_value < 1:
                raise ValueError(f"the pv estimator needs radius_value >= 1, "
                                 f"got {self.radius_value}")
        elif self.radius_value is not None:
            raise ValueError(f"radius_value is used only by radius_rule 'explicit', "
                             f"not {self.radius_rule!r}")
        if self.test_n < 1:
            raise ValueError("test_n must be >= 1")
        if self.link not in LINK_KINDS:
            raise ValueError(f"unknown link {self.link!r}; expected one of {LINK_KINDS}")


@dataclass(frozen=True)
class TrialRecord:
    """One trial's identity, its metrics, and solver diagnostics."""

    trial_id: int
    seed: int
    n: int
    p: int
    s: int
    link: str
    estimator: str
    radius: float
    metrics: TrialMetrics
    iterations: int
    converged: bool
    runtime_ms: float


@dataclass(frozen=True)
class SummaryRow:
    """Quantiles of one metric in one (estimator, n) cell."""

    estimator: str
    n: int
    metric: str
    q25: float
    median: float
    q75: float


def trial_id_for(spec: SweepSpec, n: int, rep: int, estimator: str) -> int:
    """Position of a trial in the canonical (n, rep, estimator) enumeration."""
    if n not in spec.n_grid:
        raise ValueError(f"n={n} is not in the sweep grid {spec.n_grid}")
    if not 0 <= rep < spec.reps:
        raise ValueError(f"rep={rep} outside [0, {spec.reps})")
    if estimator not in spec.estimators:
        raise ValueError(f"estimator {estimator!r} not in {spec.estimators}")
    i_n = spec.n_grid.index(n)
    i_e = spec.estimators.index(estimator)
    return (i_n * spec.reps + rep) * len(spec.estimators) + i_e


def rep_seed(spec: SweepSpec, rep: int) -> int:
    """Data seed of repetition `rep`, shared by every cell (n, rep).

    The base seed is mixed on its own first: mix64(base_seed ^ rep) would
    give base b, rep r and base b ^ 1, rep r ^ 1 one seed, so sweeps with
    neighbouring base seeds would share their data.
    """
    return mix64(mix64(spec.base_seed) ^ rep)


def signal_seed(seed: int) -> int:
    """Seed of the signal that goes with data seed `seed`: its own stream."""
    return mix64(seed ^ _SIGNAL_TAG)


def resolve_lambda(spec: SweepSpec) -> float:
    """Link constant E[F(Z)Z] of the sweep's link."""
    return compute_lambda(spec.link)


def resolve_radius(spec: SweepSpec) -> float:
    """The l1 radius of every lasso and pv fit of the sweep."""
    if spec.radius_rule == "explicit":
        return float(spec.radius_value)
    return float(np.sqrt(spec.s))


def sweep_signal(spec: SweepSpec) -> np.ndarray:
    """The signal beta* of the sweep, which every trial scores against."""
    return make_signal(spec.p, spec.s, signal_seed(spec.base_seed))


def _failed_metrics(lam: float) -> TrialMetrics:
    nan = float("nan")
    return TrialMetrics(
        direction_error=2.0,
        raw_l2_error=nan,
        norm_beta_hat=0.0,
        norm_gap=-lam,
        support_precision=1.0,
        support_recall=0.0,
        test_accuracy=nan,
    )


def run_trial(spec: SweepSpec, cell: tuple[int, int], estimator: str,
              *, signal: np.ndarray | None = None) -> TrialRecord:
    """Generate, fit, and measure one trial.

    cell is (n, rep_index).  signal, the sweep's beta* (sweep_signal), may
    be passed in so that the trials share one draw of it; when omitted it is
    rebuilt from the spec, so the result is a pure function of (spec, cell,
    estimator).  Either way a rep's trials share its two kept draws, which
    generate_dataset matches by value.
    A lasso fit runs to fit_lasso's fixed MAX_ITER cap; one that stops
    there unconverged is recorded with converged False.  At n < p a fit
    that ends strictly inside the l1 ball interpolates, its minimizers form
    a set, and the record shows the one FISTA reaches from the pv start
    (explicit radii well above lambda ||beta*||_1 do this, and so does the
    noiseless linear link at sqrt(s)).
    The trial fits the first n rows of its rep's draw, seeded by
    rep_seed(spec, rep), and is scored on the rep's held-out set (see the
    module docstring); the draws are read-only.
    Degenerate data (a SixLassoError from the fit or the metrics: an
    all-zero or underflowing design, X'y = 0, a zero fitted vector) gives a
    failed-trial record with direction_error pinned at 2; it never aborts a
    sweep.  A bad argument (ValueError, a negative radius among them) is
    not degenerate data: it propagates.

    test_accuracy scores beta_hat on spec.test_n held-out rows drawn in the
    plane of beta* and beta_hat rather than in R^p.  For x ~ N(0, I_p) and
    an orthonormal basis (u, v) of that plane with u along beta*, x'u and
    x'v are i.i.d. N(0, 1); the label depends on x only through x'u, and
    x'beta_hat = a x'u + c x'v with (a, c) = plane_coordinates(beta_hat,
    beta*).  Scoring (a, c) on 2-column rows labelled through their first
    column therefore has exactly the distribution of scoring beta_hat on
    p-column rows labelled through beta*.
    """
    n, rep = cell
    tid = trial_id_for(spec, n, rep, estimator)
    seed = rep_seed(spec, rep)
    lam = resolve_lambda(spec)
    radius = resolve_radius(spec)
    if signal is None:
        signal = sweep_signal(spec)

    drawn = generate_dataset(signal, spec.n_grid[-1], spec.link, seed)
    # the prefix view of the column-major draw: fit_lasso uses it in place
    train = Dataset(drawn.X[:n], drawn.y[:n])
    test = generate_dataset(_PLANE, spec.test_n, spec.link, mix64(seed ^ _TEST_TAG))
    if spec.link == "linear":
        # regression mode: score sign agreement against the sign of the response
        test = Dataset(test.X, np.where(test.y >= 0, 1.0, -1.0))

    t0 = time.perf_counter()
    try:
        if estimator == "lasso":
            fit = fit_lasso(train, radius)
            beta_hat, iterations, converged = fit.beta_hat, fit.iterations, fit.converged
        else:
            beta_hat = pv_linear_fit(train, radius)
            iterations, converged = 0, True
        prec, rec = support_metrics(beta_hat, signal)
        metrics = TrialMetrics(
            direction_error=direction_error(beta_hat, signal),
            raw_l2_error=float(np.linalg.norm(beta_hat - signal)),
            norm_beta_hat=float(np.linalg.norm(beta_hat)),
            norm_gap=norm_gap(beta_hat, lam),
            support_precision=prec,
            support_recall=rec,
            test_accuracy=classify_accuracy(plane_coordinates(beta_hat, signal), test),
        )
    except SixLassoError:
        metrics = _failed_metrics(lam)
        iterations, converged = 0, False
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    return TrialRecord(
        trial_id=tid, seed=seed, n=n, p=spec.p, s=spec.s, link=spec.link,
        estimator=estimator, radius=radius, metrics=metrics,
        iterations=iterations, converged=converged, runtime_ms=runtime_ms,
    )


def _run_rep(spec: SweepSpec, signal: np.ndarray, rep: int) -> list[TrialRecord]:
    """Every trial of repetition `rep`, n descending: one pool task."""
    return [run_trial(spec, (n, rep), est, signal=signal)
            for n in reversed(spec.n_grid) for est in spec.estimators]


def _thread_budget() -> int:
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        return max(0, int(raw))
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def run_sweep(spec: SweepSpec) -> list[TrialRecord]:
    """Run every (n, rep, estimator) trial of the sweep.

    The records are a function of spec alone, runtime_ms aside.
    SIXLASSO_THREADS sets the parallelism (unset, 0 or 1 = serial; k >= 2 =
    a pool of k spawned worker processes, whose BLAS runs on one thread),
    and the output, sorted by trial_id, is the same whichever way the
    trials were scheduled (see the module docstring).
    The sweep's signal is drawn once, here, and handed to every rep.
    Trials run rep by rep, n descending within a rep (the largest fit's
    temporaries come first, so the smaller ones reuse their memory), and
    each rep is one pool task, so a rep's trials run in one worker and
    share its two draws there; a pool therefore keeps at most `reps`
    workers busy.  The pool's modules (concurrent.futures, multiprocessing)
    are imported only when a pool runs, so a serial sweep does not pay
    their memory and import time.
    """
    workers = _thread_budget()
    task = partial(_run_rep, spec, sweep_signal(spec))
    if workers >= 2:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            per_rep = list(pool.map(task, range(spec.reps)))
    else:
        per_rep = map(task, range(spec.reps))
    return sorted((rec for records in per_rep for rec in records), key=lambda r: r.trial_id)


METRIC_FIELDS = tuple(f.name for f in fields(TrialMetrics))


def summarize(records: list[TrialRecord]) -> list[SummaryRow]:
    """Per-(estimator, n) quantiles of every metric.

    Quantiles use the "lower" interpolation convention (always an observed
    value) and are taken over the finite values, so a failed trial's NaN
    metrics drop out; a cell where every trial failed gives NaN.  Each
    group's finite values are sorted once, and its q-quantile is the order
    statistic at index floor(q (m - 1)) of its m values, which is what
    np.quantile(..., method="lower") returns.  Rows come out sorted by
    (estimator, n, metric order).  An empty list raises ValueError.
    """
    if not records:
        raise ValueError("records must not be empty: no records to summarize")
    cells: dict[tuple[str, int], list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault((rec.estimator, rec.n), []).append(rec)
    rows = []
    for (est, n) in sorted(cells):
        group = cells[(est, n)]
        for name in METRIC_FIELDS:
            vals = np.array([getattr(rec.metrics, name) for rec in group])
            vals = np.sort(vals[np.isfinite(vals)])
            last = vals.size - 1
            q25, med, q75 = (float(vals[math.floor(q * last)]) if vals.size else math.nan
                             for q in (0.25, 0.5, 0.75))
            rows.append(SummaryRow(est, n, name, q25, med, q75))
    return rows
