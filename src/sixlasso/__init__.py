"""Sparse direction recovery for binary single-index data via l1-constrained
least squares, with a seeded Monte Carlo harness.

Importing sixlasso sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless the environment already sets them, so BLAS runs
on one thread, in every thread of the sweep pool too.  The setting takes
effect only where sixlasso is imported before numpy.
"""

import os

# A sweep's reps run in parallel on SIXLASSO_THREADS threads, so that is the
# one source of parallelism.  A second BLAS thread buys no wall time at
# these sizes: it spins through the rest of a sweep once a product wakes it,
# and it makes the summation order, and so the last digit of lasso records,
# depend on the thread count.  This must run before numpy is first imported;
# a value the user exported is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del os, _var  # keeps both out of __all__

from .errors import SixLassoError
from .experiments import (
    SummaryRow,
    SweepSpec,
    TrialRecord,
    mix64,
    run_sweep,
    run_trial,
    summarize,
)
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
    link_mean,
    make_signal,
)
from .solver import (
    FitResult,
    fit_lasso,
    lipschitz_estimate,
    project_l1_ball,
    pv_linear_fit,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
