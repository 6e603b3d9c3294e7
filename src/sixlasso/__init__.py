"""Sparse direction recovery for binary single-index data via l1-constrained
least squares, with brute-force oracles and a seeded Monte Carlo harness."""

from .errors import (
    DimensionTooLarge,
    EmptyFeasibleSet,
    EmptyRecords,
    InvalidSparsity,
    LinkRangeError,
    NegativeRadius,
    NonPositiveLambda,
    SixLassoError,
    ZeroGradient,
    ZeroMatrix,
    ZeroVector,
)
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
    LINEAR,
    LOGISTIC,
    PROBIT,
    SIGN,
    Dataset,
    LinkFunction,
    TrueSignal,
    compute_lambda,
    compute_lambda_mc,
    generate_dataset,
    get_link,
    link_mean,
    make_signal,
    tabulated_link,
)
from .oracle import (
    GridSpec,
    oracle_lasso_small,
    oracle_project_l1,
    oracle_pv_linear,
    oracle_sphere_lasso,
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
