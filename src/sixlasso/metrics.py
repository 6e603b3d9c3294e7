"""Error and diagnostic metrics for fitted directions.

Every metric follows errors.py: a zero beta_star, or a numerically zero
beta_hat where the metric needs a direction, is degenerate data and raises
SixLassoError; a NaN or infinite entry in beta_hat, beta_star or a test
design, an empty test set and a lambda that is not finite and positive are
bad arguments and raise ValueError naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SixLassoError
from .model import Dataset

_ZERO_NORM = 1e-300


def _finite(name: str, v) -> np.ndarray:
    """v as a float array; a NaN or infinite entry is a ValueError naming it."""
    a = np.asarray(v, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite: it has NaN or infinite entries")
    return a


def _direction(beta_star) -> np.ndarray:
    """beta_star / ||beta_star||; a numerically zero beta_star is degenerate."""
    bs = _finite("beta_star", beta_star)
    ns = np.linalg.norm(bs)
    if ns <= _ZERO_NORM:
        raise SixLassoError("direction undefined for a zero vector: beta_star is zero")
    return bs / ns


@dataclass(frozen=True)
class TrialMetrics:
    """All per-trial metrics.

    direction_error lives in [0, 2]; norm_gap = ||beta_hat||_2 - lambda is
    signed; precision/recall/accuracy live in [0, 1].
    """

    direction_error: float
    raw_l2_error: float
    norm_beta_hat: float
    norm_gap: float
    support_precision: float
    support_recall: float
    test_accuracy: float


def direction_error(beta_hat: np.ndarray, beta_star: np.ndarray) -> float:
    """l2 distance between the unit-normalized estimate and truth.

    Scale-invariant in both arguments; 0 for aligned vectors, 2 for
    antipodal ones.  A numerically zero argument is degenerate data and
    raises SixLassoError (run_trial records the degenerate value 2
    instead).
    """
    bh = _finite("beta_hat", beta_hat)
    u = _direction(beta_star)
    nh = np.linalg.norm(bh)
    if nh <= _ZERO_NORM:
        raise SixLassoError("direction undefined for a zero vector: beta_hat is zero")
    return float(np.linalg.norm(bh / nh - u))


def norm_gap(beta_hat: np.ndarray, lam: float) -> float:
    """Signed gap ||beta_hat||_2 - lambda (how far the fitted scale sits from
    the link constant it concentrates around)."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    return float(np.linalg.norm(_finite("beta_hat", beta_hat)) - lam)


def support_metrics(beta_hat: np.ndarray, beta_star: np.ndarray) -> tuple[float, float]:
    """Precision and recall of {j : |beta_hat_j| > 1e-6 max|beta_hat|}
    against the true support {j : beta*_j != 0}.

    The threshold only strips numerical dust (the projection already
    produces exact zeros).  An empty estimated support counts as
    precision 1; an all-zero beta_star, with no support to recall, is
    degenerate and raises SixLassoError.
    """
    bh = _finite("beta_hat", beta_hat)
    true = set(np.flatnonzero(_finite("beta_star", beta_star)).tolist())
    if not true:
        raise SixLassoError("support metrics undefined: beta_star is zero")
    threshold = 1e-6 * float(np.max(np.abs(bh))) if bh.size else 0.0
    est = set(np.nonzero(np.abs(bh) > threshold)[0].tolist())
    hit = len(est & true)
    precision = hit / len(est) if est else 1.0
    recall = hit / len(true)
    return precision, recall


def plane_coordinates(beta_hat: np.ndarray, beta_star: np.ndarray) -> np.ndarray:
    """Coordinates (a, c) of beta_hat in an orthonormal basis (u, v) of the
    plane spanned by beta_star and beta_hat: u = beta_star/||beta_star||,
    a = <beta_hat, u> and c = ||beta_hat - a u|| >= 0.

    run_trial scores these on a 2-column test set; its docstring says why
    that is exact in distribution.
    """
    bh = _finite("beta_hat", beta_hat)
    u = _direction(beta_star)
    a = float(bh @ u)
    return np.array([a, float(np.linalg.norm(bh - a * u))])


def classify_accuracy(beta_hat: np.ndarray, test: Dataset) -> float:
    """Fraction of test rows with sign(x'beta_hat) equal to the label.

    sign(0) counts as +1.  Scale-invariant in beta_hat by construction.
    A numerically zero beta_hat is degenerate data and raises
    SixLassoError; labels other than +-1 and a test set with no rows raise
    ValueError.
    """
    bh = _finite("beta_hat", beta_hat)
    if np.linalg.norm(bh) <= _ZERO_NORM:
        raise SixLassoError("cannot classify with a zero coefficient vector")
    y = np.asarray(test.y, dtype=float)
    if y.size == 0:
        raise ValueError("test must have at least one row, got 0")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("test labels must be +-1")
    pred = np.where(_finite("test.X", test.X) @ bh >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == y))
