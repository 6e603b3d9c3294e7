"""Error and diagnostic metrics for fitted directions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector
from .model import Dataset

_ZERO_NORM = 1e-300


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
    antipodal ones.  Raises ZeroVector on a numerically zero argument
    (harness callers record the degenerate value 2 instead).
    """
    bh = np.asarray(beta_hat, dtype=float)
    bs = np.asarray(beta_star, dtype=float)
    nh, ns = np.linalg.norm(bh), np.linalg.norm(bs)
    if nh <= _ZERO_NORM or ns <= _ZERO_NORM:
        raise ZeroVector("direction undefined for a zero vector")
    return float(np.linalg.norm(bh / nh - bs / ns))


def norm_gap(beta_hat: np.ndarray, lam: float) -> float:
    """Signed gap ||beta_hat||_2 - lambda (how far the fitted scale sits from
    the link constant it concentrates around)."""
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    return float(np.linalg.norm(np.asarray(beta_hat, dtype=float)) - lam)


def support_metrics(beta_hat: np.ndarray, beta_star: np.ndarray) -> tuple[float, float]:
    """Precision and recall of {j : |beta_hat_j| > 1e-6 max|beta_hat|}
    against the true support {j : beta*_j != 0}.

    The threshold only strips numerical dust (the projection already
    produces exact zeros).  An empty estimated support counts as
    precision 1.
    """
    bh = np.asarray(beta_hat, dtype=float)
    threshold = 1e-6 * float(np.max(np.abs(bh))) if bh.size else 0.0
    est = set(np.nonzero(np.abs(bh) > threshold)[0].tolist())
    true = set(np.flatnonzero(beta_star).tolist())
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
    bh = np.asarray(beta_hat, dtype=float)
    u = np.asarray(beta_star, dtype=float)
    u = u / np.linalg.norm(u)
    a = float(bh @ u)
    return np.array([a, float(np.linalg.norm(bh - a * u))])


def classify_accuracy(beta_hat: np.ndarray, test: Dataset) -> float:
    """Fraction of test rows with sign(x'beta_hat) equal to the label.

    sign(0) counts as +1.  Scale-invariant in beta_hat by construction.
    """
    bh = np.asarray(beta_hat, dtype=float)
    if np.linalg.norm(bh) <= _ZERO_NORM:
        raise ZeroVector("cannot classify with a zero coefficient vector")
    y = np.asarray(test.y, dtype=float)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("test labels must be +-1")
    pred = np.where(test.X @ bh >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == y))
