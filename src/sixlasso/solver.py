"""Constrained least squares on the l1 ball, plus the linear-correlation baseline.

fit_lasso minimizes (1/n)||y - X beta||_2^2 subject to ||beta||_1 <= radius by
projected gradient descent with exact l1-ball projection.  pv_linear_fit
maximizes <X'y, beta> over the intersection of an l1 ball and the unit l2
ball, the classical one-bit recovery baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadius, ZeroGradient, ZeroMatrix
from .model import Dataset

FIXED_LIPSCHITZ = "fixed_lipschitz"
BACKTRACKING = "backtracking"

_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient settings.

    tol is the relative objective-change threshold that triggers the
    convergence check; cert_tol is the fixed-point residual
    ||beta - P(beta - grad/L)||_2 a fit must additionally satisfy before it
    is flagged converged.  step_rule "fixed_lipschitz" restarts every
    iteration from the 1/L step (shrinking transiently when it overshoots);
    "backtracking" keeps the shrunk step for later iterations.
    """

    tol: float = 1e-9
    max_iter: int = 5000
    step_rule: str = FIXED_LIPSCHITZ
    power_iters: int = 100
    backtrack_shrink: float = 0.5
    cert_tol: float = 1e-6

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.backtrack_shrink < 1.0:
            raise ValueError("backtrack_shrink must be in (0, 1)")
        if self.step_rule not in (FIXED_LIPSCHITZ, BACKTRACKING):
            raise ValueError(f"unknown step_rule {self.step_rule!r}")
        if self.power_iters < 1:
            raise ValueError("power_iters must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    objective is (1/n)||y - X beta_hat||_2^2 recomputed from the final
    iterate; fp_residual is the projected-gradient fixed-point residual at
    beta_hat (the optimality certificate); objective_path records the
    accepted objective value at every iteration (non-increasing).
    """

    beta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    radius: float
    l2_norm: float
    fp_residual: float
    objective_path: np.ndarray


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}.

    Sort-and-threshold: sort |v| descending, find the largest k with
    |v|_(k) > (sum of the k largest - radius)/k, and soft-threshold at that
    level.  Points already inside the ball (boundary included) are returned
    unchanged.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be >= 0, got {radius}")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cum = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    hits = np.nonzero(u > (cum - radius) / ks)[0]
    # radius >= ulp(max|v|) guarantees k=1 qualifies; below that (incl. radius
    # 0) thresholding at the top magnitude is the exact projection
    k = hits[-1] if hits.size else 0
    theta = (cum[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def lipschitz_estimate(X: np.ndarray, iters: int = 100) -> float:
    """Safeguarded largest eigenvalue of (2/n) X'X by power iteration.

    Starts from the normalized all-ones vector and inflates the converged
    Rayleigh estimate by 1.05.  If the start vector happens to lie in the
    null space, deterministically falls back to coordinate vectors.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a nonempty 2-d array")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.any(X):
        raise ZeroMatrix("X is identically zero")
    n, p = X.shape

    def basis(j):
        e = np.zeros(p)
        e[j] = 1.0
        return e

    def run(v):
        lam = 0.0
        for _ in range(iters):
            w = (2.0 / n) * (X.T @ (X @ v))
            lam = np.linalg.norm(w)
            if lam == 0.0:
                return None
            v = w / lam
        return lam

    lam = run(np.ones(p) / np.sqrt(p))
    j = 0
    while lam is None and j < p:
        # all-ones start fell in the null space; coordinate vectors cannot all do so
        lam = run(basis(j))
        j += 1
    if lam is None:
        raise ZeroMatrix("power iteration found no nonzero direction")
    return 1.05 * lam


def _objective(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    r = X @ beta - y
    return float(r @ r) / X.shape[0]


def fit_lasso(data: Dataset, radius: float, config: SolverConfig | None = None) -> FitResult:
    """Solve min (1/n)||y - X beta||_2^2 s.t. ||beta||_1 <= radius.

    Projected gradient from beta = 0 with step 1/L (L from
    lipschitz_estimate).  Every accepted step is forced non-increasing in the
    objective by shrinking the step when needed, so objective_path is
    monotone.  Termination: the relative objective decrease drops below
    config.tol and the fixed-point certificate passes (converged=True), the
    iterate stops moving entirely, or max_iter is hit (converged=False
    unless the certificate happens to hold).

    The (1/n) normalization does not move the argmin of the unnormalized
    residual sum; it keeps step sizes O(1) across sample sizes.  A NaN or
    infinite entry in X or y raises ValueError.
    """
    if config is None:
        config = SolverConfig()
    if radius < 0:
        raise NegativeRadius(f"radius must be >= 0, got {radius}")
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    n, p = X.shape

    L = lipschitz_estimate(X, config.power_iters)
    base_step = 1.0 / L

    beta = np.zeros(p)
    resid = -y.copy()  # X @ 0 - y
    f = float(resid @ resid) / n
    path = [f]
    step = base_step
    converged = False
    iterations = 0

    def cert_residual(b, g):
        return float(np.linalg.norm(b - project_l1_ball(b - base_step * g, radius)))

    grad = (2.0 / n) * (X.T @ resid)
    for iterations in range(1, config.max_iter + 1):
        if config.step_rule == FIXED_LIPSCHITZ:
            step = base_step
        candidate = project_l1_ball(beta - step * grad, radius)
        cand_resid = X @ candidate - y
        f_new = float(cand_resid @ cand_resid) / n
        backtracks = 0
        while f_new > f and backtracks < _MAX_BACKTRACKS:
            step *= config.backtrack_shrink
            candidate = project_l1_ball(beta - step * grad, radius)
            cand_resid = X @ candidate - y
            f_new = float(cand_resid @ cand_resid) / n
            backtracks += 1
        if f_new > f:
            # no non-increasing step found: numerically stationary
            path.append(f)
            converged = cert_residual(beta, grad) <= config.cert_tol
            break
        moved = not np.array_equal(candidate, beta)
        rel_drop = (f - f_new) / max(f, 1e-300)
        beta, resid, f = candidate, cand_resid, f_new
        path.append(f)
        grad = (2.0 / n) * (X.T @ resid)
        if rel_drop < config.tol:
            if cert_residual(beta, grad) <= config.cert_tol:
                converged = True
                break
            if not moved:
                break  # fixed point reached but certificate fails: give up honestly
    else:
        last_drop = (path[-2] - f) / max(path[-2], 1e-300)
        converged = last_drop < config.tol and cert_residual(beta, grad) <= config.cert_tol

    final_obj = _objective(X, y, beta)
    return FitResult(
        beta_hat=beta,
        objective=final_obj,
        iterations=iterations,
        converged=converged,
        radius=float(radius),
        l2_norm=float(np.linalg.norm(beta)),
        fp_residual=cert_residual(beta, (2.0 / n) * (X.T @ (X @ beta - y))),
        objective_path=np.asarray(path),
    )


def pv_linear_fit(data: Dataset, l1_radius: float) -> np.ndarray:
    """Maximize <X'y, beta> over ||beta||_1 <= l1_radius, ||beta||_2 <= 1.

    With g = X'y: if g/||g||_2 is already l1-feasible it is the exact
    maximizer.  Otherwise bisect a soft-threshold level theta on
    w(theta) = soft(g, theta)/||soft(g, theta)||_2 until ||w||_1 hits the
    radius.  When tied entries of |g| make ||w||_1 plateau short of the
    radius, the plateau point is scaled onto the l1 sphere, which is the
    symmetric maximizer on the degenerate face.
    """
    if l1_radius < 1.0:
        raise ValueError(f"l1_radius must be >= 1 (got {l1_radius}); "
                         "smaller radii reduce to a single l1-ball vertex")
    g = np.asarray(data.X, dtype=float).T @ np.asarray(data.y, dtype=float)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        raise ZeroGradient("X'y = 0: no directional information in the data")
    w = g / gnorm
    if np.abs(w).sum() <= l1_radius:
        return w
    lo, hi = 0.0, float(np.abs(g).max())
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        sv = np.sign(g) * np.maximum(np.abs(g) - theta, 0.0)
        nv = np.linalg.norm(sv)
        if nv == 0.0:
            hi = theta
            continue
        w = sv / nv
        l1 = np.abs(w).sum()
        if abs(l1 - l1_radius) <= 1e-9:
            return w
        if l1 > l1_radius:
            lo = theta
        else:
            hi = theta
    if np.abs(w).sum() > l1_radius:
        w = w * (l1_radius / np.abs(w).sum())
    return w
