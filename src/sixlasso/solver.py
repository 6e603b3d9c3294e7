"""Constrained least squares on the l1 ball, plus the linear-correlation baseline.

fit_lasso minimizes (1/n)||y - X beta||_2^2 subject to ||beta||_1 <= radius by
FISTA (accelerated projected gradient, Beck & Teboulle 2009) with exact
l1-ball projection and a function-value restart (O'Donoghue & Candes 2015).
pv_linear_fit maximizes <X'y, beta> over the intersection of an l1 ball and
the unit l2 ball, the classical one-bit recovery baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadius, ZeroGradient, ZeroMatrix
from .model import Dataset

_MAX_BACKTRACKS = 60
_CERT_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """FISTA stopping settings.

    tol is the relative objective decrease below which the fit checks its
    certificate and may stop; max_iter caps the iterations.  Every iteration
    takes the 1/L step from the extrapolated point; when that would raise
    the objective, the momentum restarts and the step from the current
    iterate is halved while it would still raise it.
    """

    tol: float = 1e-9
    max_iter: int = 5000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    objective is (1/n)||y - X beta_hat||_2^2 at the final iterate;
    fp_residual is the projected-gradient fixed-point residual
    ||beta_hat - P(beta_hat - grad/L)||_2 (the optimality certificate);
    converged is true when the fit stopped on its own, not by running out of
    max_iter, and fp_residual <= 1e-6; objective_path records the accepted
    objective value at every iteration (non-increasing: the restart rejects
    any extrapolated step that would raise it).
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


def fit_lasso(data: Dataset, radius: float, config: SolverConfig | None = None) -> FitResult:
    """Solve min (1/n)||y - X beta||_2^2 s.t. ||beta||_1 <= radius.

    FISTA from beta = 0 with step 1/L (L from lipschitz_estimate): each
    iteration takes the projected step from the extrapolated point
    z = beta + ((t - 1)/t')(beta - beta_prev).  z's residual is a
    combination of the last two, so an iteration costs one X @ and one
    X.T @ product.  When the step from z would raise the objective, the
    momentum restarts (t = 1, z = beta) and the step from beta is halved
    while it still would, so every accepted step is non-increasing and
    objective_path is monotone.  The fit stops early when no halved step
    keeps the objective from rising, or when the relative objective decrease
    drops below config.tol and either the fixed-point certificate passes or
    the iterate stopped moving.  converged is true only for an early stop
    whose certificate passes; a fit that runs out of max_iter is never
    converged.

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

    base_step = 1.0 / lipschitz_estimate(X)

    def gradient(r):
        return (2.0 / n) * (X.T @ r)

    def step_from(point, g, step):
        cand = project_l1_ball(point - step * g, radius)
        r = X @ cand - y
        return cand, r, float(r @ r) / n

    def cert_residual(b, g):
        return float(np.linalg.norm(b - project_l1_ball(b - base_step * g, radius)))

    beta = np.zeros(p)
    resid = -y.copy()  # X @ 0 - y
    f = float(resid @ resid) / n
    path = [f]

    # z is the extrapolated point each step starts from, and z is beta while
    # the momentum is zero; grad is the gradient at beta, or None until the
    # stop test, a restart or a halving needs it
    t, z, grad = 1.0, beta, gradient(resid)
    z_grad = grad
    fp_residual = None  # certificate at beta, once computed
    stopped = False
    for iterations in range(1, config.max_iter + 1):
        candidate, cand_resid, f_new = step_from(z, z_grad, base_step)
        if f_new > f:
            # function-value restart: drop the momentum and step from beta,
            # halving the step while it would still raise the objective
            t, step = 1.0, base_step
            if z is beta:
                step *= 0.5  # the 1/L step from beta has just failed
            elif grad is None:
                grad = gradient(resid)
            for _ in range(_MAX_BACKTRACKS):
                candidate, cand_resid, f_new = step_from(beta, grad, step)
                if f_new <= f:
                    break
                step *= 0.5
            if f_new > f:
                # no non-increasing step found: numerically stationary
                path.append(f)
                stopped = True
                break
        moved = not np.array_equal(candidate, beta)
        rel_drop = (f - f_new) / max(f, 1e-300)
        beta_prev, resid_prev = beta, resid
        beta, resid, f = candidate, cand_resid, f_new
        path.append(f)
        grad = None
        fp_residual = None
        if rel_drop < config.tol:
            grad = gradient(resid)
            fp_residual = cert_residual(beta, grad)
            # a fixed point whose certificate fails gives up honestly
            if fp_residual <= _CERT_TOL or not moved:
                stopped = True
                break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        t = t_next
        if mom == 0.0:
            z = beta
            if grad is None:
                grad = gradient(resid)
            z_grad = grad
        else:
            z = beta + mom * (beta - beta_prev)
            # X z - y from the last two residuals, with no X @ product
            z_grad = gradient(resid + mom * (resid - resid_prev))
    if fp_residual is None:
        if grad is None:
            grad = gradient(resid)
        fp_residual = cert_residual(beta, grad)

    return FitResult(
        beta_hat=beta,
        objective=f,
        iterations=iterations,
        converged=stopped and fp_residual <= _CERT_TOL,
        radius=float(radius),
        l2_norm=float(np.linalg.norm(beta)),
        fp_residual=fp_residual,
        objective_path=np.asarray(path),
    )


def pv_linear_fit(data: Dataset, l1_radius: float) -> np.ndarray:
    """Maximize <X'y, beta> over ||beta||_1 <= l1_radius, ||beta||_2 <= 1.

    With g = X'y and R = l1_radius: if g/||g||_2 is already l1-feasible it
    is the exact maximizer.  Otherwise the maximizer is
    w = soft(g, theta)/||soft(g, theta)||_2 with ||w||_1 = R.  Sort |g|
    descending; with the top k entries active, of mean m and variance v,
    ||soft||_1 = R ||soft||_2 solves to theta_k = m - R sqrt(v/(k - R^2)).
    The active count is the smallest k > R^2 whose theta_k is at least the
    (k+1)-th largest |g|, as in the sort-and-threshold of project_l1_ball.
    When at least R^2 entries tie for the largest |g|, no threshold reaches
    the l1 sphere, and the maximizer is that tied face scaled onto it.
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
    a = np.abs(g)
    u = np.sort(a)[::-1]
    r2 = l1_radius * l1_radius
    tied = np.count_nonzero(a == u[0])
    if tied >= r2:
        return np.where(a == u[0], np.sign(g), 0.0) * (l1_radius / tied)
    ks = np.arange(1, u.size + 1)
    d = u - u[0]  # shifted by the top value so the variance does not cancel
    mean_d = np.cumsum(d) / ks
    var = np.maximum(np.cumsum(d * d) / ks - mean_d * mean_d, 0.0)
    big = ks > r2
    theta = u[0] + mean_d[big] - l1_radius * np.sqrt(var[big] / (ks[big] - r2))
    below = np.append(u[1:], -np.inf)[big]
    k = np.argmax(theta >= below)
    w = np.sign(g) * np.maximum(a - theta[k], 0.0)
    return w / np.linalg.norm(w)
