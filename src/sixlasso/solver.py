"""Constrained least squares on the l1 ball, plus the linear-correlation baseline.

fit_lasso minimizes (1/n)||y - X beta||_2^2 subject to ||beta||_1 <= radius by
FISTA (accelerated projected gradient, Beck & Teboulle 2009) with exact
l1-ball projection, an adaptive backtracked step 1/L (Scheinberg, Goldfarb &
Bai 2014) and a function-value restart (O'Donoghue & Candes 2015).  Once the
sign pattern of the iterate settles it tries an exact finish: the
closed-form minimizer on that support and those signs (the active-set step
of Osborne, Presnell & Turlach 2000), from one LAPACK Cholesky
factorization.  It has one stop rule: the
gradient-mapping certificate ||beta - P(beta - grad/L)||_2 <= 1e-6, which
the loop checks whenever a step moves the iterate by at most 1e-6 and which
the exact finish must pass.  pv_linear_fit maximizes <X'y, beta> over the
intersection of an l1 ball and the unit l2 ball, the classical one-bit
recovery baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadius, ZeroGradient, ZeroMatrix
from .model import Dataset

MAX_ITER = 5000  # default iteration cap of fit_lasso, run_trial, run_sweep and the CLI
_CERT_TOL = 1e-6
_STEP_SHRINK = 0.8  # L is multiplied by this before each iteration's first step
_STABLE_ITERS = 5  # iterations a sign pattern holds before the exact finish is tried
_FINISH_SLACK = 1e-13  # relative objective rise an exact finish may show (rounding)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    objective is (1/n)||y - X beta_hat||_2^2 at the final iterate;
    fp_residual is the projected-gradient fixed-point residual
    ||beta_hat - P(beta_hat - grad/L)||_2 (the optimality certificate);
    lipschitz is that L: the step constant the last step and the
    certificate used (it starts at lipschitz_estimate, the largest diagonal
    entry of (2/n)X'X, is shrunk by 0.8 before each iteration and doubled
    by every failed sufficient-decrease test, so it may end on either side
    of the start);
    backtracks is the number of failed sufficient-decrease tests;
    converged is true when the fit stopped on its own, not by running out of
    max_iter, and fp_residual <= 1e-6, the fit's only stop test;
    objective_path records the accepted objective value at every iteration,
    plus one last entry when the exact finish ends the fit (non-increasing:
    the restart rejects any extrapolated step that would raise it, and the
    finish is accepted only if it does not raise it beyond rounding).
    """

    beta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    radius: float
    l2_norm: float
    fp_residual: float
    lipschitz: float
    backtracks: int
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


def lipschitz_estimate(X: np.ndarray) -> float:
    """Start for the step constant: the largest diagonal entry of (2/n) X'X.

    That is (2/n) times the largest squared column norm of X, a lower bound
    on the top eigenvalue of (2/n) X'X that scales by c^2 under X -> cX.  It
    is only fit_lasso's first step constant, which the fit then shrinks or
    raises as its steps allow.  An all-zero X, or one whose squares underflow
    to a start of 0, raises ZeroMatrix: doubling could never lift L off 0,
    and the fit would backtrack forever.  A start that overflows raises
    ValueError, since a certificate at L = inf would be vacuous.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a nonempty 2-d array")
    with np.errstate(over="ignore"):
        L = (2.0 / X.shape[0]) * float(np.einsum("ij,ij->j", X, X).max())
    if L == 0.0:
        raise ZeroMatrix("X is identically zero, or its squares underflow to 0")
    if not np.isfinite(L):
        raise ValueError("the squared column norms of X overflow")
    return L


def _normal_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """Solve (A'A) Z = B, or None when A'A is not numerically positive definite.

    Cholesky A'A = C C' (LAPACK), then C V = B and C' Z = V.  BLAS runs on
    one thread in every sixlasso process (see the package docstring), so
    these level-3 calls give the same bits in a serial and a pooled sweep.
    """
    try:
        C = np.linalg.cholesky(A.T @ A)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(C.T, np.linalg.solve(C, B))


def fit_lasso(data: Dataset, radius: float, max_iter: int = MAX_ITER) -> FitResult:
    """Solve min (1/n)||y - X beta||_2^2 s.t. ||beta||_1 <= radius.

    FISTA from beta = 0.  Each iteration takes the projected step
    x+ = P(s - grad(s)/L) from s, the extrapolated point
    z = beta + ((t - 1)/t')(beta - beta_prev), whose residual and gradient
    are the same combinations of the last two, so an accepted iteration
    costs one X @ and one X.T @ product.  X's columns are held contiguous
    (a row-major X is copied), and the X @ product touches only the
    columns of x+'s support.  L starts at lipschitz_estimate(X), the
    largest diagonal entry of (2/n)X'X, a lower bound on its top
    eigenvalue.  Before each iteration's first step it is
    multiplied by 0.8, and it is doubled, and the step retried from s,
    until the step passes the sufficient-decrease test
    (2/n)||X(x+ - s)||^2 <= L||x+ - s||^2 (exact for this quadratic, and
    free: X(x+ - s) is the change in residual).  So L tracks the curvature
    on the iterate's support, which for n << p is a fraction of the top
    eigenvalue of (2/n)X'X.  When the step from z raises the objective, the
    momentum restarts (t = 1, s = beta); a sufficient-decrease step from
    beta cannot raise it, so objective_path is monotone.

    The exact finish: with S = supp(beta), sigma = sign(beta_S) and
    |S| <= n, one Cholesky factorization of X_S'X_S solves it against X_S'y
    and sigma, giving u and w (none when X_S'X_S is not numerically
    positive definite).  If sigma'u <= radius, b = u, the least-squares
    point on S; otherwise b = u - nu w with sigma'b = radius, the solution of
    the KKT system [X_S'X_S sigma; sigma' 0][b; nu] = [X_S'y; radius].
    (Choosing by the sign of nu, not by whether ||beta||_1 < radius, keeps
    (X, y) and (cX, cy) on the same branch when beta sits on the sphere to
    rounding.)  The finish is tried once whenever a sign pattern has held
    for 5 iterations, and once more whenever the loop stops on its own.
    b is accepted only if it is finite, lies in the ball once projected
    onto it (rounding), passes the certificate, and changes the objective
    by Delta = <grad, b - beta> + (1/n)||X(b - beta)||^2 <= 1e-13 f
    (computed from X(b - beta), not as a difference of rounded
    objectives).  An accepted finish ends the fit, converged, and appends
    its objective to objective_path.

    The one stop test of the loop is the certificate fp_residual <= 1e-6
    at the new iterate, with the current L.  ||b - P(b - grad/L)|| does not
    fall as L falls, so a shrunk L only makes the test stricter.  It costs
    a projection, so it is checked only when the new iterate lies within
    1e-6 of the point its step started from.  The loop also stops, and
    gives up honestly, when that distance is exactly 0 or when the step
    from beta rises by rounding; converged is true only when the
    certificate passes.  A fit that runs out of max_iter is never
    converged.

    The (1/n) normalization does not move the argmin of the unnormalized
    residual sum; it keeps step sizes O(1) across sample sizes.  A NaN or
    infinite entry in X or y, a non-finite radius, or max_iter < 1 raises
    ValueError, and so does an X whose squared column norms overflow; an X
    whose squares all underflow to 0 raises ZeroMatrix (lipschitz_estimate).
    """
    if not np.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius < 0:
        raise NegativeRadius(f"radius must be >= 0, got {radius}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # contiguous columns, so that X[:, S] reads whole columns: a no-op for
    # generate_dataset's column-major X and for a row prefix of it (a sweep
    # fits the first n rows of its rep's draw; the products then run with
    # the draw's row count as leading dimension), one copy for a row-major X
    X = np.asarray(data.X, dtype=float)
    if X.strides[0] != X.itemsize:
        X = np.asfortranarray(X)
    y = np.asarray(data.y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    n, p = X.shape

    L = lipschitz_estimate(X)
    backtracks = 0

    def gradient(r):
        return (2.0 / n) * (X.T @ r)

    def step_from(point, point_resid, g):
        """The backtracked step from point: (x+, its residual, its objective,
        ||x+ - point||_2)."""
        nonlocal L, backtracks
        while True:
            cand = project_l1_ball(point - g / L, radius)
            S = np.flatnonzero(cand)
            r = X[:, S] @ cand[S] - y
            dd = float(np.sum((cand - point) ** 2))
            dr = r - point_resid
            if dd == 0.0 or (2.0 / n) * float(dr @ dr) <= L * dd:
                return cand, r, float(r @ r) / n, np.sqrt(dd)
            L *= 2.0
            backtracks += 1

    def cert_residual(b, g):
        return float(np.linalg.norm(b - project_l1_ball(b - g / L, radius)))

    def exact_finish(b, r, g, fb):
        """(beta, objective, certificate) of the accepted exact minimizer on
        b's support and signs, or None."""
        S = np.flatnonzero(b)
        if not 0 < S.size <= n:
            return None
        sigma = np.sign(b[S])
        XS = X[:, S]
        with np.errstate(all="ignore"):
            solved = _normal_solve(XS, np.column_stack((XS.T @ y, sigma)))
            if solved is None:
                return None
            u, w = solved.T
            # the multiplier of sigma'b <= radius is positive only where the
            # least-squares point lies beyond the face
            u = u - (max(sigma @ u - radius, 0.0) / (sigma @ w)) * w
            if not np.isfinite(u).all():
                return None
            cand = np.zeros(p)
            cand[S] = u
            cand = project_l1_ball(cand, radius)
            d = cand[S] - b[S]
            Xd = XS @ d
            delta = float(g[S] @ d) + float(Xd @ Xd) / n
            r_new = r + Xd
            cert = cert_residual(cand, gradient(r_new))
        if cert <= _CERT_TOL and delta <= _FINISH_SLACK * fb:
            # fb + delta cancels to rounding (even below 0) where the fit
            # interpolates; the new residual does not, and the cap at fb
            # keeps objective_path monotone when delta > 0 by rounding
            return cand, min(float(r_new @ r_new) / n, fb), cert
        return None

    beta = np.zeros(p)
    resid = -y  # X @ 0 - y
    f = float(y @ y) / n
    grad = gradient(resid)
    path = [f]

    # z is the extrapolated point each step starts from (beta while mom is 0)
    t, mom, z, z_resid, z_grad = 1.0, 0.0, beta, resid, grad
    signs, stable = np.zeros(p), 0  # sign pattern of beta, and its age in iterations
    fp_residual = None  # certificate at beta, once computed
    stopped = False
    finished = None
    for iterations in range(1, max_iter + 1):
        L *= _STEP_SHRINK
        candidate, cand_resid, f_new, step_len = step_from(z, z_resid, z_grad)
        if f_new > f and mom != 0.0:
            # function-value restart: drop the momentum and step from beta
            t = 1.0
            candidate, cand_resid, f_new, step_len = step_from(beta, resid, grad)
        if f_new > f:
            # a sufficient-decrease step from beta rose by rounding: stationary
            path.append(f)
            stopped = True
            break
        beta_prev, resid_prev, grad_prev = beta, resid, grad
        beta, resid, f = candidate, cand_resid, f_new
        grad = gradient(resid)
        path.append(f)
        fp_residual = None
        if step_len <= _CERT_TOL:
            fp_residual = cert_residual(beta, grad)
            # a fixed point whose certificate fails gives up honestly
            if fp_residual <= _CERT_TOL or step_len == 0.0:
                stopped = True
                break
        new_signs = np.sign(beta)
        stable = stable + 1 if np.array_equal(new_signs, signs) else 0
        signs = new_signs
        if stable == _STABLE_ITERS:
            finished = exact_finish(beta, resid, grad, f)
            if finished is not None:
                stopped = True
                break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        t = t_next
        z = beta + mom * (beta - beta_prev)
        z_resid = resid + mom * (resid - resid_prev)
        z_grad = grad + mom * (grad - grad_prev)
    if stopped and finished is None:
        # every stop of the loop's own tries the finish: a stop on a rounding
        # rise can come one iteration earlier on (cX, cy) than on (X, y)
        finished = exact_finish(beta, resid, grad, f)
    if finished is not None:
        beta, f, fp_residual = finished
        path.append(f)
    if fp_residual is None:
        fp_residual = cert_residual(beta, grad)

    return FitResult(
        beta_hat=beta,
        objective=f,
        iterations=iterations,
        converged=stopped and fp_residual <= _CERT_TOL,
        radius=float(radius),
        l2_norm=float(np.linalg.norm(beta)),
        fp_residual=fp_residual,
        lipschitz=L,
        backtracks=backtracks,
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
