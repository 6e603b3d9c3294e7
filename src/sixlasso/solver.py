"""Constrained least squares on the l1 ball, plus the linear-correlation baseline.

fit_lasso minimizes (1/n)||y - X beta||_2^2 subject to ||beta||_1 <= radius by
FISTA (accelerated projected gradient, Beck & Teboulle 2009) with exact
l1-ball projection.  It starts at the fit's own Plan-Vershynin point: the pv
direction of X'y (E[yx] = lambda beta*, Plan & Vershynin 2016), scaled by the
exact line-search minimizer along it and capped at the l1 sphere, which lies
near where the lasso ends.  Its steps use an adaptive backtracked step 1/L
(Scheinberg, Goldfarb & Bai 2014) and a function-value restart (O'Donoghue &
Candes 2015).  Once the sign pattern of the iterate has held for 2
iterations it tries an exact finish: the closed-form minimizer on that
support and those signs (the active-set step of Osborne, Presnell &
Turlach 2000), from one LU solve with the Gram matrix X_S'X_S; there is no
finish when LAPACK reports that Gram singular.  The loop also tries it
when it stops.  A finish that fails the certificate but lowers the
objective becomes the iterate unless the loop has stopped, and the
momentum restarts from it.  It has one stop rule: the gradient-mapping
certificate ||beta - P(beta - grad/L)||_2 <= 1e-6, which the loop checks
whenever a step moves the iterate by at most 1e-6 and which the exact
finish must pass.  Every product with the support columns X_S, X_S'X_S
among them, runs over blocks of 256 rows, so a fit holds
O(n + p + 256|S| + |S|^2) floats beside X and never gathers X_S whole.
pv_linear_fit maximizes <X'y, beta> over the intersection of an l1 ball
and the unit l2 ball, the classical one-bit recovery baseline; its rule
also gives fit_lasso's start direction.

Both fits keep the precision X arrives in.  A float32 X, as
generate_dataset draws it, has its full products X'v (the gradient and
X'y) taken in float32, where they read half the bytes; everything else,
support products and the exact finish included, runs in float64 (the
mixed-precision split of Higham & Mary 2022).  A float64 X is fitted in
float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SixLassoError
from .model import Dataset

MAX_ITER = 5000  # fit_lasso's iteration cap
_CERT_TOL = 1e-6
_STEP_SHRINK = 0.8  # L is multiplied by this before each iteration's first step
_STABLE_ITERS = 2  # iterations a sign pattern holds before the exact finish is tried
_FINISH_SLACK = 1e-13  # relative objective rise an exact finish may show (rounding)
_ROW_BLOCK = 256  # rows of X_S gathered at a time: bounds the gather, keeps it in cache
# the partial sums of a float32 product stay below this: half float32's
# largest value, leaving room for rounding
_F32_SUM_MAX = float(np.finfo(np.float32).max) / 2


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    The norms of beta_hat are read off it; the radius is the caller's input.
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
    MAX_ITER iterations, and fp_residual <= 1e-6, the fit's only stop test;
    objective_path starts with the objective at the fit's start (the pv
    point, or 0; see fit_lasso), then records the accepted objective value
    at every iteration (an iteration that stops on a rounding rise of its
    step repeats the last value), plus one entry for every rejected exact
    finish the fit adopted and one last entry when an accepted exact finish
    ends the fit, so objective is its last entry (non-increasing: the
    restart rejects any extrapolated step that would raise it, a rejected
    finish is adopted only if it lowers it, and an accepted one may not
    raise it beyond rounding).
    """

    beta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    fp_residual: float
    lipschitz: float
    backtracks: int
    objective_path: np.ndarray


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}.

    v may have any shape with at least one axis: the ball is on all of its
    entries at once, and the result, of v's shape, is the projection of
    v.ravel() reshaped.
    Sort-and-threshold (Duchi, Shalev-Shwartz, Singer & Chandra 2008): sort
    |v| descending, find the largest k with
    |v|_(k) > (sum of the k largest - radius)/k, and soft-threshold at that
    level.  Points already inside the ball (boundary included) are returned
    unchanged, as a copy.  The thresholds and the result are built in place
    in two arrays beside the sorted |v|.

    A negative or NaN radius, a 0-d v, a NaN or infinite entry of v, and
    an l1 norm of v that overflows raise ValueError: each would otherwise
    give a silent NaN, a wrong point or numpy's own TypeError.
    The test reads the l1 norm the inside-the-ball check computes anyway,
    so a finite v pays nothing for it; an overflowing sum still raises
    numpy's overflow RuntimeWarning first, as the caller's np.errstate
    directs.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0 and not NaN, got {radius}")
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        raise ValueError("v must have at least one axis, got a 0-d array")
    a = np.abs(v)
    total = a.sum()
    if not math.isfinite(total):
        if np.isfinite(a).all():
            raise ValueError("the l1 norm of v overflows")
        raise ValueError("v must be finite: it has NaN or infinite entries")
    if total <= radius:
        return v.copy()
    u = np.sort(a, axis=None)[::-1]
    thresholds = u.cumsum()
    thresholds -= radius
    thresholds /= np.arange(1.0, u.size + 1.0)
    hits = (u > thresholds).nonzero()[0]
    # radius >= ulp(max|v|) guarantees k=1 qualifies; below that (incl. radius
    # 0) thresholding at the top magnitude is the exact projection
    a -= thresholds[hits[-1] if hits.size else 0]
    np.maximum(a, 0.0, out=a)
    a *= np.sign(v)
    return a


def _as_float(X) -> np.ndarray:
    """X as a float array: a float32 array stays float32, anything else is
    float64; each is X itself when it is such an array already."""
    X = np.asarray(X)
    return X if X.dtype == np.float32 else np.asarray(X, dtype=float)


def lipschitz_estimate(X: np.ndarray) -> float:
    """Start for the step constant: the largest diagonal entry of (2/n) X'X.

    That is (2/n) times the largest squared column norm of X, a lower bound
    on the top eigenvalue of (2/n) X'X that scales by c^2 under X -> cX.  It
    is only fit_lasso's first step constant, which the fit then shrinks or
    raises as its steps allow.  An all-zero X, or one whose squares underflow
    to a start of 0, is degenerate data and raises SixLassoError: doubling
    could never lift L off 0, and the fit would backtrack forever.  A start
    that is not finite raises ValueError, since a certificate at L = inf
    would be vacuous: its message names the NaN or infinite entries of X
    when there are any, and says the squared column norms overflow
    otherwise.  This pass over X is the one finiteness check fit_lasso
    makes of it.  A float32 X is read as it is: its squares are summed in
    float64 a buffer at a time, with no float64 copy of X.
    """
    X = _as_float(X)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a nonempty 2-d array")
    with np.errstate(over="ignore"):
        L = (2.0 / X.shape[0]) * float(np.einsum("ij,ij->j", X, X, dtype=float).max())
    if L == 0.0:
        raise SixLassoError("X is identically zero, or its squares underflow to 0")
    if not np.isfinite(L):
        # a NaN or inf entry makes its column's sum of squares non-finite too
        if not np.isfinite(X).all():
            raise ValueError("X must be finite: it has NaN or infinite entries")
        raise ValueError("the squared column norms of X overflow")
    return L


def _float_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """data's X as a float array (_as_float: float32 or float64) and y as a
    float64 array, each the array itself when it is one already.  An X
    that is not 2-d or has no rows or no columns, or a y that is not 1-d
    with one value per row of X, raises ValueError naming it."""
    X = _as_float(data.X)
    y = np.asarray(data.y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-d array, got shape {X.shape}")
    if X.size == 0:
        raise ValueError(f"X must be a nonempty 2-d array, got shape {X.shape}")
    if y.shape != X.shape[:1]:
        raise ValueError(f"y must be 1-d with one value per row of X: X has "
                         f"{X.shape[0]} rows, y has shape {y.shape}")
    return X, y


def _xt(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X'v as a float64 vector, multiplied in X's precision.

    A float64 X gives X.T @ v itself.  A float32 X multiplies a float32
    copy of v / max|v|, which the cast can neither overflow nor flush to
    0, and the float64 result is scaled back by max|v|: one n-vector cast
    per product.  An all-zero v gives 0, and a v with a NaN or infinite
    entry gives NaN.
    """
    if X.dtype == np.float64:
        return X.T @ v
    scale = float(np.abs(v).max())
    if not 0.0 < scale < math.inf:
        return np.full(X.shape[1], scale * 0.0)  # 0, or NaN
    v32 = np.divide(v, scale, out=np.empty(v.shape, X.dtype), casting="same_kind")
    return np.multiply(X.T @ v32, scale, dtype=float)


def _support_product(X: np.ndarray, S: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X[:, S] @ v in float64, gathered and multiplied one row block at a
    time (a float32 block is upcast first).

    Each output entry is the same dot product as in the one-shot product,
    so the result is bit-identical to it.
    """
    out = np.empty(X.shape[0])
    for i in range(0, X.shape[0], _ROW_BLOCK):
        np.dot(X[i:i + _ROW_BLOCK, S].astype(float, copy=False), v,
               out=out[i:i + _ROW_BLOCK])
    return out


def _extrapolate(cur: np.ndarray, prev: np.ndarray, mom: float) -> np.ndarray:
    """cur + mom (cur - prev), the momentum step, written over prev (which
    the caller no longer needs) and returned."""
    out = np.subtract(cur, prev, out=prev)
    out *= mom
    out += cur
    return out


def fit_lasso(data: Dataset, radius: float) -> FitResult:
    """Solve min (1/n)||y - X beta||_2^2 s.t. ||beta||_1 <= radius.

    FISTA from the pv point of the fit's own data.  With g = X'y and w the
    pv direction of g at l1 radius max(radius, 1) (pv_linear_fit's rule,
    which takes no radius below 1), the start is beta_0 = t w with
    t = <Xw, y>/||Xw||^2, the exact minimizer of the objective along w,
    capped at radius/||w||_1 so that beta_0 lies in the ball (on its
    sphere, to rounding, where the cap binds).  Xw is a support product
    over w's support, so the start costs that product and the one gradient
    at beta_0.  The start stays at 0 when ||g||_2 is 0 or
    not finite, or when t is not above 0 (a NaN included); the gradient
    there is g (-2/n).  By the linear equivalence E[yx] = lambda beta*
    (Plan & Vershynin 2016) beta_0 sits near the lasso's end, along beta*
    with a norm near lambda, so the first accelerated steps do not spread
    the support over hundreds of columns, as they do from 0 when n << p.
    The start depends on (X, y, radius) alone, and on (cX, cy) it is the
    same point up to rounding.  objective_path[0] is the objective at the
    start.

    Each iteration takes the projected step
    x+ = P(s - grad(s)/L) from s, the extrapolated point
    z = beta + ((t - 1)/t')(beta - beta_prev), whose residual and gradient
    are the same combinations of the last two, so an accepted iteration
    costs one X @ and one X.T @ product.  X's columns are held contiguous
    (a row-major X is copied), and the X @ product touches only the
    columns of x+'s support, gathered 256 rows at a time.  L starts at
    lipschitz_estimate(X), the largest diagonal entry of (2/n)X'X, a lower
    bound on its top eigenvalue.  Before each iteration's first step it is
    multiplied by 0.8, and it is doubled, and the step retried from s,
    until the step passes the sufficient-decrease test
    (2/n)||X(x+ - s)||^2 <= L||x+ - s||^2 (exact for this quadratic, and
    free: X(x+ - s) is the change in residual).  So L tracks the curvature
    on the iterate's support, which for n << p is a fraction of the top
    eigenvalue of (2/n)X'X.  When the step from z raises the objective, the
    momentum restarts (t = 1, s = beta); a sufficient-decrease step from
    beta cannot raise it, so objective_path is monotone.

    A step makes few p-vectors: s - grad/L is formed in one array, which
    project_l1_ball reads and leaves alone, the gradient (2/n)X'r is scaled
    in place, and z and its residual and gradient are extrapolated in place
    over the last iterate's arrays, which nothing reads after that.  The
    sign pattern of beta is tracked on its support: the support S of x+,
    which the X @ product needs anyway, and sign(beta_S), compared with the
    last iteration's S and signs (the start's, at the first iteration).
    None of this changes a floating-point operation or its order.

    The exact finish: with S = supp(beta), sigma = sign(beta_S) and
    |S| <= n, X_S'X_S and X_S'y are summed over blocks of 256 rows, and
    one LU solve against X_S'y and sigma gives u and w; there is no finish
    when LAPACK reports X_S'X_S singular.  A nearly singular X_S'X_S still
    gives a point, which the tests below accept or drop like any other.
    If sigma'u <= radius, b = u, the least-squares point on S; otherwise
    b = u - nu w with sigma'b = radius, the solution of the KKT system
    [X_S'X_S sigma; sigma' 0][b; nu] = [X_S'y; radius].
    (Choosing by the sign of nu, not by whether ||beta||_1 < radius, keeps
    (X, y) and (cX, cy) on the same branch when beta sits on the sphere to
    rounding.)  The finish has one call site, at the end of an iteration:
    it is tried whenever a sign pattern has held for 2 iterations and
    whenever the loop stops on its own.
    b is accepted only if it and its l1 norm are finite, lies in the ball
    once projected onto it (rounding), passes the certificate, and changes
    the objective by
    Delta = <grad, b - beta> + (1/n)||X(b - beta)||^2 <= 1e-13 f
    (computed from X(b - beta), not as a difference of rounded
    objectives).  A b that fails the objective test is dropped at once,
    before its gradient and certificate are computed: its Delta is above
    0, so it could not be adopted either.  An accepted finish ends the
    fit, converged, and appends its objective to objective_path.  A
    finish the certificate rejects is still adopted when the loop has not
    stopped, Delta < 0 and its objective is at most f: b becomes the
    iterate, with the residual and gradient the certificate computed, its
    objective is appended to objective_path, the momentum restarts
    (t = 1, z = b) and the sign pattern's age starts again from 0.  At a
    stop a rejected finish is dropped, so a stop whose certificate passed
    ends converged at its own iterate.

    Each iteration makes one stop decision.  The one stop test of the
    loop is the certificate fp_residual <= 1e-6 at the new iterate, with
    the current L.  ||b - P(b - grad/L)|| does not fall as L falls, so a
    shrunk L only makes the test stricter.  It costs a projection, so it
    is checked only when the new iterate lies within 1e-6 of the point its
    step started from.  The loop also stops, and
    gives up honestly, when that distance is exactly 0 or when the step
    from beta rises by rounding (that iteration keeps beta and repeats its
    objective in objective_path); converged is true only when the
    certificate passes.  A fit that runs out of its MAX_ITER = 5000
    iterations is never converged.

    Precision: X keeps the dtype it arrives in, float32 or float64 (any
    other is copied to float64); y is float64.  With a float32 X, each
    full product X'v, the gradient's X'r and the start's X'y, multiplies
    a float32 copy of v / max|v| (so the cast neither overflows nor
    flushes v to 0) in float32 and scales the float64 result back by
    max|v|.  Everything else runs in float64: residuals, objectives,
    projections, the certificate, the support products X_S v (each
    256-row block of a float32 X_S is upcast before use) and the finish's
    X_S'X_S, X_S'y and LU solve.  So the gradient carries float32
    rounding, while every accept, stop and finish test is made in
    float64.  A float64 X is fitted in float64 throughout.

    Memory: beyond X (and its copy, if X is row-major) a fit holds
    O(n + p + 256|S| + |S|^2) floats: n- and p-vectors, one 256-row block
    of X_S (and its float32 gather, for a float32 X), and two |S| x |S|
    arrays in the finish: X_S'X_S and one block's product while summing
    (the product is freed as it is added), then X_S'X_S and the copy the
    LU solve factors.  It makes no n x p
    temporary: the finiteness check of X rides on lipschitz_estimate's
    column sums of squares.

    The (1/n) normalization does not move the argmin of the unnormalized
    residual sum; it keeps step sizes O(1) across sample sizes.  A radius
    that is negative or not finite raises ValueError, checked first, and so
    does an X that is not 2-d or has no rows or no columns, a y that is not
    1-d with one value per row of X (the shape check pv_linear_fit shares),
    a NaN or infinite entry in X or y, an X whose squared column norms
    overflow, a float32 X whose products could overflow float32 (sqrt(n)
    times its largest column norm reaches 1.7e38, half float32's range; its
    float64 copy fits) or a y whose squared norm overflows: each message
    names X, y or the radius.  An X that is
    identically zero, or whose squares all underflow to 0, is degenerate
    data and raises SixLassoError (lipschitz_estimate).
    """
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    X, y = _float_arrays(data)
    # contiguous columns, so that a row block of X_S reads runs of whole
    # columns: a no-op for generate_dataset's column-major X and for a row
    # prefix of it (a sweep fits the first n rows of its rep's draw; the
    # products then run with the draw's row count as leading dimension),
    # one copy for a row-major X
    if X.strides[0] != X.itemsize:
        X = np.asfortranarray(X)
    # one pass over y, as lipschitz_estimate makes over X: a NaN or infinite
    # entry makes y'y non-finite too
    with np.errstate(over="ignore"):
        yy = float(y @ y)
    if not math.isfinite(yy):
        if not np.isfinite(y).all():
            raise ValueError("y must be finite: it has NaN or infinite entries")
        raise ValueError("the squared norm of y overflows")
    n, p = X.shape

    L = lipschitz_estimate(X)  # raises on a NaN or infinite entry of X
    # a partial sum of the float32 product X_j'(v / max|v|) is at most
    # ||X_j||_2 sqrt(n) = n sqrt(L/2) (Cauchy-Schwarz)
    if X.dtype == np.float32 and not n * math.sqrt(L / 2.0) < _F32_SUM_MAX:
        raise ValueError("X is float32 and its products X'v could overflow float32: "
                         "pass X as float64")
    backtracks = 0

    def gradient(r):
        g = _xt(X, r)
        g *= 2.0 / n
        return g

    def gradient_step(point, g):
        """point - g/L in one new array."""
        w = g / L
        np.subtract(point, w, out=w)
        return w

    def step_from(point, point_resid, g):
        """The backtracked step from point: (x+, its support, its residual,
        its objective, ||x+ - point||_2)."""
        nonlocal L, backtracks
        while True:
            cand = project_l1_ball(gradient_step(point, g), radius)
            S = cand.nonzero()[0]
            r = _support_product(X, S, cand[S])
            r -= y
            d = cand - point
            d *= d
            dd = float(d.sum())
            dr = r - point_resid
            if dd == 0.0 or (2.0 / n) * float(dr @ dr) <= L * dd:
                return cand, S, r, float(r @ r) / n, math.sqrt(dd)
            L *= 2.0
            backtracks += 1

    def cert_residual(b, g):
        w = project_l1_ball(gradient_step(b, g), radius)
        w -= b  # P(b - g/L) - b: the negated residual has the same norm
        return float(np.linalg.norm(w))

    def exact_finish(b, S, sigma, r, g, fb):
        """The exact minimizer on b's support S and signs sigma, projected
        onto the ball, as (beta, residual, gradient, objective,
        certificate), or None.  Any point that comes back has passed the
        objective test, so it is accepted when its certificate is at most
        _CERT_TOL; a rejected one comes back only if it lowers the
        objective, for the loop to adopt."""
        if not 0 < S.size <= n:
            return None
        gram, xty = np.zeros((S.size, S.size)), np.zeros(S.size)
        with np.errstate(all="ignore"):
            for i in range(0, n, _ROW_BLOCK):
                block = X[i:i + _ROW_BLOCK, S].astype(float, copy=False)
                gram += block.T @ block
                xty += block.T @ y[i:i + _ROW_BLOCK]
                del block  # the next gather then does not overlap it
            # one LU solve; every sweep thread calls one-thread BLAS (see the
            # package docstring), so a serial and a pooled sweep get the same
            # bits
            try:
                u, w = np.linalg.solve(gram, np.column_stack((xty, sigma))).T
            except np.linalg.LinAlgError:  # LAPACK found the Gram singular
                return None
            # the multiplier of sigma'b <= radius is positive only where the
            # least-squares point lies beyond the face
            u = u - (max(sigma @ u - radius, 0.0) / (sigma @ w)) * w
            # a NaN, an infinity or an l1 norm that overflows, each of which
            # project_l1_ball refuses
            if not math.isfinite(np.abs(u).sum()):
                return None
            cand = np.zeros(p)
            cand[S] = u
            cand = project_l1_ball(cand, radius)
            d = cand[S] - b[S]
            Xd = _support_product(X, S, d)
            delta = float(g[S] @ d) + float(Xd @ Xd) / n
            if not delta <= _FINISH_SLACK * fb:
                # too high (or NaN) to accept, and not below 0, so not
                # adopted either: dropped before its gradient and certificate
                return None
            r_new = r + Xd
            g_new = gradient(r_new)
            cert = cert_residual(cand, g_new)
        f_new = float(r_new @ r_new) / n
        if cert <= _CERT_TOL or (delta < 0.0 and f_new <= fb):
            # fb + delta cancels to rounding (even below 0) where the fit
            # interpolates; the new residual does not, and the cap at fb
            # keeps objective_path monotone when delta > 0 by rounding (an
            # adopted finish has f_new <= fb, which the cap leaves alone)
            return cand, r_new, g_new, min(f_new, fb), cert
        return None

    # the pv start t w (see above), or 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X'y starts at 0
        xty = _xt(X, y)
        xty_norm = np.linalg.norm(xty)
    beta, t_start = np.zeros(p), 0.0
    if math.isfinite(xty_norm) and xty_norm > 0.0:
        w = _pv_direction(xty, xty_norm, max(radius, 1.0))
        S = w.nonzero()[0]
        xw = _support_product(X, S, w[S])
        with np.errstate(all="ignore"):
            t_start = min(float((xw @ y) / (xw @ xw)), radius / float(np.abs(w).sum()))
    if t_start > 0.0:  # False for a NaN too
        beta[S] = t_start * w[S]
        xw *= t_start
        resid = np.subtract(xw, y, out=xw)
    else:
        resid = -y  # X @ 0 - y
    grad = gradient(resid)
    f = float(resid @ resid) / n
    path = [f]

    # z is the extrapolated point each step starts from (beta while mom is 0)
    t, mom, z, z_resid, z_grad = 1.0, 0.0, beta, resid, grad
    # beta's sign pattern, as its support and the signs there, and its age in
    # iterations
    supp = np.flatnonzero(beta)
    signs, stable = np.sign(beta[supp]), 0
    fp_residual = None  # certificate at beta, once computed
    for iterations in range(1, MAX_ITER + 1):
        L *= _STEP_SHRINK
        candidate, S, cand_resid, f_new, step_len = step_from(z, z_resid, z_grad)
        if f_new > f and mom != 0.0:
            # function-value restart: drop the momentum and step from beta
            t = 1.0
            candidate, S, cand_resid, f_new, step_len = step_from(beta, resid, grad)
        # stationary if even a sufficient-decrease step from beta rose (rounding)
        stopped = f_new > f
        if not stopped:
            beta_prev, resid_prev, grad_prev = beta, resid, grad
            beta, resid, f = candidate, cand_resid, f_new
            grad = gradient(resid)
            new_signs = np.sign(beta[S])
            # compared as bytes: cheaper than np.array_equal here, and numpy's
            # integer comparison loops stay out of the process's resident code
            same = S.tobytes() == supp.tobytes() and new_signs.tobytes() == signs.tobytes()
            stable = stable + 1 if same else 0
            supp, signs = S, new_signs
            fp_residual = None
            if step_len <= _CERT_TOL:
                fp_residual = cert_residual(beta, grad)
                # a fixed point whose certificate fails gives up honestly
                stopped = fp_residual <= _CERT_TOL or step_len == 0.0
        path.append(f)
        if stopped or stable == _STABLE_ITERS:
            # every stop tries the finish too: a stop on a rounding rise can
            # come one iteration earlier on (cX, cy) than on (X, y)
            finish = exact_finish(beta, supp, signs, resid, grad, f)
            # an accepted finish ends the fit; a rejected one, which lowers
            # the objective, is adopted only if the loop goes on: at a stop
            # it is dropped, so a stop whose certificate passed stays converged
            if finish is not None and (finish[-1] <= _CERT_TOL or not stopped):
                beta, resid, grad, f, fp_residual = finish
                path.append(f)
                stopped = fp_residual <= _CERT_TOL
                if not stopped:  # adopted: restart the momentum from it
                    supp = np.flatnonzero(beta)
                    signs, stable = np.sign(beta[supp]), 0
                    t, mom, z, z_resid, z_grad = 1.0, 0.0, beta, resid, grad
                    continue
        if stopped:
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        t = t_next
        # beta_prev, resid_prev and grad_prev die here: z and its residual
        # and gradient take their arrays
        z = _extrapolate(beta, beta_prev, mom)
        z_resid = _extrapolate(resid, resid_prev, mom)
        z_grad = _extrapolate(grad, grad_prev, mom)
    if fp_residual is None:
        fp_residual = cert_residual(beta, grad)

    return FitResult(
        beta_hat=beta,
        objective=f,
        iterations=iterations,
        converged=stopped and fp_residual <= _CERT_TOL,
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

    fit_lasso starts along this maximizer at l1 radius max(radius, 1):
    both run the rule after X'y through one private helper.  X'y is taken
    in X's precision as in fit_lasso (float32 for a float32 X, on
    y / max|y|, with a float64 result), and the rule after it in float64.

    A NaN l1_radius, or one below 1, raises ValueError, and so does an X
    that is not 2-d or has no rows or no columns, a y that is not 1-d with
    one value per row of X (the shape check fit_lasso shares, its message
    naming X or y), or an X'y that is not finite (for a float32 X, also
    one whose float32 product X'(y / max|y|) overflows) or whose l2 norm
    overflows: the message says whether X or y has NaN or infinite entries
    or the product overflows.  X'y = 0 is degenerate data and raises SixLassoError.
    """
    if math.isnan(l1_radius):
        raise ValueError("l1_radius must not be NaN")
    if l1_radius < 1.0:
        raise ValueError(f"l1_radius must be >= 1 (got {l1_radius}); "
                         "smaller radii reduce to a single l1-ball vertex")
    X, y = _float_arrays(data)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        g = _xt(X, y)
        gnorm = np.linalg.norm(g)
    if not math.isfinite(gnorm):
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X'y is not finite: X or y has NaN or infinite entries")
        raise ValueError("X'y or its l2 norm overflows")
    if gnorm == 0.0:
        raise SixLassoError("X'y = 0: no directional information in the data")
    return _pv_direction(g, gnorm, l1_radius)


def _pv_direction(g: np.ndarray, gnorm: float, l1_radius: float) -> np.ndarray:
    """pv_linear_fit's maximizer for g = X'y, of finite l2 norm gnorm > 0,
    at l1_radius >= 1."""
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
