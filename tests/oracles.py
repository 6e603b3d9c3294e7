"""Brute-force references for desk-scale verification.

These are the reference implementations that acceptance criteria 1, 2, 3
and 6 compare against: the Monte Carlo link constant, the l1-ball
projection, the lasso solver and the sphere-constrained programs; and
the plain sort-and-threshold projection that project_l1_ball must match
bit for bit.  They live with the tests, and the installed package does
not ship them; nothing here is meant to be fast.  The exhaustive
searches scan a grid of resolution `step` (0 < step <= 0.1), are capped
at p <= P_MAX and break objective ties by the lexicographically smallest
point.
"""

from __future__ import annotations

import numpy as np

from sixlasso import Dataset, NegativeRadius, link_mean

P_MAX = 3
_CHUNK = 200_000
_MC_CHUNK = 1 << 20


def compute_lambda_mc(link: str, budget: int = 1_000_000,
                      seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of lambda = E[F(Z)Z] with its standard error.

    This is the independent cross-check for compute_lambda's closed forms
    and quadrature.  Returns (estimate, stderr).  The samples are drawn and
    summed in chunks of 2^20, so memory does not grow with the budget; the
    chunks continue one stream, so the draws are those of a single call.
    """
    if budget < 10_000:
        raise ValueError("Monte Carlo budget must be >= 10000 samples")
    rng = np.random.default_rng(seed)
    total = sumsq = 0.0
    for start in range(0, budget, _MC_CHUNK):
        z = rng.standard_normal(min(_MC_CHUNK, budget - start))
        v = link_mean(link, z) * z
        total += float(v.sum())
        sumsq += float(v @ v)  # single-pass second moment
    mean = total / budget
    var = max(sumsq - budget * mean * mean, 0.0) / (budget - 1)
    return mean, float(np.sqrt(var / budget))


def oracle_project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """l1-ball projection by breakpoint scan; independent of the sorted method.

    The soft-threshold excess S(theta) = sum_j max(|v_j| - theta, 0) is
    piecewise linear and decreasing in theta with breakpoints at the |v_j|;
    scan the segments for the one where S crosses the radius and solve the
    linear equation exactly on that segment.
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be >= 0, got {radius}")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    bps = np.unique(np.concatenate(([0.0], a)))
    theta = None
    for lo, hi in zip(bps[:-1], bps[1:]):
        s_lo = np.maximum(a - lo, 0.0).sum()
        s_hi = np.maximum(a - hi, 0.0).sum()
        if s_lo >= radius >= s_hi:
            slope = np.count_nonzero(a > lo)
            theta = lo + (s_lo - radius) / slope
            break
    assert theta is not None  # S(0) > radius >= 0 = S(max) guarantees a crossing
    return np.sign(v) * np.maximum(a - theta, 0.0)


def reference_project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """The sort-and-threshold l1-ball projection, a fresh array per step.

    project_l1_ball does the same floating-point operations in the same
    order in fewer arrays, so the two must agree bit for bit.
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
    k = hits[-1] if hits.size else 0
    theta = (cum[k] - radius) / (k + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _check_grid(p: int, step: float):
    if not 0.0 < step <= 0.1:
        raise ValueError("step must be in (0, 0.1]")
    if p > P_MAX:
        raise ValueError(f"exhaustive search supports p <= {P_MAX}, got p={p}")


def _axis_grid(radius: float, step: float) -> np.ndarray:
    # {-radius, -radius+step, ..., radius}; nested under step halving
    k = int(np.floor(2.0 * radius / step + 1e-12))
    return -radius + step * np.arange(k + 1)


def _lex_min(points: np.ndarray) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    return points[order[0]]


def _scan_best(candidates_iter, score_chunk, minimize: bool):
    """Stream chunks, keep the best score; ties resolved lexicographically.

    Every search streams a feasible point: the origin for the box searches,
    and the 2p axis points for the sphere once l1_cap >= l2_value.
    """
    best = np.inf if minimize else -np.inf
    best_points = None
    for chunk in candidates_iter:
        if chunk.shape[0] == 0:
            continue
        scores = score_chunk(chunk)
        idx = np.argmin(scores) if minimize else np.argmax(scores)
        val = scores[idx]
        better = val < best if minimize else val > best
        if better:
            best = val
            best_points = [chunk[scores == val]]
        elif val == best and best_points is not None:
            best_points.append(chunk[scores == val])
    return _lex_min(np.vstack(best_points)), float(best)


def _box_candidates(axis: np.ndarray, p: int, keep):
    """Yield feasible grid points of the p-fold product grid, lex order, chunked.

    Enumerates flat indices of the K^p product with the last coordinate
    fastest, so candidate order (and therefore tie-breaking) is
    lexicographic regardless of chunk size.
    """
    k = axis.size
    total = k ** p
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((flat.size, p), dtype=np.int64)
        rem = flat
        for j in range(p - 1, -1, -1):
            digits[:, j] = rem % k
            rem = rem // k
        block = axis[digits]
        yield block[keep(block)]


def oracle_lasso_small(data: Dataset, radius: float,
                       step: float = 0.01) -> tuple[np.ndarray, float]:
    """Exhaustive-grid minimizer of (1/n)||y - X beta||_2^2 on the l1 ball.

    Searches the cubic grid {-radius, -radius+step, ...}^p intersected with
    the l1 ball; the origin is always included so the search is total even
    when radius < step.  Returns (beta, objective at beta).
    """
    if radius < 0:
        raise NegativeRadius(f"radius must be >= 0, got {radius}")
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    n, p = X.shape
    _check_grid(p, step)
    axis = _axis_grid(radius, step)

    def keep(block):
        return np.abs(block).sum(axis=1) <= radius

    def score(block):
        r = block @ X.T - y  # rows: residuals per candidate
        return (r * r).sum(axis=1) / n

    def with_origin():
        yield np.zeros((1, p))
        yield from _box_candidates(axis, p, keep)

    beta, obj = _scan_best(with_origin(), score, minimize=True)
    return beta, obj


def _sphere_points(p: int, l2_value: float, step: float) -> np.ndarray:
    """Angle-grid points on the radius-l2_value sphere, plus exact axis points.

    Angle grids are multiples of `step` (nested under halving); the 2p
    signed axis points are appended exactly so boundary cases like
    l1_cap == l2_value keep their feasible vertices.
    """
    if p == 2:
        ang = step * np.arange(int(np.ceil(2.0 * np.pi / step)))
        ang = ang[ang < 2.0 * np.pi]
        pts = l2_value * np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        polar = step * np.arange(int(np.floor(np.pi / step)) + 1)
        polar = np.append(polar[polar <= np.pi], np.pi)
        azim = step * np.arange(int(np.ceil(2.0 * np.pi / step)))
        azim = azim[azim < 2.0 * np.pi]
        th, ph = np.meshgrid(polar, azim, indexing="ij")
        th, ph = th.ravel(), ph.ravel()
        pts = l2_value * np.column_stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )
    axes = np.vstack([l2_value * np.eye(p), -l2_value * np.eye(p)])
    return np.vstack([pts, axes])


def oracle_sphere_lasso(data: Dataset, l1_cap: float, l2_value: float,
                        step: float = 0.01) -> tuple[np.ndarray, float]:
    """Minimize ||y - X beta||_2 over ||beta||_2 = l2_value, ||beta||_1 <= l1_cap.

    The sphere is parameterized by angles at resolution <= step radians
    (polar for p=2, spherical for p=3) and filtered by the l1 cap.  This is
    the desk-scale stand-in for the sphere-constrained programs; the returned
    objective is the unsquared residual norm.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    p = X.shape[1]
    if p not in (2, 3):
        raise ValueError(f"sphere search supports p in {{2, 3}}, got p={p}")
    _check_grid(p, step)
    if l2_value <= 0:
        raise ValueError("l2_value must be > 0")
    if l1_cap < l2_value:
        raise ValueError(
            f"l1 cap {l1_cap} < sphere radius {l2_value}: the sphere lies outside the l1 ball"
        )
    pts = _sphere_points(p, l2_value, step)
    pts = pts[np.abs(pts).sum(axis=1) <= l1_cap * (1.0 + 1e-12)]

    def score(block):
        r = block @ X.T - y
        return np.sqrt((r * r).sum(axis=1))

    def chunks():
        for i in range(0, pts.shape[0], _CHUNK):
            yield pts[i:i + _CHUNK]

    return _scan_best(chunks(), score, minimize=True)


def oracle_pv_linear(g: np.ndarray, l1_radius: float, step: float = 0.01) -> np.ndarray:
    """Grid maximizer of <g, beta> over ||beta||_1 <= l1_radius, ||beta||_2 <= 1."""
    g = np.asarray(g, dtype=float)
    p = g.size
    _check_grid(p, step)
    if l1_radius < 0:
        raise NegativeRadius(f"l1_radius must be >= 0, got {l1_radius}")
    bound = min(l1_radius, 1.0)
    axis = _axis_grid(bound, step)

    def keep(block):
        return (np.abs(block).sum(axis=1) <= l1_radius) & ((block * block).sum(axis=1) <= 1.0)

    def score(block):
        return block @ g

    def with_origin():
        yield np.zeros((1, p))
        yield from _box_candidates(axis, p, keep)

    beta, _ = _scan_best(with_origin(), score, minimize=False)
    return beta
