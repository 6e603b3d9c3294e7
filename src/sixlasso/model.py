"""Link functions, the link constant E[F(Z)Z], signals, and data generation.

The data model is binary single-index: x ~ N(0, I_p) and the conditional
mean of the +-1 response is E[y|x] = F(x'beta), where F maps the index to
[-1, 1].  A link is one of the four names in LINK_KINDS (linear, logistic,
probit and sign), which are the whole link model.  Each is odd and
nondecreasing, so F(z)z >= 0 for every z and the link constant is
positive.  The link constant is exact for linear, probit and sign, and a
fixed 97-node trapezoid rule for logistic.  A signal is beta* itself, a
1-d float array: s-sparse and unit-norm, with normal magnitudes.

The package's only runtime dependency is numpy.  The Gaussian special
function the probit link needs, erf, comes from the standard library's math
module, applied entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINK_KINDS = ("linear", "logistic", "probit", "sign")

# Trapezoid nodes of the logistic link constant: z = k/4 for |k| <= 48
_TRAPEZOID_STEP = 0.25
_TRAPEZOID_Z = _TRAPEZOID_STEP * np.arange(-48, 49)


def _map_float(f, x: np.ndarray) -> np.ndarray:
    """Apply the scalar function f to every entry of the float array x."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def link_mean(link: str, t):
    """Evaluate F(t) for the link named `link`, vectorized over t.

    The names are those of LINK_KINDS:
    linear:   t
    logistic: tanh(t/2), i.e. 2 e^t / (1 + e^t) - 1
    probit:   2 Phi(t) - 1, computed as math.erf(t / sqrt(2)) entry by
              entry; math.erf evaluates |x| and then restores the sign, so
              the float implementation is exactly odd
    sign:     sign(t) with F(0) = 0
    Every link is odd and nondecreasing, and maps into [-1, 1] except
    linear, which exists for noiseless real-valued regression used to force
    exact solver answers.  Any other name raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    if link == "linear":
        out = t
    elif link == "logistic":
        out = np.tanh(0.5 * t)
    elif link == "probit":
        out = _map_float(math.erf, t / np.sqrt(2.0))
    elif link == "sign":
        out = np.sign(t)
    else:
        raise ValueError(f"unknown link {link!r}; expected one of {LINK_KINDS}")
    if out.ndim == 0:
        return float(out)
    return out


def _lambda_trapezoid(link: str) -> float:
    # E[F(Z)Z] = integral of phi(z) F(z) z over the real line, by the
    # trapezoid rule on the nodes above: the tails beyond |z| = 12 weigh
    # below 1e-30
    z = _TRAPEZOID_Z
    return float(_TRAPEZOID_STEP * np.sum(np.exp(-0.5 * z * z) * link_mean(link, z) * z)
                 / np.sqrt(2.0 * np.pi))


def compute_lambda(link: str) -> float:
    """Compute the link constant lambda = E[F(Z)Z], Z ~ N(0,1), of the link
    named `link` (an unknown name raises ValueError, from link_mean).

    Only the logistic link uses quadrature: the trapezoid rule with step
    h = 1/4 on |z| <= 12, 97 nodes.  Its integrand phi(z) tanh(z/2) z is
    analytic in the strip |Im z| < pi, so the rule's error is about
    exp(-2 pi^2 / h) = exp(-79), far below one ulp (Trefethen & Weideman
    2014), and it needs no numpy.polynomial.  Every other link has a
    closed form by Stein's identity E[F(Z)Z] = E[F'(Z)] (Stein 1981):
    linear has F' = 1, giving 1; probit has F' = 2 phi, giving
    2 E[phi(Z)] = 1/sqrt(pi); sign jumps by 2 at 0, giving
    2 phi(0) = sqrt(2/pi), where a fixed-node rule would stall at ~1e-3
    accuracy.  The tests cross-check every link against Monte
    Carlo and adaptive integration.

    Every link is odd and nondecreasing, so F(z)z >= 0 for every z and
    lambda > 0, as the estimator theory needs.
    """
    if link == "linear":
        return 1.0
    if link == "probit":
        return float(1.0 / np.sqrt(np.pi))
    if link == "sign":
        return float(np.sqrt(2.0 / np.pi))
    return _lambda_trapezoid(link)


def make_signal(p: int, s: int, seed: int = 0) -> np.ndarray:
    """Draw an s-sparse unit-norm signal beta* with uniformly random support.

    The nonzeros are i.i.d. standard normal, then normalized, so their
    magnitudes are random.  Unit l2 norm plus s-sparsity give
    ||beta*||_1 <= sqrt(s) (Cauchy-Schwarz), the effective-sparsity budget
    the l1 radius rules are calibrated against.  The support is
    np.flatnonzero(beta*).  s outside [1, p] raises ValueError.
    """
    if s < 1 or s > p:
        raise ValueError(f"need 1 <= s <= p, got s={s}, p={p}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(p, size=s, replace=False))
    beta = np.zeros(p)
    vals = rng.standard_normal(s)
    while np.linalg.norm(vals) == 0.0:  # never in practice; keeps the contract total
        vals = rng.standard_normal(s)
    beta[support] = vals / np.linalg.norm(vals)
    return beta


@dataclass(frozen=True)
class Dataset:
    """Design matrix X (n rows of p features) plus response vector y.

    X is 2-d, of shape (n, p), and y is 1-d with one value per row of X:
    fit_lasso and pv_linear_fit raise ValueError naming X or y otherwise.
    y is +-1 for binary links and real-valued in the linear regression mode.
    """

    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]


# The last two draws, oldest first, as (key, dataset) with the key
# (signal.tobytes(), n, link, seed).  A sweep trial draws its rep's training
# set and then its held-out set, and every trial of the rep asks for the same
# two: keeping two lets them share the draws.  A draw matches by value, so a
# signal edited in place no longer matches the draw made from its old values.
_KEPT: list[tuple[tuple[bytes, int, str, int], Dataset]] = []


def generate_dataset(signal: np.ndarray, n: int, link: str, seed: int) -> Dataset:
    """Sample a dataset from the single-index model with Gaussian design.

    signal is beta*, a 1-d float array, and link one of LINK_KINDS (an
    unknown name raises ValueError, as do n < 1 and a signal that is not
    1-d, before any kept draw is evicted).  X entries are i.i.d.
    N(0,1).  For binary links, y_i = +1 with probability
    (1 + F(x_i'beta))/2 so that E[y_i | x_i] = F(x_i'beta); the sign link is
    thereby deterministic except on the null event x_i'beta = 0.  The linear
    link produces y = X beta exactly (noiseless regression mode).
    Fully deterministic given (signal, n, link, seed).

    X is drawn column-major (the normals fill one feature column after
    another), so that a product with the columns of a sparse iterate's
    support, as in fit_lasso, reads contiguous memory.

    The last two draws are kept.  A call with the same signal values, n,
    link and seed (matched by value: signal by its bytes) returns the kept
    Dataset itself.  A miss evicts the oldest kept draw before
    drawing, so at most two kept draws are alive.  Since a draw may be
    shared, X and y are read-only.
    """
    # before the key: a (p, 1) signal has the bytes of its 1-d kept draw
    if signal.ndim != 1:
        raise ValueError(f"signal must be a 1-d array, got shape {signal.shape}")
    key = (signal.tobytes(), n, link, seed)
    for kept_key, kept in _KEPT:
        if kept_key == key:
            return kept
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if link not in LINK_KINDS:
        raise ValueError(f"unknown link {link!r}; expected one of {LINK_KINDS}")
    del _KEPT[:-1]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((signal.size, n)).T
    X.flags.writeable = False
    support = np.flatnonzero(signal)
    t = X[:, support] @ signal[support]
    if link == "linear":
        y = t
    else:
        y = np.where(rng.random(n) < 0.5 * (1.0 + link_mean(link, t)), 1.0, -1.0)
    y.flags.writeable = False
    data = Dataset(X=X, y=y)
    _KEPT.append((key, data))
    return data
