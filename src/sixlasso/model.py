"""Link functions, the link constant E[F(Z)Z], signals, and data generation.

The data model is binary single-index: x ~ N(0, I_p) and the conditional
mean of the +-1 response is E[y|x] = F(x'beta), where F maps the index to
[-1, 1].  Four built-in links are provided (all odd and nondecreasing), plus
user-tabulated monotone piecewise-linear links.

The package's only runtime dependency is numpy.  The Gaussian special
functions the probit link and the tabulated link constant need, erf and
erfc, come from the standard library's math module, applied entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidSparsity, LinkRangeError, NonPositiveLambda

LINK_KINDS = ("linear", "logistic", "probit", "sign", "tabulated")

EQUAL_MAGNITUDE = "equal"
RANDOM_MAGNITUDE = "random"


@dataclass(frozen=True)
class LinkFunction:
    """Conditional-mean function F with F(t) in [-1, 1].

    The "linear" kind (F(t) = t) is exempt from the range bound; it exists
    for noiseless real-valued regression used to force exact solver answers.

    Tabulated links are monotone piecewise-linear: ascending knots with
    values in [-1, 1], extended by constants beyond the outermost knots.
    """

    kind: str
    knots: np.ndarray | None = field(default=None)
    values: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}; expected one of {LINK_KINDS}")
        if self.kind == "tabulated":
            if self.knots is None or self.values is None:
                raise ValueError("tabulated link needs knots and values")
            knots = np.asarray(self.knots, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
                raise ValueError("knots/values must be 1-d arrays of equal length >= 2")
            if not np.all(np.diff(knots) > 0):
                raise ValueError("knots must be strictly ascending")
            if np.any(np.abs(values) > 1.0):
                raise LinkRangeError("tabulated link values must lie in [-1, 1]")
            if np.any(np.diff(values) < 0):
                raise ValueError("tabulated link must be monotone nondecreasing")
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "values", values)
        elif self.knots is not None or self.values is not None:
            raise ValueError("knots/values are only valid for tabulated links")

    def __call__(self, t):
        return link_mean(self, t)


LINEAR = LinkFunction("linear")
LOGISTIC = LinkFunction("logistic")
PROBIT = LinkFunction("probit")
SIGN = LinkFunction("sign")

BUILTIN_LINKS = {"linear": LINEAR, "logistic": LOGISTIC, "probit": PROBIT, "sign": SIGN}


def get_link(name: str) -> LinkFunction:
    """Look up a built-in link by its lowercase name."""
    try:
        return BUILTIN_LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link {name!r}; "
                         f"expected one of {sorted(BUILTIN_LINKS)}") from None


def tabulated_link(knots, values) -> LinkFunction:
    """Build a monotone piecewise-linear link from a (knots, values) table."""
    return LinkFunction("tabulated", np.asarray(knots, float), np.asarray(values, float))


def _map_float(f, x: np.ndarray) -> np.ndarray:
    """Apply the scalar function f to every entry of the float array x."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def link_mean(link: LinkFunction, t):
    """Evaluate F(t), vectorized over t.

    logistic: tanh(t/2), i.e. 2 e^t / (1 + e^t) - 1
    probit:   2 Phi(t) - 1, computed as math.erf(t / sqrt(2)) entry by
              entry; math.erf evaluates |x| and then restores the sign, so
              the float implementation is exactly odd
    sign:     sign(t) with F(0) = 0
    linear:   t
    """
    t = np.asarray(t, dtype=float)
    if link.kind == "linear":
        out = t
    elif link.kind == "logistic":
        out = np.tanh(0.5 * t)
    elif link.kind == "probit":
        out = _map_float(math.erf, t / np.sqrt(2.0))
    elif link.kind == "sign":
        out = np.sign(t)
    else:
        out = np.interp(t, link.knots, link.values)
    if out.ndim == 0:
        return float(out)
    return out


@cache
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # building the rule costs more than a sweep trial's other set-up: build it once
    u, w = np.polynomial.hermite.hermgauss(nodes)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _lambda_gauss_hermite(link: LinkFunction, nodes: int) -> float:
    # E[F(Z)Z] with Z ~ N(0,1): substitute z = sqrt(2) u against weight e^{-u^2}.
    u, w = _hermite_rule(nodes)
    z = np.sqrt(2.0) * u
    return float(np.sum(w * link_mean(link, z) * z) / np.sqrt(np.pi))


def compute_lambda(link: LinkFunction, budget: int = 64) -> float:
    """Compute the link constant lambda = E[F(Z)Z], Z ~ N(0,1).

    Only the logistic link uses quadrature: Gauss-Hermite with `budget`
    nodes under z = sqrt(2) u.  Every other link has a closed form by
    Stein's identity E[F(Z)Z] = E[F'(Z)] (Stein 1981): linear has F' = 1,
    giving 1; probit has F' = 2 phi, giving 2 E[phi(Z)] = 1/sqrt(pi); sign
    jumps by 2 at 0, giving 2 phi(0) = sqrt(2/pi), where a fixed-node rule
    would stall at ~1e-3 accuracy; a tabulated link is continuous, with
    slope d_i between knots k_i and k_i+1 and flat beyond the outer knots,
    giving sum_i d_i (Phi(k_i+1) - Phi(k_i)).  Phi(k) is computed as
    erfc(-k/sqrt(2))/2, which keeps full relative precision in the left
    tail, where 1 + erf(k/sqrt(2)) would cancel.  The budget floor is
    checked for every link.  The Monte Carlo cross-check is
    compute_lambda_mc.

    Raises NonPositiveLambda when the result is <= 0: the estimator theory
    needs lambda > 0, which every monotone nondecreasing odd link satisfies.
    """
    if budget < 32:
        raise ValueError("quadrature budget must be >= 32 nodes")
    if link.kind == "linear":
        value = 1.0
    elif link.kind == "probit":
        value = float(1.0 / np.sqrt(np.pi))
    elif link.kind == "sign":
        value = float(np.sqrt(2.0 / np.pi))
    elif link.kind == "tabulated":
        slopes = np.diff(link.values) / np.diff(link.knots)
        cdf = 0.5 * _map_float(math.erfc, -link.knots / np.sqrt(2.0))
        value = float(slopes @ np.diff(cdf))
    else:
        value = _lambda_gauss_hermite(link, budget)
    if value <= 0.0:
        raise NonPositiveLambda(f"lambda = {value} <= 0 for link {link.kind!r}")
    return value


def compute_lambda_mc(link: LinkFunction, budget: int = 1_000_000,
                      seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of lambda with its standard error.

    This is the independent cross-check for the quadrature path; it is never
    the default.  Returns (estimate, stderr).
    """
    if budget < 10_000:
        raise ValueError("Monte Carlo budget must be >= 10000 samples")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(budget)
    v = link_mean(link, z) * z
    mean = float(v.mean())
    sumsq = float(v @ v)  # single-pass second moment; avoids std()'s extra temporaries
    var = max(sumsq - budget * mean * mean, 0.0) / (budget - 1)
    return mean, float(np.sqrt(var / budget))


@dataclass(frozen=True)
class TrueSignal:
    """Ground-truth coefficient vector: s-sparse, unit l2 norm.

    Unit l2 norm plus s-sparsity give ||beta||_1 <= sqrt(s) automatically
    (Cauchy-Schwarz), which is the effective-sparsity budget the l1 radius
    rules are calibrated against.
    """

    beta: np.ndarray
    support: np.ndarray

    @property
    def p(self) -> int:
        return self.beta.size

    @property
    def s(self) -> int:
        return self.support.size


def make_signal(p: int, s: int, mode: str = RANDOM_MAGNITUDE, seed: int = 0) -> TrueSignal:
    """Draw an s-sparse unit-norm signal with uniformly random support.

    mode="equal": each nonzero is +-1/sqrt(s) with random signs.
    mode="random": nonzeros are i.i.d. standard normal, then normalized.
    """
    if s < 1 or s > p:
        raise InvalidSparsity(f"need 1 <= s <= p, got s={s}, p={p}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(p, size=s, replace=False))
    beta = np.zeros(p)
    if mode == EQUAL_MAGNITUDE:
        signs = np.where(rng.random(s) < 0.5, -1.0, 1.0)
        beta[support] = signs / np.sqrt(s)
    elif mode == RANDOM_MAGNITUDE:
        vals = rng.standard_normal(s)
        while np.linalg.norm(vals) == 0.0:  # never in practice; keeps the contract total
            vals = rng.standard_normal(s)
        beta[support] = vals / np.linalg.norm(vals)
    else:
        raise ValueError(f"unknown signal mode {mode!r}; expected 'equal' or 'random'")
    return TrueSignal(beta=beta, support=support)


@dataclass(frozen=True)
class Dataset:
    """Design matrix X (n rows of p features) plus response vector y.

    y is +-1 for binary links and real-valued in the linear regression mode.
    """

    X: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]


# The last two draws, oldest first, as (signal, n, link, seed, dataset).  A
# sweep trial draws its rep's training set and then its held-out set, and
# every trial of the rep asks for the same two: keeping two lets them share
# the draws.  An entry holds its signal and link, so neither can be freed and
# its id reused while the entry is kept.
_KEPT: list[tuple[TrueSignal, int, LinkFunction, int, Dataset]] = []


def generate_dataset(signal: TrueSignal, n: int, link: LinkFunction, seed: int) -> Dataset:
    """Sample a dataset from the single-index model with Gaussian design.

    X entries are i.i.d. N(0,1).  For binary links, y_i = +1 with probability
    (1 + F(x_i'beta))/2 so that E[y_i | x_i] = F(x_i'beta); the sign link is
    thereby deterministic except on the null event x_i'beta = 0.  The linear
    link produces y = X beta exactly (noiseless regression mode).
    Fully deterministic given (signal, n, link, seed).

    X is drawn column-major (the normals fill one feature column after
    another), so that a product with the columns of a sparse iterate's
    support, as in fit_lasso, reads contiguous memory.

    The last two draws are kept.  A call with the same signal and link
    objects (matched by identity), n and seed returns the kept Dataset
    itself.  A miss evicts the oldest kept draw before
    drawing, so at most two kept draws are alive.  Since a draw may be
    shared, X and y are read-only.
    """
    for kept_signal, kept_n, kept_link, kept_seed, kept in _KEPT:
        if kept_signal is signal and kept_link is link and kept_n == n and kept_seed == seed:
            return kept
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    del _KEPT[:-1]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((signal.p, n)).T
    X.flags.writeable = False
    support = signal.support
    t = X[:, support] @ signal.beta[support]
    if link.kind == "linear":
        y = t.copy()
    else:
        f = np.asarray(link_mean(link, t))
        if np.any(np.abs(f) > 1.0):
            raise LinkRangeError(
                f"link {link.kind!r} returned |F| = {np.max(np.abs(f))} > 1"
            )
        y = np.where(rng.random(n) < 0.5 * (1.0 + f), 1.0, -1.0)
    y.flags.writeable = False
    data = Dataset(X=X, y=y)
    _KEPT.append((signal, n, link, seed, data))
    return data
