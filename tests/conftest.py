"""Shared test helpers: independent scalar reimplementations of the loss
(used as oracles) and random problem-instance generators.

The oracles deliberately avoid the vectorized code paths under test: the
single-vector model helpers (``linear_predict`` to ``hellinger_sq``) use
small numpy vector operations, the rest plain Python loops over ``math``
functions only.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from slisemap.data import Normalization
from slisemap.errors import DataError, NumericError, ShapeError
from slisemap.model import TaskKind
from slisemap.objective import Hyperparams, total_loss
from slisemap.solver import Solution

# Property tests draw a fixed, bounded set of examples (derandomized, no
# example database) so the suite stays deterministic and short; no
# deadline, because timings on a shared machine vary.
settings.register_profile("slisemap", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("slisemap")


def linear_predict(x: np.ndarray, b: np.ndarray) -> float:
    """Prediction of the linear model ``b`` on covariate vector ``x``.

    ``x`` is expected to already carry its intercept entry.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape or x.ndim != 1:
        raise ShapeError("covariate and coefficient lengths differ",
                         expected=x.shape, got=b.shape)
    return float(x @ b)


def quadratic_loss(y_hat: float, y: float) -> float:
    """Squared error between a prediction and a response."""
    if not (np.isfinite(y_hat) and np.isfinite(y)):
        raise NumericError(f"quadratic_loss got non-finite input ({y_hat}, {y})")
    d = float(y_hat) - float(y)
    return d * d


def multinomial_predict(x: np.ndarray, b: np.ndarray, n_classes: int) -> np.ndarray:
    """Class probabilities of the multinomial logistic model ``b`` at ``x``.

    ``b`` concatenates one coefficient block of ``len(x)`` per non-reference
    class; the last class is the reference with an implicit zero logit.  The
    maximum logit is subtracted before exponentiation so large coefficients
    cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    m = x.shape[0]
    if b.shape != ((n_classes - 1) * m,):
        raise ShapeError("coefficient length does not match class count",
                         expected=(n_classes - 1) * m, got=b.shape[0])
    logits = np.concatenate([b.reshape(n_classes - 1, m) @ x, [0.0]])
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def hellinger_sq(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Hellinger distance between two discrete distributions.

    Symmetric, bounded in [0, 1], and tolerant of exact-zero components.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ShapeError("distributions have different lengths",
                         expected=p.shape, got=q.shape)
    if (p < 0).any() or (q < 0).any():
        raise DataError("hellinger_sq requires nonnegative components")
    for name, v in (("first", p), ("second", q)):
        if abs(v.sum() - 1.0) > 1e-9:
            raise DataError(
                f"{name} argument of hellinger_sq is not a probability "
                f"vector (sum {v.sum()!r})"
            )
    return float(min(1.0, max(0.0, 1.0 - np.sqrt(p * q).sum())))


def scalar_point_loss(b, x, y, task: TaskKind) -> float:
    """Loss of one model on one point, by scalar arithmetic."""
    m = len(x)
    if task.is_classification:
        p = task.n_classes
        logits = []
        for c in range(p - 1):
            logits.append(sum(b[c * m + k] * x[k] for k in range(m)))
        logits.append(0.0)
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        den = sum(exps)
        probs = [e / den for e in exps]
        return 1.0 - sum(math.sqrt(probs[c] * y[c]) for c in range(p))
    pred = sum(b[k] * x[k] for k in range(m))
    r = pred - float(y[0])
    return r * r


def scalar_total_loss(X, Y, B, Z, hp: Hyperparams, task: TaskKind) -> float:
    """Pure-Python reimplementation of the joint loss (no numpy ops)."""
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float).T).T
    B = np.asarray(B, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = X.shape[0]
    d = Z.shape[1]

    def dist(i, j):
        return math.sqrt(sum((Z[i, k] - Z[j, k]) ** 2 for k in range(d)))

    total = 0.0
    for i in range(n):
        den = sum(math.exp(-dist(i, k)) for k in range(n))
        for j in range(n):
            w = math.exp(-dist(i, j)) / den
            total += w * scalar_point_loss(B[i], X[j], Y[j], task)
    total += hp.lambda_z * sum(Z[i, k] ** 2 for i in range(n) for k in range(d))
    total += hp.lambda_lasso * sum(abs(v) for row in B for v in row)
    return total


def scalar_row_contribution(X, Y, B, Z, hp: Hyperparams, task: TaskKind,
                            i: int) -> float:
    """Row i's own share of the joint loss, by scalar arithmetic."""
    X = np.asarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float).T).T
    B = np.asarray(B, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n, d = Z.shape

    def dist(j):
        return math.sqrt(sum((Z[i, k] - Z[j, k]) ** 2 for k in range(d)))

    den = sum(math.exp(-dist(k)) for k in range(n))
    s = sum(math.exp(-dist(j)) / den * scalar_point_loss(B[i], X[j], Y[j], task)
            for j in range(n))
    s += hp.lambda_z * sum(Z[i, k] ** 2 for k in range(d))
    s += hp.lambda_lasso * sum(abs(v) for v in B[i])
    return s


def random_instance(task: TaskKind, n, m, d, rng, lambda_z=0.2):
    """A random well-posed problem: intercept-augmented X, valid Y, and
    (B, Z) bounded away from the lasso kink and coincident embeddings."""
    X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
    if task.is_classification:
        raw = rng.random((n, task.n_classes)) + 0.1
        Y = raw / raw.sum(axis=1, keepdims=True)
    else:
        Y = rng.standard_normal((n, 1))
    q = task.coef_len(m + 1)
    B = rng.standard_normal((n, q))
    B += np.where(B >= 0, 0.2, -0.2)  # keep |B| > 0.1 for the lasso subgradient
    Z = rng.standard_normal((n, d))
    hp = Hyperparams(lambda_z=lambda_z, d=d)
    return X, Y, B, Z, hp


def make_solution(X, Y, B, Z, hp, task=TaskKind.regression()):
    """Assemble a Solution of (X, Y, B, Z) directly, bypassing the fit
    loop."""
    m, p = X.shape[1] - 1, 1 if np.ndim(Y) == 1 else np.shape(Y)[1]
    return Solution(
        X=X, Y=Y, B=B, Z=Z, hyperparams=hp, task=task,
        loss_history=[total_loss(X, Y, B, Z, hp, task)], seed=0,
        column_names=[f"x{i+1}" for i in range(m)],
        normalization=Normalization(mean=np.zeros(m), std=np.ones(m)),
        target_names=[f"y{i+1}" for i in range(p)] if p > 1 else ["y"])


@st.composite
def problems(draw, max_n=8):
    """A random instance: regression or p-class classification (p in
    2..5), n <= max_n items, embedding width d in {1, 2, 3}."""
    task = draw(st.one_of(st.just(TaskKind.regression()),
                          st.integers(2, 5).map(TaskKind.classification)))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 3))
    d = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    X, Y, B, Z, hp = random_instance(task, n, m, d,
                                     np.random.default_rng(seed))
    return task, X, Y, B, Z, hp


def max_grad_error(analytic, numeric):
    """Largest mixed absolute/relative disagreement between two gradients."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = 1.0 + np.maximum(np.abs(analytic), np.abs(numeric))
    return float((np.abs(analytic - numeric) / scale).max())


def central_difference(fun, x0, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    flat = g.ravel()
    xf = x0.ravel()
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (fun(xp.reshape(x0.shape)) - fun(xm.reshape(x0.shape))) / (2 * h)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
