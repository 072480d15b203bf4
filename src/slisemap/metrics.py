"""Evaluation metrics over a fitted solution: cluster purity, fidelity
(pointwise and over embedding neighbourhoods), coverage against a loss
threshold, and the global reference model the threshold is derived from.

All k-nearest-neighbour sets are taken in the embedding with Euclidean
distance, exclude the query point itself, and break distance ties toward
the smaller index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lbfgs, objective
from .data import write_csv, write_json
from .errors import ShapeError, SlisemapError, check_number
from .model import TaskKind
from .objective import local_loss_matrix, pairwise_distances, \
    uniform_loss_and_grad
from .solver import Solution, SolverConfig


@dataclass
class MetricReport:
    """Fidelity/coverage/purity values for a set of neighbourhood sizes."""

    fidelity_point: float
    fidelity_knn: dict[int, float]
    coverage_full: float
    coverage_knn: dict[int, float]
    threshold_l0: float
    purity_knn: Optional[dict[int, float]] = None

    def to_json_dict(self) -> dict:
        return {
            "fidelity_point": self.fidelity_point,
            "fidelity_knn": {str(k): v for k, v in self.fidelity_knn.items()},
            "coverage_full": self.coverage_full,
            "coverage_knn": {str(k): v for k, v in self.coverage_knn.items()},
            "threshold_l0": self.threshold_l0,
            "purity_knn": None if self.purity_knn is None
            else {str(k): v for k, v in self.purity_knn.items()},
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def rows(self):
        """Flat (metric, k, value) rows; k is empty for whole-data metrics."""
        out = [("fidelity_point", "", self.fidelity_point),
               ("coverage_full", "", self.coverage_full),
               ("threshold_l0", "", self.threshold_l0)]
        out += [("fidelity_knn", k, v) for k, v in sorted(self.fidelity_knn.items())]
        out += [("coverage_knn", k, v) for k, v in sorted(self.coverage_knn.items())]
        if self.purity_knn is not None:
            out += [("purity_knn", k, v) for k, v in sorted(self.purity_knn.items())]
        return out

    def save_csv(self, path) -> None:
        write_csv(path, ["metric", "k", "value"], self.rows())


def fit_global_model(X, Y, task: TaskKind, *, lambda_lasso: float = 1e-4,
                     config: SolverConfig = SolverConfig()) -> np.ndarray:
    """One white-box model over all items with uniform weights.

    Minimizes the summed pointwise loss plus the lasso penalty with the
    same quasi-Newton core as the main fit.  Warns on rank-deficient
    covariates (the penalty keeps the problem determined).
    """
    X = np.asarray(X, dtype=float)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        warnings.warn("covariate matrix is rank deficient; the penalized "
                      "solution is returned")
    q = task.coef_len(X.shape[1])

    def fg(b):
        return uniform_loss_and_grad(b, X, Y, task, lambda_lasso)

    res = lbfgs.minimize(fg, np.zeros(q), max_iters=config.lbfgs_max_iters,
                         rel_tol=1e-12)
    return res.x


def loss_threshold(global_losses, q: float = 0.3) -> float:
    """Empirical quantile of a loss sample, interpolating linearly between
    the closest order statistics; ``q`` must pass
    :func:`errors.check_number` as a number in [0, 1] (a SlisemapError
    otherwise)."""
    losses = np.asarray(global_losses, dtype=float)
    if losses.size == 0:
        raise SlisemapError("loss_threshold needs a nonempty loss vector")
    q = check_number("quantile", q, low=0, high=1, error=SlisemapError)
    return float(np.quantile(losses, q))


def check_k(k: int, n: int) -> int:
    """``k`` as a Python int, by :func:`errors.check_number`: a SlisemapError
    unless it is an integer, not a boolean, with 1 <= k < n."""
    return check_number("k", k, low=1, high=n - 1, integer=True,
                        error=lambda _: SlisemapError(
                            f"k must be an integer with 1 <= k < n, got "
                            f"k={k!r}, n={n}"))


def knn_indices(Z: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbours of every row of ``Z``.

    Self is excluded; ties break toward the smaller index, as the first k
    columns of a stable argsort of each distance row would.  The first j
    columns of the result are the j nearest neighbours.
    """
    Z = np.asarray(Z, dtype=float)
    k = check_k(k, Z.shape[0])
    D = pairwise_distances(Z)
    np.fill_diagonal(D, np.inf)
    # An unstable sort gives the stable order of a row's first k wherever
    # its k + 1 smallest distances are distinct; rows with ties (or NaN)
    # among them are sorted again, stably.
    order = np.argsort(D, axis=1)[:, :k + 1]
    near = np.take_along_axis(D, order, axis=1)
    tied = (near[:, 1:] == near[:, :-1]).any(axis=1) | np.isnan(near[:, -1])
    order[tied] = np.argsort(D[tied], axis=1, kind="stable")[:, :k + 1]
    return order[:, :k]


def _neighbour_mean(A: np.ndarray, nn: np.ndarray) -> float:
    """Mean of each row of ``A`` over that row's neighbours ``nn``."""
    return float(np.take_along_axis(A, nn, axis=1).mean())


def _checked_labels(labels, Z: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape[0] != Z.shape[0]:
        raise ShapeError("labels length does not match the embedding",
                         expected=Z.shape[0], got=labels.shape[0])
    return labels


def _purity(labels: np.ndarray, nn: np.ndarray) -> float:
    return float((labels[nn] == labels[:, None]).mean())


def cluster_purity(Z: np.ndarray, labels, k: int) -> float:
    """Average fraction of each item's embedding neighbours sharing its
    ground-truth label."""
    Z = np.asarray(Z, dtype=float)
    labels = _checked_labels(labels, Z)
    return _purity(labels, knn_indices(Z, k))


def fidelity(sol: Solution, k: Optional[int] = None) -> float:
    """Mean loss of each local model on its own item (``k=None``) or on its
    k embedding neighbours.  Lower is better."""
    L = local_loss_matrix(sol.B, sol.X, sol.Y, sol.task)
    if k is None:
        return float(np.diag(L).mean())
    return _neighbour_mean(L, knn_indices(sol.Z, k))


def _check_threshold(l0: float) -> None:
    if np.isnan(l0):
        raise SlisemapError("threshold must not be NaN")


def coverage(sol: Solution, l0: float, k: Optional[int] = None) -> float:
    """Fraction of (model, item) pairs with loss strictly below ``l0``,
    over all pairs (``k=None``) or each model's k embedding neighbours.
    Higher is better."""
    _check_threshold(l0)
    hit = local_loss_matrix(sol.B, sol.X, sol.Y, sol.task) < l0
    if k is None:
        return float(hit.mean())
    return _neighbour_mean(hit, knn_indices(sol.Z, k))


def compute_report(sol: Solution, ks, labels=None, quantile: float = 0.3,
                   config: SolverConfig = SolverConfig()) -> MetricReport:
    """Full metric sweep: global reference model, loss threshold, and
    fidelity/coverage (and purity when labels are given) at every k.

    The loss matrix and the neighbour order are built once: the k nearest
    neighbours are the first k of the ``max(ks)`` nearest.
    """
    ks = sorted({check_k(k, sol.n) for k in ks})
    b_global = fit_global_model(sol.X, sol.Y, sol.task,
                                lambda_lasso=sol.hyperparams.lambda_lasso,
                                config=config)
    # via objective, so that metrics.local_loss_matrix counts n x n builds only
    l0 = loss_threshold(objective.local_loss_matrix(
        b_global[None], sol.X, sol.Y, sol.task)[0], quantile)
    _check_threshold(l0)
    L = local_loss_matrix(sol.B, sol.X, sol.Y, sol.task)
    hit = L < l0
    order = knn_indices(sol.Z, ks[-1]) if ks else None
    report = MetricReport(
        fidelity_point=float(np.diag(L).mean()),
        fidelity_knn={k: _neighbour_mean(L, order[:, :k]) for k in ks},
        coverage_full=float(hit.mean()),
        coverage_knn={k: _neighbour_mean(hit, order[:, :k]) for k in ks},
        threshold_l0=l0,
    )
    if labels is not None:
        labels = _checked_labels(labels, sol.Z)
        report.purity_knn = {k: _purity(labels, order[:, :k]) for k in ks}
    return report
