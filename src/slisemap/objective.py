"""The joint loss surface over local models B and embedding Z.

The total loss is

    sum_ij W_ij L_ij  +  lambda_z * sum(Z**2)  +  lambda_lasso * sum(|B|)

where W is the row-softmax of negative pairwise embedding distances and
L_ij is the loss of local model i evaluated on data item j.  Everything is
computed densely (the soft neighbourhood is global), vectorized over numpy,
and in float64.

Gradients with respect to B and Z are analytic.  The lasso term uses the
subgradient sign(x) with sign(0) = 0.  The distance derivative uses
sqrt(D^2 + eps) so coincident embedding points do not produce infinities;
forward values are exact.

One kernel computes the loss and gradients of k optimized rows (B, Z)
against N = n_old + k rows in all, the first n_old of which are frozen
embedding rows: none for the full problem (k = N = n), the fitted solution
when new points are appended.  It works in place on the buffers of a
``Workspace``: five k x N float64 arrays (distances, weights, losses,
residuals or Hellinger sums, and a scratch array), plus 2p class-major
k x N planes (probabilities and Hellinger terms) for p-class
classification.  A solve lends one Workspace to all of its evaluations,
so after the first one they allocate nothing of size k x N; at n = 1000 a
regression solve holds 40 MB of buffers and a 3-class one 88 MB.

The Workspace also keeps what stays fixed over a solve, so that each
evaluation after the first skips that set-up; in a small solve (a single
add has k = 1) it would be a large share of each evaluation.  It keeps an
N x d stacked embedding, into which the frozen rows Z_old are written once
and the optimized rows per call; the frozen rows' squared norms; and the
view of the k self-pairs (i, n_old + i) of the distance buffer.  It
recognizes Z_old by identity, so Z_old must not change in place while a
Workspace is in use; the solver takes it from a read-only ``Solution``.
The inputs are checked on every call.  An evaluation enters one
``errstate``.

The classification B gradient sums over the items sequentially, in the
fixed order j = 0, 1, ..., N - 1 (one einsum, not a BLAS product, whose
blocking would round differently).  Its layout is chosen by shape.
Class-major, numpy's inner loop runs along the q columns of X; staged
items-first in the dead Hellinger planes, it runs along the (p-1) k rows
of the free planes, at the cost of one copy.  The planes stay
class-major while (p-1) k <= 1.4 q (a single add, or a few rows), and
are staged items-first otherwise; both layouts give the same bytes.  The
rule follows a timing of the two sums (N = 150-210 items, one BLAS
thread, median of three rounds): class-major was faster up to
(p-1) k / q = 1.4 (p = 5, q = 11, k = 3; p = 13, q = 11, k = 1;
p = 8, q = 5, k = 1; p = 3 at q = 3, 5, 11 and 21 up to k = 2, 3, 5 and
11) and items-first from 1.45 (p = 5, q = 11, k = 4; p = 20, q = 11,
k = 1; p = 13, q = 5, k = 1; p = 3 at q = 5 and 11 from k = 4 and 8),
but for two near ties within 7% either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError, check_fields
from .model import TaskKind

# Smoothing inside the distance derivative only; keeps the gradient finite
# when two embedding rows coincide.
_DIST_GRAD_EPS = 1e-12

# Overflow in a loss surfaces as a NumericError on the non-finite total, not
# as a runtime warning.  Each entry point enters it once, as a decorator,
# which unlike a ``with`` block may be entered again and from any thread.
_QUIET = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Hyperparams:
    """Loss constants: embedding penalty, lasso penalty, embedding width.

    Each passes :func:`errors.check_number` on construction, which raises
    a ValueError naming it, and is stored as a Python float or int:
    ``lambda_z`` a finite number > 0, ``lambda_lasso`` a finite number
    >= 0, and ``d`` an integer >= 1, not a boolean."""

    lambda_z: float
    lambda_lasso: float = 1e-4
    d: int = 2

    def __post_init__(self):
        check_fields(self, lambda_z={"low": 0, "strict": True},
                     lambda_lasso={"low": 0})
        check_fields(self, lambda m: ValueError("embedding dimension " + m),
                     d={"low": 1, "integer": True})


class Workspace:
    """What the loss evaluations of one solve share.

    - Buffers: each is allocated on first use and again only when a later
      call asks for a different shape.
    - The stacked embedding ``Z_all``: the frozen rows ``Z_old``, written
      once, over the optimized rows, written per call (for the full
      problem, the optimized rows themselves); its squared row norms
      ``sq_all``, the frozen rows' computed once, and ``sq`` the optimized
      rows'; the k x N distance buffer ``D`` and the view ``D_self`` of its
      self-pairs (i, n_old + i).

    The Workspace keeps the frozen rows ``Z_old`` it is given and
    recognizes them by identity, so they must not change in place while it
    is in use.  Values returned to the caller are never views of its
    buffers, so a later call cannot change them.  Not safe to share between
    threads.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._stacked_on = None  # (Z_old or None, Z.shape) of the stacking
        self._Z_new = None  # the optimized rows of Z_all
        self.Z_all = self.sq_all = self.sq = self.D = self.D_self = None

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """An uninitialized float64 array of ``shape`` kept under ``name``."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape)
        return buf

    def stack(self, Z_old: np.ndarray, Z: np.ndarray) -> None:
        """Set ``Z_all``, ``sq_all`` and ``sq`` for the rows ``Z`` after the
        frozen rows ``Z_old``; the frozen rows, their norms and ``D`` are
        set up again only when Z_old or Z's shape differs from the last
        call's."""
        n_old = Z_old.shape[0]
        frozen = Z_old if n_old else None
        on = self._stacked_on
        if on is None or on[0] is not frozen or on[1] != Z.shape:
            k, d = Z.shape
            N = n_old + k
            self.D = np.empty((k, N))
            self.D_self = _self_pairs(self.D, n_old)
            self.sq_all = np.empty(N)
            self.sq = self.sq_all[n_old:]
            if n_old:
                self.Z_all = np.empty((N, d))
                self.Z_all[:n_old] = Z_old
                self._Z_new = self.Z_all[n_old:]
                np.einsum("ij,ij->i", Z_old, Z_old, out=self.sq_all[:n_old])
            self._stacked_on = frozen, Z.shape
        if n_old:
            self._Z_new[...] = Z
        else:
            self.Z_all = Z
        np.einsum("ij,ij->i", Z, Z, out=self.sq)


def _self_pairs(A: np.ndarray, n_old: int) -> np.ndarray:
    """View of the entries (i, n_old + i) of a C-contiguous k x N array:
    each optimized row paired with itself."""
    return A.reshape(-1)[n_old::A.shape[1] + 1]


def _distances(work: Workspace, Z_old, Z, scratch) -> np.ndarray:
    """Distances from the rows of ``Z`` to the frozen rows ``Z_old`` and to
    ``Z``, in ``work.D``; self-distances are exactly zero.

    For the full problem ``Z_all`` is ``Z`` itself (C-contiguous), so the
    Gram product is exactly symmetric and so is ``D``.
    """
    work.stack(Z_old, Z)
    D = work.D
    np.matmul(Z, work.Z_all.T, out=D)
    D *= 2.0
    np.add(work.sq[:, None], work.sq_all[None, :], out=scratch)
    np.subtract(scratch, D, out=D)
    np.maximum(D, 0.0, out=D)
    np.sqrt(D, out=D)
    work.D_self[...] = 0.0
    return D


def pairwise_distances(Z: np.ndarray) -> np.ndarray:
    """Euclidean distances between all pairs of rows of ``Z``.

    Symmetric with an exactly zero diagonal.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    n = Z.shape[0]
    return _distances(Workspace(), Z[:0], Z, np.empty((n, n)))


def _softmax_into(W, D) -> np.ndarray:
    """Row-softmax of ``-D``, written to and returned in ``W``."""
    np.negative(D, out=W)
    np.exp(W, out=W)
    W /= W.sum(axis=1, keepdims=True)
    return W


def softmax_weights(D: np.ndarray) -> np.ndarray:
    """Row-softmax of ``-D``: each row of the result sums to one.

    ``D`` must be a distance matrix: non-negative, with a zero diagonal.
    Each row's largest exponent is then 0, so no shift is needed.
    """
    return _softmax_into(np.empty(np.shape(D)), np.asarray(D, dtype=float))


@_QUIET
def softmax_weights_row(Z: np.ndarray, r: int) -> np.ndarray:
    """Row ``r`` of ``softmax_weights(pairwise_distances(Z))`` in O(n) time
    and memory, from the same distance and softmax code.

    D_rr is exactly zero.  The one-row Gram product may round a product
    differently from the all-rows one, which moves D_rj, and so the
    weight's share, by about eps |Z_r| |Z_j| / D_rj.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    n = Z.shape[0]
    D = _distances(Workspace(), Z, Z[r:r + 1], np.empty((1, n + 1)))[:, :n]
    D[0, r] = 0.0  # the Gram route leaves a rounding error here
    return _softmax_into(np.empty((1, n)), D)[0]


def _floats(name: str, a) -> np.ndarray:
    """``a`` as a float64 array, or a DataError naming it when its entries
    are not numbers."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{name} has entries that are not numbers") from None


def _as_problem(task: TaskKind, X, Y, B=None, Z=None, d=None, Z_old=None):
    """``(X, Y, B, Z, Z_old)`` as float64 arrays, a 1-D response as one
    column and Z C-contiguous, or a ShapeError on any disagreement.  X or
    Y with entries that are not numbers is a DataError naming it, and X
    must have at least one column.

    Without ``B`` only (X, Y) are checked.  Without ``Z``, B may have any
    number of rows.  With it, the items of (X, Y) are the n_old frozen
    embedding rows ``Z_old`` (none by default) followed by the k rows of
    (B, Z), and ``d``, if given, is Z's width.
    """
    X, Y = _floats("X", X), _floats("Y", Y)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[1] == 0:
        raise ShapeError("covariates must form a 2-D matrix with at least "
                         "one column", got=X.shape)
    n, q = X.shape[0], task.coef_len(X.shape[1])
    if Y.shape != (n, task.response_dim()):
        raise ShapeError("response matrix shape does not match task",
                         expected=(n, task.response_dim()), got=Y.shape)
    if B is None:
        return X, Y, None, None, None
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != q:
        raise ShapeError("coefficient matrix width does not match task",
                         expected=q, got=B.shape)
    if Z is None:
        return X, Y, B, None, None
    Z = np.ascontiguousarray(Z, dtype=float)
    if d is None and Z.ndim == 2:
        d = Z.shape[1]
    if Z.shape != (B.shape[0], d):
        raise ShapeError("embedding does not match the model rows and "
                         "width", expected=(B.shape[0], d), got=Z.shape)
    Z_old = Z[:0] if Z_old is None else np.asarray(Z_old, dtype=float)
    if Z_old.ndim != 2 or Z_old.shape[1] != d:
        raise ShapeError("frozen embedding width does not match", expected=d,
                         got=Z_old.shape)
    if n != Z_old.shape[0] + B.shape[0]:
        raise ShapeError("item count does not match frozen plus optimized "
                         "rows", expected=Z_old.shape[0] + B.shape[0], got=n)
    return X, Y, B, Z, Z_old


def _local_losses(B, X, Y, task: TaskKind, work: Workspace):
    """Loss of each row of ``B`` on each item, in ``work``'s k x N buffer
    "L", and what the B gradient needs: the residuals (regression) or the
    class-major probability and Hellinger planes and their class sums.

    Callers run it under ``_QUIET``.
    """
    k, N = B.shape[0], X.shape[0]
    L = work.buffer("L", (k, N))
    if not task.is_classification:
        R = work.buffer("R", (k, N))
        np.matmul(B, X.T, out=R)
        R -= Y[:, 0]
        np.multiply(R, R, out=L)
        return L, R
    p = task.n_classes
    Q = work.buffer("Q", (p, k, N))
    H = work.buffer("H", (p, k, N))
    Hsum = work.buffer("R", (k, N))
    # The free logits come from one product in the (k, p-1, N) order of the
    # coefficient rows, staged in H, then moved to their planes.
    free = H[:p - 1].reshape(k * (p - 1), N)
    np.matmul(B.reshape(k * (p - 1), -1), X.T, out=free)
    Q[:p - 1] = free.reshape(k, p - 1, N).transpose(1, 0, 2)
    Q[p - 1] = 0.0  # reference class
    np.max(Q, axis=0, out=L)
    Q -= L
    np.exp(Q, out=Q)
    np.sum(Q, axis=0, out=L)
    Q /= L
    np.multiply(Q, Y.T[:, None, :], out=H)
    np.sqrt(H, out=H)
    np.sum(H, axis=0, out=Hsum)
    np.subtract(1.0, Hsum, out=L)
    return L, (Q, H, Hsum)


@_QUIET
def local_loss_matrix(B: np.ndarray, X: np.ndarray, Y: np.ndarray,
                      task: TaskKind) -> np.ndarray:
    """Loss of every local model on every data item.

    Entry (i, j) is the loss of model row i applied to item j.  ``B`` may
    have a different number of rows than ``X`` (e.g. a single global model
    against all items).
    """
    X, Y, B, _, _ = _as_problem(task, X, Y, B)
    return _local_losses(B, X, Y, task, Workspace())[0]


def _grad_b(B, X, task: TaskKind, V, cache) -> np.ndarray:
    """Gradient of sum_ij V_ij L_ij with respect to B, as a fresh array.

    Overwrites the probability and Hellinger planes (classification) or
    the residuals (regression).  Each classification entry is the
    sequential sum over items j of G_cij X_jk (module docstring); when the
    free planes have more than 1.4 times as many rows, (p-1) k, as X has
    columns, G is staged items-first, (N, p-1, k), in the Hellinger
    planes.
    """
    if task.is_classification:
        Q, H, Hsum = cache
        # d L_ij / d logit_c = -(H_c - Q_c * Hsum) / 2 for the p-1 free logits
        G = Q[:task.n_classes - 1]
        G *= Hsum
        np.subtract(H[:task.n_classes - 1], G, out=G)
        G *= -0.5
        G *= V
        k, N = V.shape
        if 5 * G.shape[0] * k <= 7 * X.shape[1]:  # (p-1) k <= 1.4 q
            return np.einsum("cij,jk->ick", G, X).reshape(B.shape)
        Gt = H.reshape(-1)[:G.size].reshape(N, -1, k)
        Gt[...] = G.transpose(2, 0, 1)
        return np.einsum("jci,jk->kci", Gt, X).T.reshape(B.shape)
    np.multiply(V, cache, out=cache)
    gB = cache @ X
    gB *= 2.0
    return gB


def _forward(X, Y, B, Z, Z_old, task: TaskKind, work: Workspace):
    """Distances, softmax weights and local losses of the optimized rows
    (B, Z) against all N rows, in ``work``'s buffers; callers run it under
    ``_QUIET``.

    Returns ``(S, Z_all, D, W, L, cache)`` where S_i = sum_j W_ij L_ij is a
    fresh array and ``Z_all`` stacks ``Z_old`` over ``Z``.
    """
    k, N = B.shape[0], X.shape[0]
    W = work.buffer("W", (k, N))
    D = _distances(work, Z_old, Z, W)
    _softmax_into(W, D)
    L, cache = _local_losses(B, X, Y, task, work)
    T = work.buffer("T", (k, N))
    np.multiply(W, L, out=T)
    return T.sum(axis=1), work.Z_all, D, W, L, cache


def _total(S, B, Z, hp: Hyperparams, what: str) -> float:
    """The weighted data term sum(S) plus the penalties of (B, Z); a
    non-finite total raises a NumericError naming the first bad term."""
    data = float(S.sum())
    z_pen = hp.lambda_z * float((Z * Z).sum())
    lasso = hp.lambda_lasso * float(np.abs(B).sum())
    total = data + z_pen + lasso
    if not math.isfinite(total):
        for name, v in (("weighted data term", data),
                        ("embedding penalty", z_pen),
                        ("lasso penalty", lasso)):
            if not math.isfinite(v):
                raise NumericError(f"{what} is non-finite: {name} = {v}")
        raise NumericError(f"{what} is non-finite")
    return total


@_QUIET
def _evaluate(X, Y, B, Z, Z_old, hp: Hyperparams, task: TaskKind,
              work: Workspace, what: str):
    """The loss of the optimized rows (their weighted data losses over all
    items plus their own penalties) and its gradients with respect to
    (B, Z), as fresh arrays."""
    S, Z_all, D, W, L, cache = _forward(X, Y, B, Z, Z_old, task, work)
    total = _total(S, B, Z, hp, what)
    gB = _grad_b(B, X, task, W, cache)
    gB += hp.lambda_lasso * np.sign(B)

    # The Z dependence goes only through the softmax weights: row i's term
    # has the coefficient M_ij = W_ij (S_i - L_ij) on dD_ij.  A distance
    # between two optimized rows appears in both of their terms, so on
    # that block the coefficients add up to M + M^T.
    n_old = Z_old.shape[0]
    M = L  # the losses are not needed any more
    np.subtract(S[:, None], L, out=M)
    M *= W
    A = work.buffer("T", L.shape)
    A[:, :n_old] = M[:, :n_old]
    np.add(M[:, n_old:], M[:, n_old:].T, out=A[:, n_old:])
    inv = D  # 1 / sqrt(D^2 + eps), over the distances
    np.multiply(D, D, out=inv)
    inv += _DIST_GRAD_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    work.D_self[...] = 0.0  # D_ii is identically zero
    C = A
    C *= inv
    gZ = C.sum(axis=1)[:, None] * Z
    gZ -= C @ Z_all
    gZ += 2.0 * hp.lambda_z * Z
    return total, gB, gZ


@_QUIET
def total_loss(X, Y, B, Z, hp: Hyperparams, task: TaskKind) -> float:
    """Scalar value of the joint loss."""
    X, Y, B, Z, Z_old = _as_problem(task, X, Y, B, Z, hp.d)
    S = _forward(X, Y, B, Z, Z_old, task, Workspace())[0]
    return _total(S, B, Z, hp, "total loss")


def loss_and_gradients(X, Y, B, Z, hp: Hyperparams, task: TaskKind,
                       work: Workspace | None = None):
    """Loss value plus analytic gradients (dB, dZ) in one pass.

    ``work`` lends the evaluation its buffers and keeps its set-up; pass
    the same Workspace to every evaluation of a solve.  The gradients are
    always fresh arrays.
    """
    work = Workspace() if work is None else work
    X, Y, B, Z, Z_old = _as_problem(task, X, Y, B, Z, hp.d)
    return _evaluate(X, Y, B, Z, Z_old, hp, task, work, "total loss")


def added_loss_and_gradients(X_all, Y_all, Z_old, B_new, Z_new,
                             hp: Hyperparams, task: TaskKind,
                             work: Workspace | None = None):
    """Loss of appended rows against a frozen base, with gradients.

    The value is the appended rows' share of the incremented total loss:
    their softmax-weighted data losses over all items (old and new) plus
    their own embedding and lasso penalties.  The base rows' terms are
    held constant together with their parameters, so a feasible appended
    row can never end up with a larger contribution than the row it
    copies.  Gradients are with respect to the appended (B, Z) only.
    ``work`` is as in :func:`loss_and_gradients`; ``Z_old`` must not
    change in place while it is in use.
    """
    work = Workspace() if work is None else work
    X_all, Y_all, B_new, Z_new, Z_old = _as_problem(
        task, X_all, Y_all, B_new, Z_new, hp.d, Z_old)
    return _evaluate(X_all, Y_all, B_new, Z_new, Z_old, hp, task, work,
                     "appended-row loss")


@_QUIET
def row_contributions(X, Y, B, Z, hp: Hyperparams, task: TaskKind, *,
                      Z_old=None) -> np.ndarray:
    """Per-row share of the total loss: each row's weighted data loss plus
    its own embedding and lasso penalties.

    With ``Z_old`` the rows (B, Z) are appended after frozen embedding rows
    ``Z_old``, and (X, Y) hold the items of all rows, old ones first.
    """
    X, Y, B, Z, Z_old = _as_problem(task, X, Y, B, Z, hp.d, Z_old)
    S = _forward(X, Y, B, Z, Z_old, task, Workspace())[0]
    return S + hp.lambda_z * (Z * Z).sum(axis=1) \
        + hp.lambda_lasso * np.abs(B).sum(axis=1)


@_QUIET
def uniform_loss_and_grad(b: np.ndarray, X, Y, task: TaskKind,
                          lambda_lasso: float):
    """Unweighted summed loss of one model over all items, with gradient.

    This is the objective of the global reference model: the same per-item
    losses as the main problem but with uniform weights instead of the
    softmax neighbourhood.
    """
    X, Y, B, _, _ = _as_problem(task, X, Y, [b])
    b = B[0]
    L, cache = _local_losses(B, X, Y, task, Workspace())
    f = float(L.sum()) + lambda_lasso * float(np.abs(b).sum())
    g = _grad_b(B, X, task, np.ones_like(L), cache)[0] \
        + lambda_lasso * np.sign(b)
    return f, g
