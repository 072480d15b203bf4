"""Fitting: initialization, the escape heuristic, the outer loop, and
out-of-sample addition of new points to a fitted solution.

The optimizer works on the concatenated flattened (B, Z) vector; there are
no alternating block updates.  The outer loop alternates an escape pass
(each item adopts the row whose neighbourhood fits it best) with a full
quasi-Newton minimization, until the post-optimization loss stops
improving.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import lbfgs
from .data import Normalization, check_class_probabilities, write_json
from .errors import (DataError, NumericError, ShapeError, SlisemapError,
                     check_fields, check_number)
from .model import TaskKind
from .objective import (_DIST_GRAD_EPS, _QUIET, Hyperparams, Workspace,
                        _as_problem, _floats, _forward,
                        added_loss_and_gradients,
                        local_loss_matrix, loss_and_gradients,
                        pairwise_distances, row_contributions,
                        softmax_weights, softmax_weights_row, total_loss)

# A round of the fit loop counts as a gain only above this share of the
# loss: smaller gains move neither the embedding nor purity visibly, and the
# rounds that chase them cost about a fifth of a fit's evaluations.
_ROUND_TOL = 1e-3


def _plateau_top(best_f: float) -> float:
    """The top of the plateau band [best_f, _plateau_top(best_f)]: a round
    that ends in it without gaining confirms the best loss ``best_f``."""
    return best_f + 0.01 * max(abs(best_f), 1.0)


# Why a fit stopped (``Solution.stop_reason``): the round cap was reached,
# two rounds since the last gain ended near the best loss, ten rounds in a
# row gained nothing, or a solve failed numerically.
STOP_REASONS = ("max-outer-iters", "plateau", "no-gain", "numeric")

# Floor of the bound on the first trial step of an add's solve, per
# coordinate.  Each new row's z starts at its copy's Z_r, at distance zero
# from that old row, inside the distance smoothing of width
# sqrt(_DIST_GRAD_EPS); the default unit first step lands far past that
# kink and the zoom then walks it back a decade per evaluation.  The bound
# is the distance to the nearest old row apart from Z_r (kept in the start
# base; for a joint batch the least such distance over its rows), where
# the optimum often lies in a collapsed cluster, but never below ten
# smoothing widths, the scale the copy's loss is curved on.  Tied to the
# smoothing so that removing it calls for a second look here.
_ADD_FIRST_STEP = 10.0 * math.sqrt(_DIST_GRAD_EPS)

# A joint batch row copies one of the fewest old rows that carry this share
# of its anchor row's softmax weight (:func:`_neighbourhood`).  Measured
# without the first-step bound on the benchmark's training sets (fresh
# points of seed 1, batches of 10), joint-batch evaluations at shares 1/4,
# 1/2 and 3/4 were 7385 / 1687 / 1538 on ``reg200-seeds`` and
# 4679 / 1198 / 987 on ``clf200``, with mean loss and added-point purity
# flat.
_START_SHARE = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the fit loop and the inner quasi-Newton solver.

    Each field passes :func:`errors.check_number` on construction, which
    raises a ValueError naming it, and is stored as a Python int or float:
    the counts and the seed are integers, not booleans, and ``rel_tol`` is
    a finite number > 0."""

    max_outer_iters: int = 100  # escape rounds after the first solve; 0: none
    lbfgs_max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        count = {"low": 0, "integer": True}
        check_fields(self, max_outer_iters=count, seed=count,
                     lbfgs_max_iters={"low": 1, "integer": True},
                     rel_tol={"low": 0, "strict": True})


def _check_finite(**arrays):
    """Raise a DataError naming the first of ``arrays`` that has a
    non-finite entry."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise DataError(f"{name} has non-finite entries")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``, in its memory layout, with
    numpy's own float64 dtype, so that ``np.asarray(copy, dtype=float)``
    is the copy itself (an unpickled array's equal dtype is not)."""
    a = np.asarray(a, dtype=float).astype(float)
    a.setflags(write=False)
    return a


def _check_names(**names):
    """Raise a DataError naming the first of ``names`` that is not a list
    or tuple of strings."""
    for key, value in names.items():
        if not (isinstance(value, (list, tuple))
                and all(isinstance(v, str) for v in value)):
            raise DataError(f"{key!r} is not a list of strings")


@dataclass(eq=False)
class Solution:
    """A fitted model: data, local models, embedding and the fit's record.

    ``X`` is the normalized, intercept-augmented covariate matrix the fit
    ran on; ``Y`` is the response matrix on the training scale (logit scale
    for the binary-logit task).  ``normalization`` maps raw features into
    X's basis (``data.apply_normalization``).  Construction checks every
    length and shape against (X, Y), raising a ShapeError.  It raises a
    DataError for non-finite entries, classification responses whose rows
    are not probability vectors (:func:`data.check_class_probabilities`),
    a normalization std at or below 0, a
    ``loss_history`` that is empty or increases, ``column_names`` or
    ``target_names`` that are not lists (or tuples) of strings, and a
    ``seed`` that fails :func:`errors.check_number` as an integer >= 0.
    It stores the seed as a Python int, the history as a tuple of Python
    floats and the names as tuples, so every Solution that can be built
    saves a file that loads.

    A Solution is read-only after construction: it holds read-only copies
    of X, Y, B, Z and the normalization's mean and std, and tuples of its
    names and history, so neither a later write into what it was built
    from nor an in-place edit of its own can change it or what it saves,
    and its record and the start base of adds (4n floats, computed on the
    first one and kept) describe those arrays.  Make a changed solution
    with ``dataclasses.replace``, which starts without that base.  Pickling
    (and ``copy``) rebuilds a Solution through its constructor, so the
    copy is checked and read-only too, and starts without the base.

    Equality is identity (``a == b`` only when ``a is b``): compare two
    solutions by their ``to_json_dict()`` documents.
    """

    X: np.ndarray
    Y: np.ndarray
    B: np.ndarray
    Z: np.ndarray
    hyperparams: Hyperparams
    task: TaskKind
    loss_history: tuple[float, ...]  # the fit's best loss after each solve
    seed: int
    column_names: tuple[str, ...]
    normalization: Normalization
    target_names: tuple[str, ...] = ("y",)
    stop_reason: str = ""  # one of STOP_REASONS; "" when not recorded

    def __post_init__(self):
        self.seed = check_number("seed", self.seed, low=0, integer=True,
                                 error=DataError)
        _check_names(column_names=self.column_names,
                     target_names=self.target_names)
        self.column_names = tuple(self.column_names)
        self.target_names = tuple(self.target_names)
        self.loss_history = h = tuple(float(v) for v in self.loss_history)
        if not (len(h) and np.isfinite(h).all() and np.all(np.diff(h) <= 0)):
            raise DataError("loss_history is empty, non-finite or "
                            "increasing")
        if self.stop_reason not in ("", *STOP_REASONS):
            raise DataError(f"stop_reason {self.stop_reason!r} is not one "
                            f"of {', '.join(STOP_REASONS)}")
        self.X, self.Y, self.B, self.Z = map(_read_only, _as_problem(
            self.task, self.X, self.Y, self.B, self.Z,
            self.hyperparams.d)[:4])
        m, norm = self.X.shape[1] - 1, self.normalization
        want = (m, self.Y.shape[1], (m,), (m,))
        got = (len(self.column_names), len(self.target_names),
               np.shape(norm.mean), np.shape(norm.std))
        if got != want:
            raise ShapeError("column_names, target_names or normalization "
                             "length does not match", expected=want, got=got)
        _check_finite(X=self.X, Y=self.Y, B=self.B, Z=self.Z,
                      normalization=(norm.mean, norm.std))
        if self.task.is_classification:
            check_class_probabilities(self.Y, "Y")
        if not (norm.std > 0.0).all():
            raise DataError("normalization std has entries <= 0")
        self.normalization = Normalization(mean=_read_only(norm.mean),
                                           std=_read_only(norm.std))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def final_loss(self) -> float:
        """The fit's best loss, the last entry of ``loss_history``."""
        return self.loss_history[-1]

    @property
    def outer_iters_used(self) -> int:
        """Solves the fit ran: the first one and one per escape round."""
        return len(self.loss_history)

    @cached_property
    def _start_base(self):
        """:func:`_copy_base` of this solution, computed on first use:
        ``(S, w, pen, nearest)``, four arrays of length n."""
        return _copy_base(self.X, self.Y, self.B, self.Z, self.hyperparams,
                          self.task)

    def _derived_keys(self) -> dict:
        """The document keys read off the arrays and the record, which a
        document must agree with to load (:meth:`from_json_dict`)."""
        return {
            "n": self.n,
            "m": len(self.column_names),
            "d": self.hyperparams.d,
            "p": self.Y.shape[1],
            "final_loss": self.final_loss,
            "outer_iters_used": self.outer_iters_used,
            "numeric_warning": self.stop_reason == "numeric",
        }

    def to_json_dict(self) -> dict:
        derived = self._derived_keys()
        return {
            "task": self.task.to_string(),
            **{k: derived[k] for k in ("n", "m", "d", "p")},
            "lambda_z": self.hyperparams.lambda_z,
            "lambda_lasso": self.hyperparams.lambda_lasso,
            "column_names": list(self.column_names),
            "target_names": list(self.target_names),
            "normalization": {
                "mean": self.normalization.mean.tolist(),
                "std": self.normalization.std.tolist(),
            },
            "B": self.B.tolist(),
            "Z": self.Z.tolist(),
            "X": self.X.tolist(),
            "Y": self.Y.tolist(),
            "final_loss": derived["final_loss"],
            "seed": self.seed,
            "outer_iters_used": derived["outer_iters_used"],
            "loss_history": list(self.loss_history),
            "numeric_warning": derived["numeric_warning"],
            "stop_reason": self.stop_reason,
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Solution":
        """The solution a :meth:`to_json_dict` document describes: each key
        goes to the constructor that checks it (``Hyperparams``,
        ``TaskKind.from_string`` and this class), so a document loads
        exactly when that solution can be built.  A missing key or a value
        those refuse raises a DataError naming it, and mismatched arrays a
        ShapeError.  A file written before ``loss_history`` was saved has
        ``[final_loss]`` as its history, one before ``stop_reason``
        "numeric" if ``numeric_warning`` else "".  Each derived key (``n``,
        ``m``, ``d``, ``p``, ``final_loss``, ``outer_iters_used``,
        ``numeric_warning``) the document holds must equal what
        :meth:`to_json_dict` writes for the solution, booleans included, or
        it is a DataError naming the key; a file without ``loss_history``
        keeps its ``outer_iters_used``.  The check reads them from
        ``_derived_keys``, which the writer uses too, and does not
        serialize the arrays."""
        try:
            legacy = "loss_history" not in doc
            sol = cls(
                X=doc["X"], Y=doc["Y"], B=doc["B"], Z=doc["Z"],
                hyperparams=Hyperparams(lambda_z=doc["lambda_z"],
                                        lambda_lasso=doc["lambda_lasso"],
                                        d=doc["d"]),
                task=TaskKind.from_string(doc["task"]),
                loss_history=([doc["final_loss"]] if legacy
                              else doc["loss_history"]),
                seed=doc["seed"], column_names=doc["column_names"],
                normalization=Normalization(
                    mean=np.asarray(doc["normalization"]["mean"], dtype=float),
                    std=np.asarray(doc["normalization"]["std"], dtype=float)),
                target_names=doc.get("target_names", ["y"]),
                stop_reason=doc.get("stop_reason", "numeric" if doc.get(
                    "numeric_warning") else ""),
            )
        except KeyError as exc:
            raise DataError(f"solution has no {exc.args[0]!r} key") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"solution has a malformed value: {exc}") \
                from None
        for key, want in sol._derived_keys().items():
            if legacy and key == "outer_iters_used":
                continue  # older files count rounds their history lacks
            v = doc.get(key, want)
            if v != want or isinstance(v, bool) != isinstance(want, bool):
                raise DataError(f"solution key {key!r} is {v!r}, but the "
                                f"solution it describes gives {want!r}")
        return sol

    @classmethod
    def load(cls, path) -> "Solution":
        """Read a saved solution; a file that is not valid JSON or does not
        describe a consistent solution raises a DataError naming it."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise DataError(f"{path}: not a solution JSON file: {exc}") \
                from None
        try:
            return cls.from_json_dict(doc)
        except SlisemapError as exc:
            raise DataError(f"{path}: {exc}") from exc


def pca_scores(X: np.ndarray, d: int) -> np.ndarray:
    """First ``d`` principal-component scores of column-centered ``X``.

    Raw (unscaled) scores from an SVD.  Component signs are fixed so the
    largest-magnitude loading of each component is positive, which makes
    the result reproducible across runs.  When the centered matrix has
    rank below ``d`` the trailing columns are zero-filled with a warning.
    """
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0, keepdims=True)
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    flip = np.sign(Vt[np.arange(Vt.shape[0]), np.abs(Vt).argmax(axis=1)])
    flip[flip == 0] = 1.0
    U = U * flip[None, :]
    tol = s.max(initial=0.0) * max(Xc.shape) * np.finfo(float).eps
    rank = int((s > tol).sum())
    Z = np.zeros((X.shape[0], d))
    use = min(d, rank, s.shape[0])
    Z[:, :use] = U[:, :use] * s[:use]
    if use < d:
        warnings.warn(
            f"requested {d} embedding columns but the data has rank {rank}; "
            "trailing columns initialized to zero")
    return Z


def init(X, Y, hp: Hyperparams, task: TaskKind, seed: int):
    """Starting point: PCA scores for Z, seeded standard normals for B."""
    X = np.asarray(X, dtype=float)
    n, n_cols = X.shape
    rng = np.random.default_rng(seed)
    B0 = rng.standard_normal((n, task.coef_len(n_cols)))
    Z0 = pca_scores(X, hp.d)
    return B0, Z0


def _embedding_scale(hp: Hyperparams) -> float:
    """The factor :func:`lbfgs_minimize` scales the embedding block by.

    Large lambda_z makes the embedding block of the Hessian (about
    2*lambda_z) vastly stiffer than the model block; optimizing the
    rescaled embedding V = Z * scale keeps the joint problem well
    conditioned without changing the loss or its minimizer.  At
    lambda_z <= 0.5 the scale is 1 and V is Z, with nothing to divide.
    """
    return max(1.0, math.sqrt(2.0 * hp.lambda_z))


@_QUIET
def lbfgs_minimize(fun_and_grad, B0, Z0, hp: Hyperparams,
                   config: SolverConfig, *, max_first_step=None, band=None):
    """Minimize a callback over (B, Z) jointly; returns (B, Z, loss).

    ``fun_and_grad(B, Z)`` must return ``(loss, dB, dZ)``.  The two blocks
    are flattened into one parameter vector for the quasi-Newton core;
    ``hp.lambda_z`` sets the scale of its embedding block.
    ``max_first_step`` and ``band`` are passed to :func:`lbfgs.minimize`,
    the first in the units of that vector (B and the rescaled embedding).
    Penalties too large for floats end in a NumericError, not a warning.
    """
    nb = B0.size
    scale = _embedding_scale(hp)

    def unscaled(V):
        return V if scale == 1.0 else V / scale

    def unpack(x):
        return x[:nb].reshape(B0.shape), x[nb:].reshape(Z0.shape)

    def fg(x):
        B, V = unpack(x)
        f, gB, gZ = fun_and_grad(B, unscaled(V))
        return f, np.concatenate([gB.ravel(), unscaled(gZ).ravel()])

    x0 = np.concatenate([B0.ravel(), (Z0 * scale).ravel()])
    res = lbfgs.minimize(fg, x0, max_iters=config.lbfgs_max_iters,
                         rel_tol=config.rel_tol, max_first_step=max_first_step,
                         band=band)
    B, V = unpack(res.x)
    return B.copy(), unscaled(V).copy(), res.fun


def escape(X, Y, B, Z, task: TaskKind):
    """Move every item to the row whose soft neighbourhood fits it best.

    For each item i the candidate score of row k is the neighbourhood
    average, under row k's weights, of all models' losses on item i,
    (W @ L)[k, i]; every item simultaneously adopts (B, Z) of its argmin
    row, read from the original matrices.  Ties go to the smallest row
    index.
    """
    X, Y, B, Z, _ = _as_problem(task, X, Y, B, Z)
    W = softmax_weights(pairwise_distances(Z))
    ks = np.argmin(W @ local_loss_matrix(B, X, Y, task), axis=0)
    return B[ks].copy(), Z[ks].copy()


def fit(X, Y, hp: Hyperparams, task: TaskKind,
        config: SolverConfig = SolverConfig(), *,
        column_names=None, normalization=None, target_names=None) -> Solution:
    """Run the full pipeline: init, minimize, escape/minimize until the
    loss stops improving, and return the best state ever observed.

    A round (escape, then minimize) gains when it lowers the best loss by
    more than 0.1% of it (``_ROUND_TOL``).  The loop stops after two
    rounds since the last gain that each gain less than 0.1% and end within
    1% of the best loss (``"plateau"``), after ten rounds in a row without
    such a gain (``"no-gain"``; escape may visit worse basins first), after
    ``config.max_outer_iters`` rounds (``"max-outer-iters"``), or on a
    numeric failure (``"numeric"``); ``Solution.stop_reason`` says which.
    ``config.rel_tol`` is the inner L-BFGS tolerance only.  Each round's
    solve gets the plateau band [best loss, ``_plateau_top`` of it]: at
    its first point of two consecutive steps that each gain at most ten
    times ``rel_tol`` of the loss (``lbfgs._BAND_BAR``), a solve whose
    best loss is in the band ends there ("band").  Such a round ends at or
    above the best loss, so it is never adopted, and it counts as a
    plateau round just as solving it out would; a round below or above
    the band runs on to ``rel_tol``.  Non-finite
    entries of X or Y are a DataError naming the array.

    ``column_names`` and ``normalization`` (a ``data.Normalization``) are
    carried into the Solution for serialization; identity defaults are used
    when fitting plain matrices.  Names that are not strings are a
    DataError, raised before the first solve.
    """
    X, Y, _, _, _ = _as_problem(task, X, Y)
    _check_finite(X=X, Y=Y)
    if task.is_classification:
        check_class_probabilities(Y, "Y")
    n, n_cols = X.shape
    if n < 2:
        raise SlisemapError(f"need at least 2 data items to embed, got {n}")
    if column_names is None:
        column_names = [f"x{i + 1}" for i in range(n_cols - 1)]
    if target_names is None:
        target_names = [f"y{i + 1}" for i in range(Y.shape[1])] \
            if Y.shape[1] > 1 else ["y"]
    if normalization is None:
        normalization = Normalization(mean=np.zeros(n_cols - 1),
                                      std=np.ones(n_cols - 1))
    column_names, target_names = list(column_names), list(target_names)
    _check_names(column_names=column_names, target_names=target_names)

    B, Z = init(X, Y, hp, task, config.seed)
    work = Workspace()

    def fun_and_grad(Bc, Zc):
        return loss_and_gradients(X, Y, Bc, Zc, hp, task, work=work)

    stop_reason = "max-outer-iters"
    try:
        B, Z, f = lbfgs_minimize(fun_and_grad, B, Z, hp, config)
    except NumericError:
        f = total_loss(X, Y, B, Z, hp, task)  # raises if the start is not finite
        warnings.warn("numeric failure in the initial minimization; "
                      "returning the unoptimized starting point")
        stop_reason = "numeric"
    best_B, best_Z, best_f = B, Z, f
    history = [best_f]

    # An escape pass routinely makes the loss temporarily worse before a
    # later round lands in a better basin, so a non-improving round must
    # not end the fit on its own.  Rounds that end within 1% of the
    # incumbent loss without gaining count as convergence (two since the
    # last gain stop the loop); rounds exploring clearly worse basins get a
    # longer leash.
    plateau = 0
    no_gain = 0
    while stop_reason != "numeric" and len(history) <= config.max_outer_iters:
        B_e, Z_e = escape(X, Y, B, Z, task)
        try:
            B, Z, f = lbfgs_minimize(fun_and_grad, B_e, Z_e, hp, config,
                                     band=(best_f, _plateau_top(best_f)))
        except NumericError:
            warnings.warn("numeric failure mid-fit; returning the best "
                          "state found so far")
            stop_reason = "numeric"
            break
        improvement = best_f - f
        if f < best_f:
            best_B, best_Z, best_f = B, Z, f
        history.append(best_f)
        if improvement > _ROUND_TOL * max(abs(best_f), abs(f), 1.0):
            plateau = 0
            no_gain = 0
        else:
            no_gain += 1
            if f <= _plateau_top(best_f):
                plateau += 1
            if plateau >= 2 or no_gain >= 10:
                stop_reason = "plateau" if plateau >= 2 else "no-gain"
                break

    return Solution(
        X=X, Y=Y, B=best_B, Z=best_Z, hyperparams=hp, task=task,
        loss_history=history, seed=config.seed,
        column_names=column_names, normalization=normalization,
        target_names=target_names, stop_reason=stop_reason)


@_QUIET
def _copy_base(X, Y, B, Z, hp: Hyperparams, task: TaskKind):
    """What the copy scores (:func:`_copy_scores`) of new rows appended to
    the solution (B, Z) on the items (X, Y) need besides the new items,
    from one forward pass over the solution: ``(S, w, pen, nearest)``, each
    of length n.

    S_k = sum_j W_kj L_kj, w_k = W_kk = 1 / sum_j exp(-D_kj) and
    pen_k = lambda_z |Z_k|^2 + lambda_lasso |B_k|_1.  nearest_k is the
    distance from Z_k to the nearest row apart from it, min over
    D_kj > 0 of D_kj, or 0 where every row coincides with Z_k; it bounds
    the first step of a copy of row k.  The n x n distances and weights
    are dropped with the pass.  The arrays are read-only.
    """
    S, _, D, W, _, _ = _forward(X, Y, B, Z, Z[:0], task, Workspace())
    w = np.diagonal(W).copy()
    pen = hp.lambda_z * (Z * Z).sum(axis=1) \
        + hp.lambda_lasso * np.abs(B).sum(axis=1)
    nearest = np.where(D > 0.0, D, np.inf).min(axis=1)
    nearest[nearest == np.inf] = 0.0
    for a in (S, w, pen, nearest):
        a.setflags(write=False)
    return S, w, pen, nearest


def _copy_scores(base, L: np.ndarray) -> np.ndarray:
    """Entry (i, k): the loss of new point i's row as a copy of old row k
    in the problem incremented by that row alone, from the start base
    ``base`` (:func:`_copy_base`) and the old models' losses ``L``
    (k x n, or n for one point) on the new points.  The copy sees row k's
    neighbourhood plus itself at distance zero, so its loss is

        f_k = (S_k + w_k L_k(x)) / (1 + w_k) + pen_k.
    """
    S, w, pen, _ = base
    return (S + w * L) / (1.0 + w) + pen


def _neighbourhood(Z: np.ndarray, a: int) -> np.ndarray:
    """The fewest rows of ``Z`` that carry ``_START_SHARE`` of row ``a``'s
    softmax weight (:func:`softmax_weights_row`), row ``a`` first and the
    rest by decreasing weight, ties to the smaller index."""
    W = softmax_weights_row(Z, a)
    order = np.argsort(-W, kind="stable")
    order = np.concatenate(([a], order[order != a]))
    return order[:np.searchsorted(np.cumsum(W[order]), _START_SHARE) + 1]


@_QUIET
def _least_squares_start(X, y, wt, B_r, lambda_lasso):
    """The B start of a single add to a squared-loss task whose z starts at
    old row r's: the b minimizing sum_j wt_j (x_j . b - y_j)^2 over the
    items (X, y), old ones then the new one, under the copy's weights
    ``wt`` (row r's weights W_r, then w_r), from the q x q normal
    equations.  The start loss of a B row b is f_r's formula with b for
    B_r, less the embedding penalty both starts share,

        wt . (X b - y)^2 / (1 + w_r) + lambda_lasso |b|_1,

    and b is taken only when its start loss is at most ``B_r``'s under the
    same weights; otherwise, and when the system is singular or b is not
    finite, the copy's ``B_r`` stays.  Singular means rank below q at
    working precision, as ``np.linalg.matrix_rank`` counts it: whether
    LAPACK meets an exactly zero pivot on a singular system depends on
    the rounding of the weights.
    """
    A = X.T * wt
    G = A @ X
    try:
        lam = np.linalg.eigvalsh(G)
        if not lam[0] > lam.size * np.finfo(float).eps * lam[-1]:
            return B_r
        b = np.linalg.solve(G, A @ y)
    except np.linalg.LinAlgError:
        return B_r

    def start_loss(b):
        R = X @ b - y
        return float(wt @ (R * R)) / (1.0 + wt[-1]) \
            + lambda_lasso * float(np.abs(b).sum())

    return b[None, :] if start_loss(b) <= start_loss(B_r[0]) else B_r


def add_new(sol: Solution, X_new, Y_new,
            config: SolverConfig = SolverConfig(), *,
            one_by_one: bool = False):
    """Add held-out points to a fitted solution without refitting it.

    Returns ``(B_new, Z_new, losses)``, where ``losses[i]`` is new point
    i's loss contribution to the incremented problem.  The new rows are
    optimized against the frozen solution, which is never mutated; each
    starts at the embedding of an old row.  ``one_by_one`` stacks the
    results of one single-row ``add_new`` call per point.  Non-finite or
    text entries of X_new or Y_new, and classification rows of Y_new that
    are not probability vectors, are a DataError naming the array, raised
    before any start or solve.

    Each new row i starts as a copy (B_r, Z_r) of an old row r, scored by
    its copy score f_ki (:func:`_copy_scores`), the row's loss as a copy of
    old row k in the problem incremented by that row alone,

        f_k = (S_k + w_k L_k(x)) / (1 + w_k) + lambda_z |Z_k|^2
              + lambda_lasso |B_k|_1,

    with S_k = sum_j W_kj L_kj, w_k = W_kk and L_k(x) the loss of old model
    k on the point.  S, w and the penalties come from one forward pass over
    the solution (:func:`_copy_base`), made on the first add to a Solution
    and kept (4n floats), so no add forms an n x n array.

    A single row starts from the row r with the lowest copy score over all
    old rows.  For a squared-loss task (regression, binary-logit) B starts
    at the weighted least-squares fit of the copy's neighbourhood,
    b* = argmin_b sum_j W_rj (x_j . b - y_j)^2 + w_r (x . b - y)^2, when
    b*'s start loss (f_r's formula with b* for B_r) is at most B_r's; both
    are taken under row r's weights, computed in O(n) from Z
    (:func:`softmax_weights_row`).  Otherwise, or when its normal
    equations are singular, B starts at B_r.  Either way a training row
    added again starts no worse than its own copy.  Classification keeps
    B_r: the Hellinger loss has no closed-form fit, and an iterative
    B-first solve measured a single-add p50 of 2.2 ms against 0.71 on
    ``clf200``.  The solve's value is the row's loss.

    Several rows are solved jointly, each from the cheapest copy inside
    its own point's neighbourhood: the anchor a_i = argmin_k L_k(x_i) is
    the old model that fits point i best, and row i copies, among the
    fewest old rows that carry half of row a_i's softmax weight
    (:func:`_neighbourhood`, ``_START_SHARE``), the one with the lowest
    copy score, ties to the earlier candidate.  The copy score alone
    ranks rows mostly by their own neighbourhood's fit, so over all rows
    it often picks a row outside the point's cluster; the anchor alone
    starts the rows in the cluster but far from their optimum (the
    benchmark's ``clf200`` and ``reg200-seeds`` fresh points of seed 1 in
    batches of 10, without the first-step bound: 8320 and 9088
    evaluations, against 1198 and 1687 for the rule).  The copy score
    ignores the other new rows.  One more forward pass splits the joint
    loss into rows.

    Every new row's z starts inside the distance smoothing of its copy,
    and the optimum often at a nearby row of its collapsed cluster, so the
    solve's first trial moves no coordinate of B or z more than
    ``max(_ADD_FIRST_STEP, min_i nearest[r_i])``: the least distance from
    a start Z_r to the nearest old row apart from it (kept in the start
    base), but never below ten smoothing widths, in
    :func:`lbfgs_minimize`'s scaled units.
    """
    X_new, Y_new, _, _, _ = _as_problem(
        sol.task, _floats("X_new", np.atleast_2d(X_new)),
        _floats("Y_new", Y_new), sol.B)
    _check_finite(X_new=X_new, Y_new=Y_new)
    if sol.task.is_classification:
        check_class_probabilities(Y_new, "Y_new")
    k = X_new.shape[0]
    if k == 0 or one_by_one:
        parts = [add_new(sol, X_new[i:i + 1], Y_new[i:i + 1], config)
                 for i in range(k)]
        empty = sol.B[:0], sol.Z[:0], np.empty(0)
        return tuple(np.concatenate(a) for a in zip(empty, *parts))
    Xc, Yc = np.vstack([sol.X, X_new]), np.vstack([sol.Y, Y_new])
    hp, task, work = sol.hyperparams, sol.task, Workspace()

    def fun_and_grad(Bn, Zn):
        return added_loss_and_gradients(Xc, Yc, sol.Z, Bn, Zn, hp, task,
                                        work=work)

    L = local_loss_matrix(sol.B, X_new, Y_new, task).T
    f = _copy_scores(sol._start_base, L)
    if k == 1:
        r = int(np.argmin(f))
        rows = slice(r, r + 1)
    else:
        anchors = np.argmin(L, axis=1).tolist()
        hoods = {a: _neighbourhood(sol.Z, a) for a in set(anchors)}
        rows = np.array([hoods[a][np.argmin(f[i, hoods[a]])]
                         for i, a in enumerate(anchors)])
    B0, Z0 = sol.B[rows], sol.Z[rows]
    if k == 1 and not task.is_classification:
        W_r = softmax_weights_row(sol.Z, r)
        B0 = _least_squares_start(Xc, Yc[:, 0], np.append(W_r, W_r[r]), B0,
                                  hp.lambda_lasso)
    step = max(_ADD_FIRST_STEP, float(sol._start_base[3][rows].min()))
    B_new, Z_new, f_new = lbfgs_minimize(
        fun_and_grad, B0, Z0, hp, config,
        max_first_step=step * _embedding_scale(hp))
    if k == 1:
        return B_new, Z_new, np.array([f_new])
    return B_new, Z_new, row_contributions(Xc, Yc, B_new, Z_new, hp, task,
                                           Z_old=sol.Z)
