"""Library entry points under hypothesis: arrays of a wrong shape, holding
text, NaN or infinity, or with no entries end every public function that
takes them in success or a ``SlisemapError`` subclass, with no numpy
warning and nothing on the C-level standard error, where LAPACK reports an
illegal argument ("On entry to DLASCL parameter number 4 had an illegal
value").

Each function is called on a small valid regression problem (n = 8) with
each of its array arguments kept or replaced by a drawn variant.  Fits run
at most 20 L-BFGS iterations and one escape round.  Hypothesis draws from a
fixed seed (``derandomize=True``), so every run tries the same calls.
``test_refused_with_the_array_named`` pins calls that once ended in numpy's
``ValueError`` or ``LinAlgError`` or in LAPACK's message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slisemap.data import Dataset, Normalization, apply_normalization, \
    normalize, subsample
from slisemap.errors import DataError, ShapeError, SlisemapError
from slisemap.metrics import cluster_purity, compute_report, \
    fit_global_model, knn_indices, loss_threshold
from slisemap.model import TaskKind, logit_transform
from slisemap.objective import Hyperparams, local_loss_matrix, \
    pairwise_distances, row_contributions, softmax_weights, \
    softmax_weights_row, total_loss
from slisemap.solver import SolverConfig, add_new, escape, fit, pca_scores

REG = TaskKind.regression()
HP = Hyperparams(lambda_z=0.1)
CONFIG = SolverConfig(seed=1, lbfgs_max_iters=20, max_outer_iters=1)
N = 8
_rng = np.random.default_rng(5)
X_RAW = _rng.standard_normal((N, 2))
X = np.hstack([X_RAW, np.ones((N, 1))])
VALID = {
    "X": X, "Y": _rng.standard_normal((N, 1)),
    "B": _rng.standard_normal((N, 3)), "Z": _rng.standard_normal((N, 2)),
    "X_new": X[:2] + 0.1, "Y_new": _rng.standard_normal((2, 1)),
    "labels": np.arange(N) % 2, "losses": _rng.random(N), "X_raw": X_RAW,
}
NORM = Normalization(mean=np.zeros(2), std=np.ones(2))

# How a drawn argument differs from the valid one.
ENTRIES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "text": "a",
           "none": None}
SHAPES = {
    "empty": lambda a: a[:0],
    "no-columns": lambda a: a[..., :0],
    "drop-row": lambda a: a[1:],
    "drop-column": lambda a: a[..., 1:],
    "ravel": np.ravel,
    "extra-axis": lambda a: a[None],
    "transpose": np.transpose,
    "scalar": lambda a: 1.5,
    "ragged": lambda a: [[1.0, 2.0], [3.0]],
}


@st.composite
def variants(draw, a, shapes=True):
    """``a`` itself (half of the draws), or a copy with one entry replaced
    (``ENTRIES``) or, with ``shapes``, of another shape (``SHAPES``)."""
    kind = draw(st.one_of(st.just("same"), st.sampled_from(
        [*ENTRIES, *SHAPES] if shapes else list(ENTRIES))))
    a = np.array(a)
    if kind in ENTRIES:
        a = a.astype(object if kind in ("text", "none") else float)
        a.flat[draw(st.integers(0, a.size - 1))] = ENTRIES[kind]
    elif kind in SHAPES:
        a = SHAPES[kind](a)
    return a


# The strategy of each drawn argument.  A Dataset is a plain container, so
# ``ds_X_raw`` (its X_raw) keeps its shape; the settings of ``subsample``
# are drawn among numbers and other values.
DRAWN = {name: variants(a) for name, a in VALID.items()}
DRAWN["ds_X_raw"] = variants(X_RAW, shapes=False)
DRAWN["n0"] = DRAWN["seed"] = st.sampled_from(
    (5, 100, 0, -1, 2.5, np.nan, np.inf, "a", None, True, np.int64(3)))


@pytest.fixture(scope="module")
def sol():
    return fit(VALID["X"], VALID["Y"], HP, REG, CONFIG)


def dataset(X_raw):
    return Dataset(X_raw=X_raw, X=X, Y=VALID["Y"], column_names=["a", "b"],
                   target_names=["y"], normalization=NORM)


# name: (call of (solution, drawn arguments), names of the drawn arguments)
CALLS = {
    "fit": (lambda s, X, Y: fit(X, Y, HP, REG, CONFIG), "X Y"),
    "add_new": (lambda s, X_new, Y_new: add_new(s, X_new, Y_new, CONFIG),
                "X_new Y_new"),
    "add_new one_by_one": (lambda s, X_new, Y_new: add_new(
        s, X_new, Y_new, CONFIG, one_by_one=True), "X_new Y_new"),
    "compute_report": (lambda s, labels: compute_report(
        s, [1, 3], labels, config=CONFIG), "labels"),
    "cluster_purity": (lambda s, Z, labels: cluster_purity(Z, labels, 2),
                       "Z labels"),
    "knn_indices": (lambda s, Z: knn_indices(Z, 2), "Z"),
    "escape": (lambda s, X, Y, B, Z: escape(X, Y, B, Z, REG), "X Y B Z"),
    "subsample": (lambda s, ds_X_raw, n0, seed: subsample(
        dataset(ds_X_raw), n0, seed), "ds_X_raw n0 seed"),
    "normalize": (lambda s, X_raw: normalize(X_raw), "X_raw"),
    "apply_normalization": (lambda s, X_raw: apply_normalization(X_raw,
                                                                 NORM),
                            "X_raw"),
    "fit_global_model": (lambda s, X, Y: fit_global_model(
        X, Y, REG, config=CONFIG), "X Y"),
    "loss_threshold": (lambda s, losses: loss_threshold(losses), "losses"),
    "total_loss": (lambda s, X, Y, B, Z: total_loss(X, Y, B, Z, HP, REG),
                   "X Y B Z"),
    "pairwise_distances": (lambda s, Z: pairwise_distances(Z), "Z"),
}


def ends_cleanly(call, capfd):
    """Run ``call``: it returns or raises a SlisemapError, warns nothing
    but the package's own UserWarnings, and writes nothing to the
    C-level stderr.  Returns the error, or None."""
    capfd.readouterr()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except SlisemapError as exc:
            error = exc
    assert [str(w.message) for w in caught
            if w.category is not UserWarning] == []
    assert capfd.readouterr().err == ""
    return error


@pytest.mark.parametrize("name", CALLS)
@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_arrays_end_cleanly(name, data, sol, capfd):
    call, args = CALLS[name]
    drawn = {k: data.draw(DRAWN[k], label=k) for k in args.split()}
    ends_cleanly(lambda: call(sol, **drawn), capfd)


def _text(shape):
    a = np.zeros(shape, dtype=object)
    a.flat[0] = "a"
    return a


def _with(a, value):
    a = a.copy()
    a[0, 0] = value
    return a


V = VALID
REFUSED = {
    "total_loss text B": (lambda: total_loss(
        V["X"], V["Y"], _text((N, 3)), V["Z"], HP, REG), DataError, "B"),
    "local_loss_matrix text B": (lambda: local_loss_matrix(
        _text((N, 3)), V["X"], V["Y"], REG), DataError, "B"),
    "row_contributions text Z": (lambda: row_contributions(
        V["X"], V["Y"], V["B"], _text((N, 2)), HP, REG), DataError, "Z"),
    "escape text B": (lambda: escape(V["X"], V["Y"], _text((N, 3)), V["Z"],
                                     REG), DataError, "B"),
    "pairwise_distances text": (lambda: pairwise_distances(_text((N, 2))),
                                DataError, "Z"),
    "softmax_weights text": (lambda: softmax_weights(_text((N, N))),
                             DataError, "D"),
    "softmax_weights_row text": (lambda: softmax_weights_row(
        _text((N, 2)), 0), DataError, "Z"),
    "pca_scores text X": (lambda: pca_scores(_text((N, 3)), 2), DataError,
                          "X"),
    "fit_global_model text X": (lambda: fit_global_model(
        _text((N, 3)), V["Y"], REG), DataError, "X"),
    "fit_global_model NaN X": (lambda: fit_global_model(
        _with(V["X"], np.nan), V["Y"], REG), DataError, "X"),
    "fit_global_model inf X": (lambda: fit_global_model(
        _with(V["X"], np.inf), V["Y"], REG), DataError, "X"),
    "knn_indices 1-D Z": (lambda: knn_indices(np.arange(5.0), 2), ShapeError,
                          "Z"),
    "cluster_purity text Z": (lambda: cluster_purity(
        _text((N, 2)), V["labels"], 2), DataError, "Z"),
    "normalize text": (lambda: normalize(_text((N, 2))), DataError, "X_raw"),
    "apply_normalization text": (lambda: apply_normalization(
        _text((N, 2)), NORM), DataError, "x_raw"),
    "logit_transform text": (lambda: logit_transform("a"), DataError,
                             "logit_transform input"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_with_the_array_named(case, capfd):
    call, error, name = REFUSED[case]
    exc = ends_cleanly(call, capfd)
    assert type(exc) is error
    assert str(exc).startswith(f"{name} has ")
