"""Data handling: the clustered synthetic regression benchmark, CSV
ingestion/export, column standardization with an intercept column, and
seeded subsampling.

Standardization convention: population standard deviation (divide by n).
Constant columns keep std 1 and become all zeros, with a warning.  The
stored per-column (mean, std) are reapplied verbatim to held-out points.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, ShapeError, check_array, check_fields, \
    check_number
from .model import BINARY_LOGIT, CLASSIFICATION, REGRESSION, TaskKind, \
    logit_transform


@dataclass(frozen=True)
class Normalization:
    """Per-column centering/scaling constants of the training data."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class RsynthSpec:
    """Parameters of the synthetic clustered regression generator.

    Each field passes :func:`errors.check_number` on construction, which
    raises a DataError naming it, and is stored as a Python int or float:
    ``n``, ``m`` and ``k_clusters`` are integers >= 1 with ``n >=
    k_clusters``, the two spreads finite numbers >= 0, and ``seed`` an
    integer >= 0."""

    n: int
    m: int
    k_clusters: int = 3
    cluster_std: float = 0.25
    noise_std: float = 0.1
    seed: int = 42

    def __post_init__(self):
        size = {"low": 1, "integer": True}
        check_fields(self, DataError, n=size, m=size, k_clusters=size,
                     cluster_std={"low": 0}, noise_std={"low": 0},
                     seed={"low": 0, "integer": True})
        if self.n < self.k_clusters:
            raise DataError(
                f"need n >= k_clusters, got n={self.n}, "
                f"k_clusters={self.k_clusters}")


@dataclass(frozen=True)
class Dataset:
    """An ingested table: raw covariates, their standardized+intercept
    version, responses on their original scale, and optional cluster
    labels."""

    X_raw: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    column_names: list[str]
    target_names: list[str]
    normalization: Normalization
    labels: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.X_raw.shape[0]


def normalize(X_raw: np.ndarray):
    """Standardize columns to zero mean / unit variance and append an
    intercept column of ones.  Returns ``(X, Normalization)``.  ``X_raw``
    must be a finite nonempty matrix (:func:`errors.check_array`): an
    infinite entry leaves its column NaN."""
    X_raw = check_array("X_raw", X_raw, ndim=2, finite=True)
    if X_raw.shape[0] < 1:
        raise ShapeError("covariates must form a nonempty 2-D matrix",
                         got=X_raw.shape)
    mean = X_raw.mean(axis=0)
    std = X_raw.std(axis=0)  # population convention
    constant = std == 0.0
    if constant.any():
        warnings.warn(
            f"{int(constant.sum())} constant column(s) left unscaled "
            "(std recorded as 1)")
        std = np.where(constant, 1.0, std)
    norm = Normalization(mean=mean, std=std)
    return apply_normalization(X_raw, norm), norm


def apply_normalization(x_raw: np.ndarray, normalization: Normalization) -> np.ndarray:
    """Map raw covariates (one vector or a matrix of rows) into the
    training basis: center, scale, append the intercept entry.  More than
    two axes, or a row length other than the normalization's, is a
    ShapeError."""
    x = check_array("x_raw", x_raw)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.ndim > 2 or x.shape[1] != normalization.mean.shape[0]:
        raise ShapeError("covariate length does not match the stored "
                         "normalization", expected=normalization.mean.shape[0],
                         got=x.shape[1])
    out = np.empty((x.shape[0], x.shape[1] + 1))
    out[:, :-1] = (x - normalization.mean) / normalization.std
    out[:, -1] = 1.0
    return out[0] if single else out


def generate_rsynth(spec: RsynthSpec):
    """Clustered linear-regime regression data.

    Per cluster j: coefficients beta_j ~ N(0, 1)^m and a centroid
    c_j ~ N(0, cluster_std^2)^m.  Each item picks a cluster uniformly,
    draws x ~ N(c_j, I) and y = x . beta_j + N(0, noise_std^2).  Returns
    ``(Dataset, true_coefs)`` where the dataset carries the cluster index
    of every item as its labels and ``true_coefs`` is the k x m matrix of
    generating coefficients (raw-covariate basis, no intercept).
    """
    rng = np.random.default_rng(spec.seed)
    beta = rng.standard_normal((spec.k_clusters, spec.m))
    centroids = rng.normal(0.0, spec.cluster_std, (spec.k_clusters, spec.m))
    labels = rng.integers(0, spec.k_clusters, spec.n)
    X_raw = centroids[labels] + rng.standard_normal((spec.n, spec.m))
    noise = rng.normal(0.0, spec.noise_std, spec.n)
    y = np.einsum("ij,ij->i", X_raw, beta[labels]) + noise
    X, norm = normalize(X_raw)
    ds = Dataset(X_raw=X_raw, X=X, Y=y[:, None],
                 column_names=[f"x{i + 1}" for i in range(spec.m)],
                 target_names=["y"], normalization=norm, labels=labels)
    return ds, beta


def training_response(Y: np.ndarray, task: TaskKind) -> np.ndarray:
    """Responses on the scale the models are trained on.

    Pass-through for regression and classification; the binary-logit task
    maps its probability column through the (clamped) logit.
    """
    if task.kind == "binary-logit":
        return logit_transform(Y)
    return Y


def _parse_cell(text: str, row: int, name: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(
            f'non-numeric value {text!r} at row {row}, column "{name}"'
        ) from None
    if not np.isfinite(v):
        raise DataError(f'non-finite value at row {row}, column "{name}"')
    return v


def _read_table(path):
    """A CSV's header, numeric rows and each row's number in the file
    (blank rows are skipped but counted).  The file must be UTF-8 text; a
    leading byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            header, rows, numbers = _read_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise DataError(f"{path}: not a readable CSV file ({exc})") from None
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return header, table, numbers


def _read_rows(path, reader):
    """The stripped header, the parsed rows and their row numbers of a
    ``csv.reader`` over the file ``path``."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    header = [h.strip() for h in header]
    for name in header:
        if header.count(name) > 1:
            raise DataError(f'{path}: column "{name}" appears twice in '
                            "the header")
    rows, numbers = [], []
    for i, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if len(row) < len(header):
            raise DataError(
                f'{path}: missing value at row {i}, column '
                f'"{header[len(row)]}"')
        if len(row) > len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} cells, header has "
                f"{len(header)}")
        rows.append([_parse_cell(c.strip(), i, header[j])
                     for j, c in enumerate(row)])
        numbers.append(i)
    return header, rows, numbers


def _integers(path, header, table, numbers, j) -> np.ndarray:
    """Column ``j`` of a table as integers: class ids or cluster labels.  A
    cell that is not an integer (or beyond 2**53, where floats skip
    integers) is a DataError naming its row and column."""
    values = table[:, j]
    bad = np.flatnonzero((values != np.round(values))
                         | (np.abs(values) > 2.0 ** 53))
    if bad.size:
        raise DataError(
            f'{path}: {values[bad[0]]:g} at row {numbers[bad[0]]}, column '
            f'"{header[j]}" is not an integer id')
    return values.astype(int)


def _one_hot(ids: np.ndarray, column: str, names=None):
    """Indicators of the class ``ids`` for targets ``names`` (by default
    ``column=v`` for every distinct id v, in sorted order).  A name matches
    the id equal to the number it holds: ``col=1e+06`` reads 1000000 only."""
    if names is None:
        names = [f"{column}={v}" for v in np.unique(ids)]
    try:
        held = np.array([float(t.rpartition("=")[2]) for t in names])
    except ValueError:  # names that do not all hold numbers match no id
        held = np.full(len(names), np.nan)
    Y = (ids[:, None] == held).astype(float)
    for v in ids[~Y.any(axis=1)][:1]:
        raise DataError(f'class id {v} in column "{column}" is not a class')
    return Y, names


def check_class_probabilities(Y: np.ndarray, name: str, rows=None) -> None:
    """Raise a DataError, naming ``name`` and the first bad row, unless
    every row of the classification responses ``Y`` is a probability
    vector: entries >= 0, summing to 1 within 1e-6.  ``rows[i]`` is how
    the message numbers row i (default: i)."""
    if Y.min(initial=0.0) < 0.0:
        raise DataError(f"classification responses in {name} must be "
                        "nonnegative")
    off = np.abs(Y.sum(axis=1) - 1.0)
    if off.max(initial=0.0) > 1e-6:
        i = int(np.argmax(off > 1e-6))
        raise DataError(
            f"classification responses in {name} must sum to 1 per row; "
            f"row {i if rows is None else rows[i]} sums to "
            f"{float(Y[i].sum())!r}")


def read_columns(path, target_columns, task: str, *,
                 label_column: Optional[str] = None):
    """Read a numeric CSV with a header row, without standardizing it.

    Returns ``(X_raw, Y, column_names, target_names, labels)``, with no
    rows for a header-only file.  ``task`` is a task kind; regression and
    binary-logit read one target column.  Classification reads several as
    per-class probabilities and one as integer class ids, expanded into
    indicators named ``col=v`` for the distinct ids v in sorted order.
    Target names of that form, as a fit saves them, are read as columns
    when the file has them all, and otherwise as the class ids in ``col``,
    expanded against those names.  ``label_column``, when given, is split
    off as integer cluster labels (``labels`` is None otherwise).
    """
    if task not in (REGRESSION, CLASSIFICATION, BINARY_LOGIT):
        raise DataError(f"unknown task kind {task!r}")
    target_names = ([target_columns] if isinstance(target_columns, str)
                    else list(target_columns))
    header, table, numbers = _read_table(path)
    read, names = target_names, None
    column = target_names[0].rpartition("=")[0]
    if (task == CLASSIFICATION and not set(read) <= set(header) and column
            and all(t.startswith(column + "=") for t in target_names)):
        read, names = [column], target_names
    for t in read + ([label_column] if label_column else []):
        if t not in header:
            raise DataError(f'{path}: missing column "{t}"')
    t_idx = [header.index(t) for t in read]
    l_idx = header.index(label_column) if label_column else None
    f_idx = [j for j in range(len(header))
             if j not in t_idx and j != l_idx]
    if not f_idx:
        raise DataError(f"{path}: no covariate columns left")
    X_raw = table[:, f_idx]
    Y = table[:, t_idx]

    if task == CLASSIFICATION:
        if len(read) == 1:
            Y, target_names = _one_hot(
                _integers(path, header, table, numbers, t_idx[0]), read[0],
                names)
        check_class_probabilities(Y, str(path), numbers)
    else:
        if Y.shape[1] != 1:
            raise DataError(f"{task} expects a single target column")
        if task == BINARY_LOGIT and ((Y < 0).any() or (Y > 1).any()):
            raise DataError("binary-logit responses must be probabilities "
                            "in [0, 1]")

    labels = (None if l_idx is None
              else _integers(path, header, table, numbers, l_idx))
    return X_raw, Y, [header[j] for j in f_idx], target_names, labels


def read_labels(path, n: int) -> np.ndarray:
    """The integer cluster labels of the ``n`` items of a solution, read
    from a one-column CSV with a header row."""
    header, table, numbers = _read_table(path)
    if len(header) != 1:
        raise DataError(f"{path}: labels file must have a single column")
    if table.shape[0] != n:
        raise DataError(f"{path}: {table.shape[0]} labels for {n} items")
    return _integers(path, header, table, numbers, 0)


def load_csv(path, target_columns, task: str, *,
             label_column: Optional[str] = None) -> Dataset:
    """Read a numeric CSV with a header row and at least one data row into
    a Dataset, its covariates standardized; the arguments are those of
    :func:`read_columns`."""
    X_raw, Y, column_names, target_names, labels = read_columns(
        path, target_columns, task, label_column=label_column)
    if not len(Y):
        raise DataError(f"{path}: no data rows")
    X, norm = normalize(X_raw)
    return Dataset(X_raw=X_raw, X=X, Y=Y, column_names=column_names,
                   target_names=target_names, normalization=norm,
                   labels=labels)


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a table, one list or array per row: floats (numpy ones
    included) as ``repr(float(v))``, with full binary64 round-trip
    precision, and other values as they print."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v
             for v in row] for row in rows)


def write_json(path, doc) -> None:
    """Write a JSON document with one-space indents and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def subsample(ds: Dataset, n0: int, seed: int) -> Dataset:
    """Uniform without-replacement subsample of ``min(n, n0)`` rows.

    Row order is preserved (indices are sorted) and the normalization is
    recomputed on the retained rows.  ``n0 >= n`` returns an equivalent
    dataset unchanged in content.  ``n0`` must pass
    :func:`errors.check_number` as an integer >= 1 and ``seed`` as one
    >= 0, or it is a DataError.
    """
    n0 = check_number("subsample size", n0, low=1, integer=True,
                      error=DataError)
    seed = check_number("seed", seed, low=0, integer=True, error=DataError)
    if n0 >= ds.n:
        return ds
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=n0, replace=False))
    X_raw = ds.X_raw[idx]
    X, norm = normalize(X_raw)
    return Dataset(X_raw=X_raw, X=X, Y=ds.Y[idx],
                   column_names=list(ds.column_names),
                   target_names=list(ds.target_names), normalization=norm,
                   labels=None if ds.labels is None else ds.labels[idx])
