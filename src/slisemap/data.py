"""Data handling: the clustered synthetic regression benchmark, CSV
ingestion/export, column standardization with an intercept column, and
seeded subsampling.

Standardization convention: population standard deviation (divide by n).
Constant columns keep std 1 and become all zeros, with a warning.  The
stored per-column (mean, std) are reapplied verbatim to held-out points.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, ShapeError
from .model import TaskKind, logit_transform


@dataclass(frozen=True)
class Normalization:
    """Per-column centering/scaling constants of the training data."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class RsynthSpec:
    """Parameters of the synthetic clustered regression generator."""

    n: int
    m: int
    k_clusters: int = 3
    cluster_std: float = 0.25
    noise_std: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if not self.n >= self.k_clusters >= 1:
            raise DataError(
                f"need n >= k_clusters >= 1, got n={self.n}, "
                f"k_clusters={self.k_clusters}")
        if self.cluster_std < 0 or self.noise_std < 0:
            raise DataError("standard deviations must be nonnegative")


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
    intercept column of ones.  Returns ``(X, Normalization)``."""
    X_raw = np.asarray(X_raw, dtype=float)
    if X_raw.ndim != 2 or X_raw.shape[0] < 1:
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
    training basis: center, scale, append the intercept entry."""
    x = np.asarray(x_raw, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != normalization.mean.shape[0]:
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        rows = []
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
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def _one_hot(values: np.ndarray, column: str, names=None):
    """Indicators of the ids ``values`` for targets ``names`` (all present)."""
    if names is None:
        names = [f"{column}={v:g}" for v in np.unique(values)]
    Y = np.array([[f"{column}={v:g}" == t for t in names] for v in values],
                 dtype=float)
    for v in values[~Y.any(axis=1)][:1]:
        raise DataError(f'class id {v:g} in column "{column}" is not a class')
    return Y, names


def one_hot_column(target_names):
    """The class-id column ``cls`` whose one-hot expansion gave the target
    names ``cls=0``, ``cls=1``, ..., or None for other names."""
    column = target_names[0].rpartition("=")[0]
    if column and all(t.startswith(column + "=") for t in target_names):
        return column
    return None


def read_columns(path, target_columns, task: TaskKind, *,
                 label_column: Optional[str] = None, one_hot: bool = False):
    """Read a numeric CSV with a header row, without standardizing it.

    Returns ``(X_raw, Y, column_names, target_names, labels)``.
    ``target_columns`` names the response column(s); classification expects
    one probability column per class whose rows form a simplex, unless
    ``one_hot`` is set, in which case a single column of class ids is
    expanded (``target_columns`` may then be a one-hot fit's target names).
    ``label_column``, when given, is split off as ground-truth cluster
    labels rather than a covariate (``labels`` is None otherwise).
    """
    if isinstance(target_columns, str):
        target_columns = [target_columns]
    target_columns = list(target_columns)
    column = one_hot_column(target_columns) if one_hot else None
    read = [column] if column else target_columns
    header, table = _read_table(path)
    if table.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
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
    target_names = list(target_columns)

    if task.is_classification:
        if one_hot:
            if Y.shape[1] != 1:
                raise DataError("--one-hot expects a single target column")
            Y, target_names = _one_hot(Y[:, 0], read[0],
                                       target_columns if column else None)
        if Y.shape[1] != task.n_classes:
            raise DataError(
                f"classification with {task.n_classes} classes needs "
                f"{task.n_classes} response columns, got {Y.shape[1]}")
        if (Y < 0).any():
            raise DataError("classification responses must be nonnegative")
        bad = np.abs(Y.sum(axis=1) - 1.0) > 1e-6
        if bad.any():
            raise DataError(
                f"classification responses must sum to 1 per row; row "
                f"{int(np.flatnonzero(bad)[0]) + 1} sums to "
                f"{Y[bad][0].sum()!r}")
    else:
        if Y.shape[1] != 1:
            raise DataError(f"{task.kind} expects a single target column")
        if task.kind == "binary-logit" and ((Y < 0).any() or (Y > 1).any()):
            raise DataError("binary-logit responses must be probabilities "
                            "in [0, 1]")

    labels = table[:, l_idx].astype(int) if l_idx is not None else None
    return X_raw, Y, [header[j] for j in f_idx], target_names, labels


def load_csv(path, target_columns, task: TaskKind, *,
             label_column: Optional[str] = None,
             one_hot: bool = False) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset, its covariates
    standardized; the arguments are those of :func:`read_columns`."""
    X_raw, Y, column_names, target_names, labels = read_columns(
        path, target_columns, task, label_column=label_column,
        one_hot=one_hot)
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


def subsample(ds: Dataset, n0: int, seed: int) -> Dataset:
    """Uniform without-replacement subsample of ``min(n, n0)`` rows.

    Row order is preserved (indices are sorted) and the normalization is
    recomputed on the retained rows.  ``n0 >= n`` returns an equivalent
    dataset unchanged in content.
    """
    if n0 < 1:
        raise DataError(f"subsample size must be >= 1, got {n0}")
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
