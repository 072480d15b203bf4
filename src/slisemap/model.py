"""White-box local model families: the task kinds and the logit transform.

Two model families are supported: linear regression with quadratic loss,
and multinomial logistic regression (last class is the reference) with
squared Hellinger loss.  Binary classification can alternatively be run
through a logit transform of the positive-class probability, after which
it is plain regression on the logit scale.

:class:`TaskKind` fixes the coefficient and response shapes of a task;
the losses themselves are computed, for whole matrices of models and
items at once, in :mod:`slisemap.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_array, check_fields

# Probabilities are clamped to [LOGIT_EPS, 1 - LOGIT_EPS] before the logit
# transform; black boxes routinely emit exact 0/1 and the transform must
# stay finite.
LOGIT_EPS = 1e-6

REGRESSION = "regression"
CLASSIFICATION = "classification"
BINARY_LOGIT = "binary-logit"


@dataclass(frozen=True)
class TaskKind:
    """What kind of responses the local models fit.

    ``kind`` is one of ``"regression"``, ``"classification"`` or
    ``"binary-logit"``; ``n_classes`` is only meaningful for
    classification, where it must pass :func:`errors.check_number` as an
    integer >= 2 (a DataError otherwise) and is stored as a Python int.
    """

    kind: str
    n_classes: int = 0

    def __post_init__(self):
        if self.kind not in (REGRESSION, CLASSIFICATION, BINARY_LOGIT):
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.kind == CLASSIFICATION:
            check_fields(self, DataError,
                         n_classes={"low": 2, "integer": True})
        elif self.n_classes != 0:
            raise DataError(f"{self.kind} does not take a class count")

    @classmethod
    def regression(cls) -> "TaskKind":
        return cls(REGRESSION)

    @classmethod
    def classification(cls, n_classes: int) -> "TaskKind":
        return cls(CLASSIFICATION, n_classes)

    @classmethod
    def binary_logit(cls) -> "TaskKind":
        return cls(BINARY_LOGIT)

    @property
    def is_classification(self) -> bool:
        return self.kind == CLASSIFICATION

    def coef_len(self, n_cols: int) -> int:
        """Length of one local-model coefficient row for ``n_cols`` covariate
        columns (intercept included)."""
        if self.is_classification:
            return (self.n_classes - 1) * n_cols
        return n_cols

    def response_dim(self) -> int:
        """Number of response columns the task trains on."""
        return self.n_classes if self.is_classification else 1

    def to_string(self) -> str:
        if self.is_classification:
            return f"{CLASSIFICATION}:{self.n_classes}"
        return self.kind

    @classmethod
    def from_string(cls, s: str) -> "TaskKind":
        """The task :meth:`to_string` writes as ``s``, which must be a
        string (a DataError otherwise)."""
        if not isinstance(s, str):
            raise DataError(f"'task' must be a string, got {s!r}")
        if s.startswith(CLASSIFICATION + ":"):
            return cls.classification(int(s.split(":", 1)[1]))
        return cls(s)  # a bare "classification" has no class count


def logit_transform(y1):
    """Log-odds of a probability (scalar or array), clamped away from 0/1.

    Inputs outside [0, 1] are rejected; exact 0/1 are clamped to
    ``LOGIT_EPS`` / ``1 - LOGIT_EPS`` so downstream regression stays finite.
    """
    y = check_array("logit_transform input", y1)
    if (y < 0).any() or (y > 1).any():
        bad = float(y[(y < 0) | (y > 1)].flat[0])
        raise DataError(f"logit_transform input {bad!r} outside [0, 1]")
    y = np.clip(y, LOGIT_EPS, 1.0 - LOGIT_EPS)
    out = np.log(y / (1.0 - y))
    return float(out) if np.isscalar(y1) or np.ndim(y1) == 0 else out
