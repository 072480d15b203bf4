"""Joint low-dimensional embeddings and per-point interpretable local models.

The main entry points are :func:`slisemap.solver.fit` for fitting,
:func:`slisemap.solver.add_new` for out-of-sample extension,
:mod:`slisemap.metrics` for evaluation, :mod:`slisemap.data` for the
synthetic benchmark and CSV ingestion, and the ``slisemap`` CLI for the
whole pipeline.
"""

import os

# SLISEMAP_THREADS caps BLAS threading by setting those of these variables
# that are unset; it takes effect only if numpy is imported after slisemap.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
_threads = os.environ.get("SLISEMAP_THREADS")
if _threads:
    for _var in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(_var, _threads)

from .data import Dataset, Normalization, RsynthSpec, generate_rsynth, \
    load_csv, normalize, subsample
from .errors import DataError, NumericError, ShapeError, SlisemapError
from .metrics import MetricReport, cluster_purity, compute_report, coverage, \
    fidelity, fit_global_model, loss_threshold
from .model import TaskKind
from .objective import Hyperparams, total_loss
from .solver import Solution, SolverConfig, add_new, escape, fit

__all__ = [
    "Dataset", "Normalization", "RsynthSpec", "generate_rsynth", "load_csv",
    "normalize", "subsample", "DataError", "NumericError", "ShapeError",
    "SlisemapError", "MetricReport", "cluster_purity", "compute_report",
    "coverage", "fidelity", "fit_global_model", "loss_threshold", "TaskKind",
    "Hyperparams", "total_loss",
    "Solution", "SolverConfig", "add_new", "escape", "fit",
]

__version__ = "0.1.0"
