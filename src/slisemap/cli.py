"""Command-line pipeline: generate, fit, add, metrics, sweep, plot, export.

Every run writes a JSON manifest next to its outputs recording the resolved
parameters, input/output checksums, wall-clock duration, package, numpy and
BLAS versions and the thread variables, so any output can be reproduced
bit-identically from its manifest under the same SLISEMAP_THREADS and
numpy/BLAS build.  :func:`_files` derives a command's manifest path,
inputs and outputs from its flags.  Before a command runs, :func:`main`
refuses an output path that resolves to one of its inputs or to another of
its outputs (a data error), so no run destroys a file it reads.  Each
``cmd_*`` returns whether it wrote its outputs, and :func:`main` then
times the command and writes the manifest.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARIABLES, __version__
from . import data as datamod
from . import metrics as metricsmod
from . import plotting
from . import solver as solvermod
from .errors import DataError, NumericError, SlisemapError, check_number
from .model import TaskKind
from .objective import Hyperparams, local_loss_matrix

PROG = "slisemap"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _files(args):
    """What a command reads and writes, from its flags alone:
    ``(manifest_path, inputs, outputs)``, each file a ``(name, path)``
    pair named as the overwrite guard names it."""
    inputs = [(f"the --{flag} input", getattr(args, flag))
              for flag in ("solution", "data", "labels")
              if getattr(args, flag, None)]
    if args.command == "generate":
        out = Path(args.out)
        return out / "manifest.json", inputs, [
            ("--out", out / name)
            for name in ("data.csv", "labels.csv", "true_coefs.csv")]
    outputs = [("--out", args.out)]
    if args.command == "metrics":
        outputs.append(("the CSV report", _report_csv(args.out)))
    if getattr(args, "models_out", None):
        outputs.append(("--models-out", args.models_out))
    return str(args.out) + ".manifest.json", inputs, outputs


def _blas_build():
    """The name and version of the BLAS that numpy was built with, as numpy
    reports them, or None where it does not (before numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        return None


def _write_manifest(args, started):
    manifest_path, inputs, outputs = _files(args)
    params = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "inputs": {str(p): _sha256(p) for _, p in inputs},
        "outputs": {str(p): _sha256(p) for _, p in outputs},
        "duration_seconds": time.perf_counter() - started,
        "versions": {"slisemap": __version__, "numpy": np.__version__,
                     "blas": _blas_build()},
        "thread_variables": {v: os.environ.get(v) for v in
                             ("SLISEMAP_THREADS", *BLAS_THREAD_VARIABLES)},
    }
    datamod.write_json(manifest_path, doc)


def _bounded(name, kind, low, *, strict=False, high=None):
    """The argparse type ``name``: text read as ``kind`` (int or float)
    whose value passes :func:`errors.check_number` with ``low``, ``strict``
    and ``high``.  A value it refuses is a usage error (exit 2); argparse
    names the flag, so the rule's leading name is dropped."""
    def parse(text):
        return check_number(name, kind(text), low=low, strict=strict,
                            high=high, integer=kind is int,
                            error=lambda message: argparse.ArgumentTypeError(
                                message.partition(" ")[2]))
    parse.__name__ = name  # argparse names it in "invalid ... value"
    return parse


_positive_float = _bounded("_positive_float", float, 0, strict=True)
_nonneg_float = _bounded("_nonneg_float", float, 0)
_positive_int = _bounded("_positive_int", int, 1)
_nonneg_int = _bounded("_nonneg_int", int, 0)
_quantile = _bounded("_quantile", float, 0, high=1)


def _load_for_fit(args):
    ds = datamod.load_csv(args.data, args.target, args.task,
                          label_column=args.label_column)
    if args.task == "classification":
        return ds, TaskKind.classification(ds.Y.shape[1])
    return ds, TaskKind(args.task)


def _fit_dataset(ds: datamod.Dataset, task: TaskKind, hp: Hyperparams,
                 args, seed: int) -> solvermod.Solution:
    config = solvermod.SolverConfig(max_outer_iters=args.max_outer_iters,
                                    lbfgs_max_iters=args.lbfgs_max_iters,
                                    rel_tol=args.rel_tol, seed=seed)
    Y_train = datamod.training_response(ds.Y, task)
    return solvermod.fit(ds.X, Y_train, hp, task, config,
                         column_names=ds.column_names,
                         normalization=ds.normalization,
                         target_names=ds.target_names)


def _coef_names(sol: solvermod.Solution) -> list[str]:
    base = list(sol.column_names) + ["intercept"]
    if sol.task.is_classification:
        return [f"{sol.target_names[c]}:{name}"
                for c in range(sol.task.n_classes - 1) for name in base]
    return base


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    spec = datamod.RsynthSpec(n=args.n, m=args.m, k_clusters=args.k_clusters,
                              cluster_std=args.cluster_std,
                              noise_std=args.noise_std, seed=args.seed)
    ds, beta = datamod.generate_rsynth(spec)
    data_path, labels_path, coefs_path = (p for _, p in _files(args)[2])
    Path(args.out).mkdir(parents=True, exist_ok=True)
    datamod.write_csv(data_path, ds.column_names + ["y"],
                      np.hstack([ds.X_raw, ds.Y]))
    datamod.write_csv(labels_path, ["label"], ds.labels[:, None])
    datamod.write_csv(coefs_path, ds.column_names, beta)
    print(f"wrote {data_path} ({spec.n} rows, {spec.m} features, "
          f"{spec.k_clusters} clusters)")
    return True


def cmd_fit(args):
    hp = Hyperparams(lambda_z=args.lambda_z, lambda_lasso=args.lambda_lasso,
                     d=args.d)
    ds, task = _load_for_fit(args)
    ds = datamod.subsample(ds, args.subsample or ds.n, args.seed)
    sol = _fit_dataset(ds, task, hp, args, args.seed)
    sol.save(args.out)
    if float(np.linalg.norm(sol.Z, axis=1).max()) < 0.1:
        print(f"{PROG}: warning: embedding collapsed toward the origin "
              "(max row norm < 0.1); lambda-z is probably too large",
              file=sys.stderr)
    print(f"final loss {sol.final_loss:.6g} after "
          f"{sol.outer_iters_used - 1} outer iterations, stopped on "
          f"{sol.stop_reason} (n={sol.n})")
    return True


def cmd_add(args):
    sol = solvermod.Solution.load(args.solution)
    X_raw, Y, names, _, _ = datamod.read_columns(
        args.data, sol.target_names, sol.task.kind)
    if not len(Y):
        print(f"{PROG}: warning: {args.data} has no data rows; nothing to add",
              file=sys.stderr)
        return False
    if set(names) != set(sol.column_names):
        raise DataError(
            f"covariate columns {names} do not match the "
            f"solution's {list(sol.column_names)}")
    order = [names.index(c) for c in sol.column_names]
    X_new = datamod.apply_normalization(X_raw[:, order], sol.normalization)
    Y_new = datamod.training_response(Y, sol.task)
    B_new, Z_new, losses = solvermod.add_new(sol, X_new, Y_new,
                                             solvermod.SolverConfig(),
                                             one_by_one=args.one_by_one)
    d = sol.Z.shape[1]
    header = (["index"] + [f"z{i + 1}" for i in range(d)]
              + _coef_names(sol) + ["loss"])
    rows = np.hstack([np.arange(len(losses))[:, None], Z_new, B_new,
                      losses[:, None]])
    datamod.write_csv(args.out, header, rows)
    print(f"added {len(losses)} points; mean loss contribution "
          f"{losses.mean():.6g}")
    return True


def cmd_metrics(args):
    sol = solvermod.Solution.load(args.solution)
    labels = datamod.read_labels(args.labels, sol.n) if args.labels else None
    ks = args.k or [25]
    report = metricsmod.compute_report(sol, ks, labels=labels,
                                       quantile=args.quantile)
    report.save_json(args.out)
    report.save_csv(_report_csv(args.out))
    for metric, k, v in report.rows():
        suffix = f" (k={k})" if k != "" else ""
        print(f"{metric}{suffix}: {v:.6g}")
    return True


def _report_csv(out) -> Path:
    """Where ``metrics --out`` writes its CSV report: next to the JSON."""
    return Path(out).with_suffix(".csv")


def cmd_sweep(args):
    full, task = _load_for_fit(args)
    rows = []
    for idx, lz in enumerate(args.lambda_z):
        seed = args.seed + idx
        ds = datamod.subsample(full, args.subsample or full.n, seed)
        for k in args.k or ():
            metricsmod.check_k(k, ds.n)
        hp = Hyperparams(lambda_z=lz, lambda_lasso=args.lambda_lasso, d=args.d)
        sol = _fit_dataset(ds, task, hp, args, seed)
        ks = args.k if args.k else [k for k in (5, 10, 25, 50) if k < sol.n]
        report = metricsmod.compute_report(sol, ks, quantile=args.quantile)
        for k in ks:
            rows.append([lz, k, report.fidelity_knn[k], report.coverage_knn[k],
                         report.fidelity_point, report.coverage_full,
                         report.threshold_l0, sol.final_loss, seed])
        print(f"lambda_z={lz:g}: final loss {sol.final_loss:.6g}")
    datamod.write_csv(args.out, ["lambda_z", "k", "fidelity_knn",
                                 "coverage_knn", "fidelity_point",
                                 "coverage_full", "threshold_l0",
                                 "final_loss", "seed"], rows)
    return True


def cmd_plot(args):
    sol = solvermod.Solution.load(args.solution)
    labels = datamod.read_labels(args.labels, sol.n) if args.labels else None
    mode = args.color_by
    if mode == "label":
        if labels is None:
            raise DataError("--color-by label needs --labels")
        svg = plotting.scatter_svg(sol.Z, labels, categorical=True,
                                   title="embedding by label",
                                   legend_label="label")
    elif mode == "loss":
        per_point = np.diag(local_loss_matrix(sol.B, sol.X, sol.Y, sol.task))
        svg = plotting.scatter_svg(sol.Z, per_point,
                                   title="embedding by local loss",
                                   legend_label="loss")
    elif mode.startswith("coefficient:"):
        name = mode.split(":", 1)[1]
        names = _coef_names(sol)
        if name not in names:
            raise DataError(
                f"unknown coefficient {name!r}; valid names: "
                f"{', '.join(names)}")
        svg = plotting.scatter_svg(sol.Z, sol.B[:, names.index(name)],
                                   title=f"embedding by coefficient {name}",
                                   legend_label=name)
    else:
        raise DataError(f"unknown --color-by mode {mode!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    if args.models_out:
        centroids, assign = plotting.kmeans(sol.B, args.model_clusters,
                                            sol.seed)
        counts = [int((assign == j).sum()) for j in range(centroids.shape[0])]
        panels = plotting.model_panels_svg(centroids, counts, _coef_names(sol))
        with open(args.models_out, "w", encoding="utf-8") as fh:
            fh.write(panels)
    print(f"wrote {args.out}")
    return True


def cmd_export(args):
    sol = solvermod.Solution.load(args.solution)
    d = sol.Z.shape[1]
    header = ["index"]
    blocks = [np.arange(sol.n)[:, None]]
    if args.what in ("Z", "both"):
        header += [f"z{i + 1}" for i in range(d)]
        blocks.append(sol.Z)
    if args.what in ("B", "both"):
        header += _coef_names(sol)
        blocks.append(sol.B)
    datamod.write_csv(args.out, header, np.hstack(blocks))
    print(f"wrote {args.out}")
    return True


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_fit_flags(p, with_lambda_z=True):
    p.add_argument("--data", required=True, help="input CSV (header row)")
    p.add_argument("--target", action="append", required=True,
                   help="response column; repeat for class probabilities")
    p.add_argument("--task", default="regression",
                   choices=["regression", "classification", "binary-logit"])
    p.add_argument("--label-column", default=None,
                   help="column holding ground-truth cluster ids")
    if with_lambda_z:
        p.add_argument("--lambda-z", type=_positive_float, required=True,
                       dest="lambda_z", help="embedding penalty (> 0)")
    p.add_argument("--lambda-lasso", type=_nonneg_float,
                   default=Hyperparams.lambda_lasso, dest="lambda_lasso")
    p.add_argument("--d", type=_positive_int, default=Hyperparams.d,
                   help="embedding dimension")
    p.add_argument("--seed", type=_nonneg_int,
                   default=solvermod.SolverConfig.seed)
    p.add_argument("--subsample", type=_positive_int, default=None,
                   help="fit on a random subsample of this size")
    p.add_argument("--max-outer-iters", type=_nonneg_int,
                   default=solvermod.SolverConfig.max_outer_iters,
                   help="escape rounds after the first solve (0: none)")
    p.add_argument("--lbfgs-max-iters", type=_positive_int,
                   default=solvermod.SolverConfig.lbfgs_max_iters)
    p.add_argument("--rel-tol", type=_positive_float,
                   default=solvermod.SolverConfig.rel_tol,
                   help="relative loss tolerance of each inner L-BFGS "
                        "solve (the escape rounds stop on their own 0.1%% "
                        "rule)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Joint low-dimensional embeddings and per-point "
                    "interpretable local models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic clustered "
                                        "regression benchmark")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--k-clusters", type=_positive_int,
                   default=datamod.RsynthSpec.k_clusters)
    p.add_argument("--cluster-std", type=_nonneg_float,
                   default=datamod.RsynthSpec.cluster_std)
    p.add_argument("--noise-std", type=_nonneg_float,
                   default=datamod.RsynthSpec.noise_std)
    p.add_argument("--seed", type=_nonneg_int,
                   default=datamod.RsynthSpec.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit local models and embedding")
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="solution JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("add", help="add new points to a fitted solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--one-by-one", action="store_true",
                   help="add each point independently against the original "
                        "solution")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("metrics", help="fidelity/coverage/purity report")
    p.add_argument("--solution", required=True)
    p.add_argument("--k", type=_positive_int, action="append",
                   help="neighbourhood size; repeatable (default 25)")
    p.add_argument("--labels", default=None, help="labels CSV for purity")
    p.add_argument("--quantile", type=_quantile, default=0.3)
    p.add_argument("--out", required=True, help="report JSON path "
                                                "(CSV written alongside)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="fidelity/coverage diagnostics over a "
                                     "lambda-z grid")
    _add_fit_flags(p, with_lambda_z=False)
    p.add_argument("--lambda-z", type=_positive_float, action="append",
                   required=True, dest="lambda_z",
                   help="grid value; repeatable")
    p.add_argument("--k", type=_positive_int, action="append",
                   help="neighbourhood size; repeatable")
    p.add_argument("--quantile", type=_quantile, default=0.3,
                   help="loss quantile of the global model for coverage")
    p.add_argument("--out", required=True, help="long-format CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render the embedding as SVG")
    p.add_argument("--solution", required=True)
    p.add_argument("--color-by", default="loss", dest="color_by",
                   help="loss | label | coefficient:NAME")
    p.add_argument("--labels", default=None)
    p.add_argument("--out", required=True, help="scatter SVG path")
    p.add_argument("--models-out", default=None,
                   help="also render clustered local-model panels here")
    p.add_argument("--model-clusters", type=_positive_int, default=5)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("export", help="dump embedding/coefficients as CSV")
    p.add_argument("--solution", required=True)
    p.add_argument("--what", choices=["Z", "B", "both"], default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def _check_outputs(args) -> None:
    """Refuse, before the command runs, an output path that resolves to
    one of its input paths or to another of its outputs: writing it would
    destroy a file the command reads or writes, and the manifest would
    hash the wrong bytes."""
    _, inputs, outputs = _files(args)
    claimed = {Path(path).resolve(): name for name, path in inputs}
    for name, path in outputs:
        where = Path(path).resolve()
        if where in claimed:
            raise DataError(f"{name} would overwrite {claimed[where]}: "
                            f"both are {path}")
        claimed[where] = f"the {name} output"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _check_outputs(args)
        if args.func(args):
            _write_manifest(args, started)
        return 0
    except NumericError as exc:
        print(f"{PROG}: error: numeric: {exc}", file=sys.stderr)
        return 4
    except SlisemapError as exc:
        print(f"{PROG}: error: data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{PROG}: error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
