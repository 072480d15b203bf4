"""Command-line pipeline: generate, fit, add, metrics, sweep, plot, export.

Every run writes a JSON manifest next to its outputs recording the resolved
parameters, input/output checksums and wall-clock duration, so any output
can be reproduced bit-identically from its manifest under the same
SLISEMAP_THREADS and numpy/BLAS build.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from . import plotting
from . import solver as solvermod
from .errors import DataError, NumericError, SlisemapError
from .model import TaskKind
from .objective import Hyperparams, local_loss_matrix

PROG = "slisemap"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_manifest(manifest_path, command, params, inputs, outputs, started):
    doc = {
        "command": command,
        "parameters": params,
        "seed": params.get("seed"),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "duration_seconds": time.perf_counter() - started,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _positive_float(text):
    v = float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return v


def _nonneg_float(text):
    v = float(text)
    if not v >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return v


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return v


def _nonneg_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return v


def _task_from_args(args) -> TaskKind:
    if args.task == "classification":
        n_classes = len(args.target)
        if getattr(args, "one_hot", False):
            if args.n_classes is None:
                raise DataError("--one-hot needs --n-classes")
            n_classes = args.n_classes
        elif args.n_classes is not None:
            n_classes = args.n_classes
        return TaskKind.classification(n_classes)
    return TaskKind(args.task)


def _solver_config(args) -> solvermod.SolverConfig:
    return solvermod.SolverConfig(
        max_outer_iters=args.max_outer_iters,
        lbfgs_max_iters=args.lbfgs_max_iters,
        rel_tol=args.rel_tol,
        seed=args.seed,
    )


def _load_for_fit(args, task: TaskKind) -> datamod.Dataset:
    ds = datamod.load_csv(args.data, args.target, task,
                          label_column=args.label_column,
                          one_hot=getattr(args, "one_hot", False))
    if args.subsample is not None:
        ds = datamod.subsample(ds, args.subsample, args.seed)
    return ds


def _fit_dataset(ds: datamod.Dataset, task: TaskKind, hp: Hyperparams,
                 config: solvermod.SolverConfig) -> solvermod.Solution:
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

def cmd_generate(args) -> int:
    started = time.perf_counter()
    spec = datamod.RsynthSpec(n=args.n, m=args.m, k_clusters=args.k_clusters,
                              cluster_std=args.cluster_std,
                              noise_std=args.noise_std, seed=args.seed)
    ds, beta = datamod.generate_rsynth(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.csv"
    labels_path = out / "labels.csv"
    coefs_path = out / "true_coefs.csv"
    datamod.write_csv(data_path, ds.column_names + ["y"],
                      np.hstack([ds.X_raw, ds.Y]))
    with open(labels_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"])
        for v in ds.labels:
            writer.writerow([int(v)])
    datamod.write_csv(coefs_path, ds.column_names, beta)
    _write_manifest(out / "manifest.json", "generate", _params(args), [],
                    [data_path, labels_path, coefs_path], started)
    print(f"wrote {data_path} ({spec.n} rows, {spec.m} features, "
          f"{spec.k_clusters} clusters)")
    return 0


def cmd_fit(args) -> int:
    started = time.perf_counter()
    task = _task_from_args(args)
    hp = Hyperparams(lambda_z=args.lambda_z, lambda_lasso=args.lambda_lasso,
                     d=args.d)
    ds = _load_for_fit(args, task)
    sol = _fit_dataset(ds, task, hp, _solver_config(args))
    sol.save(args.out)
    if float(np.linalg.norm(sol.Z, axis=1).max()) < 0.1:
        print(f"{PROG}: warning: embedding collapsed toward the origin "
              "(max row norm < 0.1); lambda-z is probably too large",
              file=sys.stderr)
    _write_manifest(str(args.out) + ".manifest.json", "fit", _params(args),
                    [args.data], [args.out], started)
    print(f"final loss {sol.final_loss:.6g} after {sol.outer_iters_used} "
          f"outer iterations (n={sol.n})")
    return 0


def cmd_add(args) -> int:
    started = time.perf_counter()
    sol = solvermod.Solution.load(args.solution)
    with open(args.data, "r", encoding="utf-8") as fh:
        n_lines = sum(1 for line in fh if line.strip())
    if n_lines <= 1:
        print(f"{PROG}: warning: {args.data} has no data rows; nothing to add",
              file=sys.stderr)
        return 0
    X_raw, Y, names, _, _ = datamod.read_columns(
        args.data, sol.target_names, sol.task,
        one_hot=datamod.one_hot_column(sol.target_names) is not None)
    if set(names) != set(sol.column_names):
        raise DataError(
            f"covariate columns {names} do not match the "
            f"solution's {sol.column_names}")
    order = [names.index(c) for c in sol.column_names]
    X_new = datamod.apply_normalization(X_raw[:, order], sol.normalization)
    Y_new = datamod.training_response(Y, sol.task)
    config = solvermod.SolverConfig(seed=sol.seed)
    B_new, Z_new, losses = solvermod.add_new(sol, X_new, Y_new, config,
                                             one_by_one=args.one_by_one)
    d = sol.Z.shape[1]
    header = (["index"] + [f"z{i + 1}" for i in range(d)]
              + _coef_names(sol) + ["loss"])
    rows = np.hstack([np.arange(len(losses))[:, None], Z_new, B_new,
                      losses[:, None]])
    datamod.write_csv(args.out, header, rows)
    _write_manifest(str(args.out) + ".manifest.json", "add", _params(args),
                    [args.solution, args.data], [args.out], started)
    print(f"added {len(losses)} points; mean loss contribution "
          f"{losses.mean():.6g}")
    return 0


def cmd_metrics(args) -> int:
    started = time.perf_counter()
    sol = solvermod.Solution.load(args.solution)
    labels = None
    inputs = [args.solution]
    if args.labels:
        labels = _read_labels(args.labels, sol.n)
        inputs.append(args.labels)
    ks = args.k or [25]
    report = metricsmod.compute_report(sol, ks, labels=labels,
                                       quantile=args.quantile)
    out_json = Path(args.out)
    out_csv = out_json.with_suffix(".csv")
    report.save_json(out_json)
    report.save_csv(out_csv)
    _write_manifest(str(out_json) + ".manifest.json", "metrics",
                    _params(args), inputs, [out_json, out_csv], started)
    for metric, k, v in report.rows():
        suffix = f" (k={k})" if k != "" else ""
        print(f"{metric}{suffix}: {v:.6g}")
    return 0


def _read_labels(path, n: int) -> np.ndarray:
    header, table = datamod._read_table(path)
    if table.shape[1] != 1:
        raise DataError(f"{path}: labels file must have a single column")
    if table.shape[0] != n:
        raise DataError(f"{path}: {table.shape[0]} labels for {n} items")
    return table[:, 0].astype(int)


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    metricsmod.check_quantile(args.quantile)
    task = _task_from_args(args)
    rows = []
    for idx, lz in enumerate(args.lambda_z):
        seed = args.seed + idx
        fit_args = argparse.Namespace(**{**vars(args), "seed": seed})
        ds = _load_for_fit(fit_args, task)
        for k in args.k or ():
            metricsmod.check_k(k, ds.n)
        hp = Hyperparams(lambda_z=lz, lambda_lasso=args.lambda_lasso, d=args.d)
        sol = _fit_dataset(ds, task, hp, _solver_config(fit_args))
        ks = args.k if args.k else [k for k in (5, 10, 25, 50) if k < sol.n]
        report = metricsmod.compute_report(sol, ks, quantile=args.quantile)
        for k in ks:
            rows.append([lz, k, report.fidelity_knn[k], report.coverage_knn[k],
                         report.fidelity_point, report.coverage_full,
                         report.threshold_l0, sol.final_loss, seed])
        print(f"lambda_z={lz:g}: final loss {sol.final_loss:.6g}")
    header = ["lambda_z", "k", "fidelity_knn", "coverage_knn",
              "fidelity_point", "coverage_full", "threshold_l0",
              "final_loss", "seed"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])
    _write_manifest(str(args.out) + ".manifest.json", "sweep", _params(args),
                    [args.data], [args.out], started)
    return 0


def cmd_plot(args) -> int:
    started = time.perf_counter()
    sol = solvermod.Solution.load(args.solution)
    inputs = [args.solution]
    mode = args.color_by
    if mode == "label":
        if not args.labels:
            raise DataError("--color-by label needs --labels")
        labels = _read_labels(args.labels, sol.n)
        inputs.append(args.labels)
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
    outputs = [args.out]
    if args.models_out:
        centroids, assign = plotting.kmeans(sol.B, args.model_clusters,
                                            sol.seed)
        counts = [int((assign == j).sum()) for j in range(centroids.shape[0])]
        panels = plotting.model_panels_svg(centroids, counts, _coef_names(sol))
        with open(args.models_out, "w", encoding="utf-8") as fh:
            fh.write(panels)
        outputs.append(args.models_out)
    _write_manifest(str(args.out) + ".manifest.json", "plot", _params(args),
                    inputs, outputs, started)
    print(f"wrote {args.out}")
    return 0


def cmd_export(args) -> int:
    started = time.perf_counter()
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
    _write_manifest(str(args.out) + ".manifest.json", "export",
                    _params(args), [args.solution], [args.out], started)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_fit_flags(p, with_lambda_z=True):
    p.add_argument("--data", required=True, help="input CSV (header row)")
    p.add_argument("--target", action="append", required=True,
                   help="response column; repeat for classification")
    p.add_argument("--task", default="regression",
                   choices=["regression", "classification", "binary-logit"])
    p.add_argument("--n-classes", type=_positive_int, default=None,
                   help="class count (defaults to the number of targets)")
    p.add_argument("--one-hot", action="store_true",
                   help="expand a single class-id target column")
    p.add_argument("--label-column", default=None,
                   help="column holding ground-truth cluster ids")
    if with_lambda_z:
        p.add_argument("--lambda-z", type=_positive_float, required=True,
                       dest="lambda_z", help="embedding penalty (> 0)")
    p.add_argument("--lambda-lasso", type=_nonneg_float, default=1e-4,
                   dest="lambda_lasso")
    p.add_argument("--d", type=_positive_int, default=2,
                   help="embedding dimension")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--subsample", type=_positive_int, default=None,
                   help="fit on a random subsample of this size")
    p.add_argument("--max-outer-iters", type=_nonneg_int, default=100,
                   help="escape rounds after the first solve (0: none)")
    p.add_argument("--lbfgs-max-iters", type=_positive_int, default=500)
    p.add_argument("--rel-tol", type=_positive_float, default=1e-6,
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
    p.add_argument("--k-clusters", type=_positive_int, default=3)
    p.add_argument("--cluster-std", type=_nonneg_float, default=0.25)
    p.add_argument("--noise-std", type=_nonneg_float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
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
    p.add_argument("--quantile", type=_nonneg_float, default=0.3)
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
    p.add_argument("--quantile", type=_nonneg_float, default=0.3,
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
