"""Print one line of output digests per training set of the benchmark
workloads ``clf200`` and ``reg200-seeds``.

Each line holds sha256 prefixes of ``solver.fit``'s fitted state (B, Z and
final loss) and, apart, of its record (loss history, round count and stop
reason), so a change to the stopping rule that keeps the fitted state shows
as one; of ``solver.escape`` at the fitted solution; of
``metrics.compute_report`` at k = 5, 10, 25, 50 with labels; and of
``solver.add_new`` of 20 fresh points as one batch and of 10 fresh points
one by one.  The same 10 points are also added with 10 separate single-row
calls on the one solution, and the script raises if their bytes differ from
the ``one_by_one`` call, if a call's returned loss differs from
``row_contributions`` of its row, or if it is above the call's copy score
f_r (``solver._copy_scores``, the lowest loss of the new row as a copy of
an old row).  The batch digest follows the joint start rule (each row
copies the cheapest old row among the half-weight neighbourhood of the
old model that fits its point best) and the first-step bound every add
shares; the one-by-one digest follows the single-add rule.  It also
raises if a fitted solution's document, read back with
``Solution.from_json_dict``, does not give the same document.  Two commits
whose lines are equal give bit-identical outputs on these inputs.  The
training sets and fresh points are those of
``benchmarks/workloads.make_problems(wl, 1)``.  Two more lines, ``clf80
p=2`` and ``clf80 p=5``, do the same for a 2-class and a 5-class problem
(``class_problem``), so that classification outputs are pinned beyond
``clf200``'s 3 classes.

The last line, ``cli``, runs the command-line pipeline (``generate`` at
n = 60, ``fit``, ``metrics``, ``add``, ``sweep --subsample``, ``export`` and
``plot``) in a temporary directory and holds a sha256 prefix of every file
it writes except the manifests, which record paths and a wall time.

    python3 tools/output_digests.py

BLAS runs on one thread, since its thread count changes the outputs.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, set by the package itself: importing slisemap copies
# SLISEMAP_THREADS into those of its BLAS thread variables that are unset,
# so every such variable is cleared first and slisemap loads before numpy.
for _var in [v for v in os.environ if v.endswith("_NUM_THREADS")]:
    del os.environ[_var]
os.environ["SLISEMAP_THREADS"] = "1"
_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "benchmarks")]

from slisemap import cli, metrics, solver  # noqa: E402  (before numpy)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from slisemap.data import RsynthSpec, generate_rsynth  # noqa: E402
from slisemap.model import TaskKind  # noqa: E402
from slisemap.objective import Hyperparams, local_loss_matrix  # noqa: E402

N_BATCH = 20
N_SINGLE = 10
CLASS_COUNTS = (2, 5)  # the extra classification lines


def class_problem(p: int) -> workloads.Problem:
    """A small p-class problem: the first 80 rows of rsynth(100, 4,
    seed 1) with class probabilities from seeded per-cluster multinomial
    models, fitted with ``SolverConfig(seed=1, max_outer_iters=1)``; the
    last N_BATCH = 20 rows are the fresh points."""
    n, m = 80, 4
    spec = RsynthSpec(n=n + N_BATCH, m=m, seed=1)
    ds, _ = generate_rsynth(spec)
    models = np.random.default_rng([p, 7]).standard_normal(
        (spec.k_clusters, m + 1, p - 1))
    Y = workloads.class_probabilities(ds.X_raw, ds.labels, models)
    return workloads.Problem(
        X=ds.X[:n], Y=Y[:n], labels=ds.labels[:n], X_new=ds.X[n:],
        Y_new=Y[n:], n_single=N_SINGLE, task=TaskKind.classification(p),
        hp=Hyperparams(lambda_z=workloads.LAMBDA_Z),
        config=solver.SolverConfig(seed=1, max_outer_iters=1), probe=None)


def digest(*parts) -> str:
    """sha256 prefix of arrays (raw bytes) and other values (repr)."""
    return workloads._digest(*parts)[:16]


def digest_line(p) -> str:
    sol = solver.fit(p.X, p.Y, p.hp, p.task, p.config)
    doc = json.dumps(sol.to_json_dict())
    if json.dumps(solver.Solution.from_json_dict(json.loads(doc))
                  .to_json_dict()) != doc:
        raise AssertionError("a saved solution does not read back as the "
                             "same document")
    report = metrics.compute_report(sol, workloads.KS, labels=p.labels,
                                    config=p.config)
    batch = solver.add_new(sol, p.X_new[:N_BATCH], p.Y_new[:N_BATCH],
                           p.config)
    single = solver.add_new(sol, p.X_new[:N_SINGLE], p.Y_new[:N_SINGLE],
                            p.config, one_by_one=True)
    calls = [solver.add_new(sol, p.X_new[i:i + 1], p.Y_new[i:i + 1],
                            p.config) for i in range(N_SINGLE)]
    if [np.concatenate(parts).tobytes() for parts in zip(*calls)] != \
            [a.tobytes() for a in single]:
        raise AssertionError("single-row add_new calls differ from the "
                             "one_by_one call")
    for i, (B_i, Z_i, loss) in enumerate(calls):
        x, y = p.X_new[i:i + 1], p.Y_new[i:i + 1]
        contrib = solver.row_contributions(
            np.vstack([sol.X, x]), np.vstack([sol.Y, y]), B_i, Z_i,
            sol.hyperparams, sol.task, Z_old=sol.Z)
        if loss.tobytes() != contrib.tobytes():
            raise AssertionError("a single add's loss differs from "
                                 "row_contributions of its row")
        L = local_loss_matrix(sol.B, x, y, sol.task)[:, 0]
        if loss[0] > solver._copy_scores(sol._start_base, L).min():
            raise AssertionError("a single add ends above its copy score")
    return " ".join([
        "state", digest(sol.B, sol.Z, sol.final_loss),
        "record", digest(list(sol.loss_history), sol.outer_iters_used,
                         sol.stop_reason),
        "escape", digest(*solver.escape(sol.X, sol.Y, sol.B, sol.Z, sol.task)),
        "report", digest(json.dumps(report.to_json_dict(), sort_keys=True)),
        "add", f"{digest(*batch)}/{digest(*single)}"])


def cli_line() -> str:
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        gen, sol = root / "gen", root / "sol.json"
        data = ["--data", gen / "data.csv", "--target", "y", "--seed", "1"]
        labels = ["--labels", gen / "labels.csv"]
        for argv in (
                ["generate", "--n", "60", "--m", "4", "--seed", "1",
                 "--out", gen],
                ["fit", *data, "--lambda-z", "0.1", "--out", sol],
                ["metrics", "--solution", sol, "--k", "5", "--k", "10",
                 *labels, "--out", root / "report.json"],
                ["add", "--solution", sol, "--data", gen / "data.csv",
                 "--out", root / "added.csv"],
                ["sweep", *data, "--lambda-z", "0.05", "--lambda-z", "0.2",
                 "--subsample", "40", "--k", "5", "--out", root / "sweep.csv"],
                ["export", "--solution", sol, "--out", root / "export.csv"],
                ["plot", "--solution", sol, "--color-by", "label", *labels,
                 "--out", root / "plot.svg", "--models-out",
                 root / "models.svg"]):
            if cli.main([str(a) for a in argv]) != 0:
                raise AssertionError(f"slisemap {argv[0]} failed")
        files = sorted(p for p in root.rglob("*")
                       if p.is_file() and not p.name.endswith("manifest.json"))
        return " ".join(
            f"{p.relative_to(root).as_posix()} "
            f"{hashlib.sha256(p.read_bytes()).hexdigest()[:16]}"
            for p in files)


def main() -> None:
    for name in ("clf200", "reg200-seeds"):
        wl = workloads.WORKLOADS[name]
        for seed, p in zip(wl.train_seeds, workloads.make_problems(wl, 1)):
            print(f"{name} seed {seed}: {digest_line(p)}", flush=True)
    for p in CLASS_COUNTS:
        print(f"clf80 p={p} seed 1: {digest_line(class_problem(p))}",
              flush=True)
    print(f"cli: {cli_line()}", flush=True)


if __name__ == "__main__":
    main()
