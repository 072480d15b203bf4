"""Print how well out-of-sample adds place the fresh points of the benchmark
workloads ``clf200`` and ``reg200-seeds``, per training set and fresh-point
seed.

Each training set is fitted once, as ``benchmarks/workloads.make_problems``
builds it.  For each fresh-point seed (default 1, 2 and 3) the seed's fresh
points are added in joint batches of ``workloads.BATCH_SIZE``, and the first
``n_single`` of them one at a time, as a benchmark round adds them.  A line
gives:

- ``batch_evals``: objective evaluations of the joint-batch solves, summed;
- ``batch_loss``: the mean loss of the batch-added rows;
- ``single_loss``: the mean loss of the single-added rows;
- ``batch_purity`` and ``single_purity``: purity@25 of the added points
  among the training rows, the share of each added point's 25 nearest
  training rows in the embedding that share its cluster label.

``make_problems`` does not keep the fresh points' cluster labels, so the
script replays its label draw, and raises if the replayed points differ
from the problem's ``X_new``.  It reads ``benchmarks/`` and writes nothing.

    python3 tools/add_quality.py [--seeds 1 2 3]

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

from slisemap import lbfgs, solver  # noqa: E402  (before numpy)
import argparse  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from slisemap.data import (RsynthSpec, apply_normalization,  # noqa: E402
                           generate_rsynth)

WORKLOADS = ("clf200", "reg200-seeds")


def fresh_labels(wl: workloads.Workload, seed: int, i: int,
                 problem: workloads.Problem) -> np.ndarray:
    """The cluster labels of the fresh points of training set ``i`` of
    ``workloads.make_problems(wl, seed)``, from a replay of its draw; a
    RuntimeError if the replayed points are not ``problem.X_new``."""
    spec = RsynthSpec(n=wl.n, m=wl.m, seed=wl.train_seeds[i])
    ds, _ = generate_rsynth(spec)
    _, centroids = workloads._population(spec)
    n_fresh = wl.batch_per_round // len(wl.train_seeds)
    rng = np.random.default_rng([seed, i])
    labels = rng.integers(0, spec.k_clusters, n_fresh)
    X_raw = centroids[labels] + rng.standard_normal((n_fresh, wl.m))
    if apply_normalization(X_raw, ds.normalization).tobytes() \
            != problem.X_new.tobytes():
        raise RuntimeError("the replay of make_problems' fresh points no "
                           "longer matches the workload")
    return labels


def added_purity(Z_train, labels_train, Z_new, labels_new,
                 k: int = workloads.PURITY_K) -> float:
    """Mean over the rows of ``Z_new`` of the share of their ``k`` nearest
    rows of ``Z_train`` (ties to the smaller index) whose label in
    ``labels_train`` is the row's own in ``labels_new``."""
    D = ((Z_new[:, None, :] - Z_train[None, :, :]) ** 2).sum(axis=2)
    near = np.argsort(D, axis=1, kind="stable")[:, :k]
    return float((labels_train[near] == labels_new[:, None]).mean())


def add_line(sol: solver.Solution, problem: workloads.Problem,
             labels: np.ndarray) -> str:
    """The figures of one training set's fitted solution and one seed's
    fresh points, as ``name value`` pairs."""
    evals = []
    minimize = lbfgs.minimize

    def counting(*args, **kwargs):
        res = minimize(*args, **kwargs)
        evals.append(res.n_evals)
        return res

    X_new, Y_new, size = problem.X_new, problem.Y_new, workloads.BATCH_SIZE
    with mock.patch.object(lbfgs, "minimize", counting):
        batches = [solver.add_new(sol, X_new[lo:lo + size],
                                  Y_new[lo:lo + size], problem.config)
                   for lo in range(0, X_new.shape[0], size)]
    n = problem.n_single
    _, Z_single, single_losses = solver.add_new(
        sol, X_new[:n], Y_new[:n], problem.config, one_by_one=True)
    Z_batch = np.concatenate([Z for _, Z, _ in batches])
    batch_losses = np.concatenate([losses for _, _, losses in batches])
    purity = [added_purity(sol.Z, problem.labels, Z, lab)
              for Z, lab in ((Z_batch, labels), (Z_single, labels[:n]))]
    return (f"batch_evals {sum(evals)} "
            f"batch_loss {batch_losses.mean():.5f} "
            f"single_loss {single_losses.mean():.5f} "
            f"batch_purity {purity[0]:.3f} single_purity {purity[1]:.3f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="fresh-point seeds (default 1 2 3)")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        fits = {}
        for seed in args.seeds:
            for i, p in enumerate(workloads.make_problems(wl, seed)):
                if i not in fits:
                    fits[i] = solver.fit(p.X, p.Y, p.hp, p.task, p.config)
                labels = fresh_labels(wl, seed, i, p)
                print(f"{name} set {wl.train_seeds[i]} seed {seed}: "
                      f"{add_line(fits[i], p, labels)}", flush=True)


if __name__ == "__main__":
    main()
