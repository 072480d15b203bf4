"""Print the fixed cost of small solves: microseconds per objective
evaluation and per L-BFGS direction, as the minimum, median and
interquartile range over repeats.

One line per case, at the sizes of the benchmark workloads ``reg200-seeds``
(regression, n = 200, m = 10) and ``clf200`` (3 classes, n = 150, m = 10):

- ``full``: ``objective.loss_and_gradients`` on all n rows;
- ``added k=1`` and ``added k=10``: ``objective.added_loss_and_gradients``
  of k appended rows against the n frozen ones, as in ``solver.add_new``;
- ``two_loop``: ``lbfgs._two_loop`` with a full curvature history, at the
  vector length of a fit (n rows) and of a single add (one row).

Every evaluation of a case goes to one ``Workspace`` with the same (X, Y,
Z_old) arrays, as within one solve, and takes the next of ``STARTS``
perturbed (B, Z).  A case is timed as N batches (``--repeats``, default 30)
of ``CALLS`` calls.  The line gives the fastest batch's time per call,
since a shared host slows some batches by up to 1.5x and never speeds one
up, then the median and the interquartile range of the batches' times per
call, which show how far the host moved them: a difference between two
runs smaller than their ranges is noise.

    python3 tools/eval_overhead.py [--repeats N]

BLAS runs on one thread, as in the benchmark.
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
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slisemap import lbfgs, objective, solver  # noqa: E402  (before numpy)
import argparse  # noqa: E402
import itertools  # noqa: E402
import time  # noqa: E402
from collections import deque  # noqa: E402

import numpy as np  # noqa: E402

from slisemap.data import RsynthSpec, generate_rsynth  # noqa: E402
from slisemap.model import TaskKind  # noqa: E402

CALLS = 200  # calls per timed batch
STARTS = 8  # distinct (B, Z) the calls of a case cycle through


def batch_us(call, repeats: int) -> tuple[float, float, float]:
    """(minimum, median, interquartile range) over ``repeats`` batches of
    CALLS calls of the time per call, in us."""
    call()  # warm-up: buffers, caches
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            call()
        times.append(1e6 * (time.perf_counter() - t0) / CALLS)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return min(times), float(median), float(q3 - q1)


def problem(classification: bool, n: int):
    """(X, Y, B, Z, hp, task) at the start of a fit on rsynth(n, 10)."""
    ds, _ = generate_rsynth(RsynthSpec(n=n, m=10, seed=1))
    if classification:
        task = TaskKind.classification(3)
        raw = np.random.default_rng(1).random((n, 3)) + 0.1
        Y = raw / raw.sum(axis=1, keepdims=True)
    else:
        task, Y = TaskKind.regression(), ds.Y
    hp = objective.Hyperparams(lambda_z=0.1)
    B, Z = solver.init(ds.X, Y, hp, task, seed=1)
    return ds.X, Y, B, Z, hp, task


def evaluation_cases(name: str, classification: bool, n: int, repeats: int):
    X, Y, B, Z, hp, task = problem(classification, n)
    rng = np.random.default_rng(2)

    def cycle(rows):
        """STARTS perturbed copies of ``rows`` of (B, Z), endlessly, as the
        trial points of a solve."""
        return itertools.cycle([
            (B[rows] + 1e-3 * rng.standard_normal(B[rows].shape),
             Z[rows] + 1e-3 * rng.standard_normal(Z[rows].shape))
            for _ in range(STARTS)])

    work, full = objective.Workspace(), cycle(slice(None))

    def full_call():
        objective.loss_and_gradients(X, Y, *next(full), hp, task, work=work)

    yield f"{name} full k={n}", batch_us(full_call, repeats)
    for k in (1, 10):
        # k new items (copies of the first k rows' items) after all n rows
        Xc, Yc = np.vstack([X, X[:k]]), np.vstack([Y, Y[:k]])
        added, work_k = cycle(slice(0, k)), objective.Workspace()

        def added_call():
            objective.added_loss_and_gradients(Xc, Yc, Z, *next(added), hp,
                                               task, work=work_k)

        yield f"{name} added k={k}", batch_us(added_call, repeats)


def two_loop_cases(repeats: int):
    rng = np.random.default_rng(3)
    for label, size in (("fit (200 rows)", 200 * 13),
                        ("single add (1 row)", 13)):
        pairs = deque(maxlen=lbfgs._HISTORY)
        for _ in range(lbfgs._HISTORY):
            s, y = rng.standard_normal(size), rng.standard_normal(size)
            y += 2.0 * s  # positive curvature
            pairs.append((s, y, 1.0 / float(s @ y)))
        g = rng.standard_normal(size)
        yield f"two_loop {label}", batch_us(
            lambda: lbfgs._two_loop(g, pairs, 0.5), repeats)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=30,
                    help="timed batches per case (default 30)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    print(f"us per call over {args.repeats} batches of {CALLS} calls: "
          "min, median, interquartile range")
    cases = [evaluation_cases(name, classification, n, args.repeats)
             for name, classification, n in (("reg200", False, 200),
                                             ("clf200", True, 150))]
    for label, us in itertools.chain(*cases, two_loop_cases(args.repeats)):
        print(f"{label:28s}" + "".join(f" {v:9.1f}" for v in us), flush=True)


if __name__ == "__main__":
    main()
