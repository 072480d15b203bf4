"""Benchmark of the library user's path: fit, evaluate, add new points.

    python3 benchmarks/run.py --workload reg400 --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload (see workloads.py) until ``--seconds``
have passed, checks every output, prints each metric as ``name value
unit`` and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced reference round, then
traced rounds, and reports the per-layer metrics.

BLAS threads are capped at min(SLISEMAP_THREADS or 1, nproc) before numpy
is imported.  The package is imported from ``src/`` next to this
directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
REPLAY_REPEATS = 25


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(int(os.environ.get("SLISEMAP_THREADS", "1")), nproc))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package():
    if not (SRC / "slisemap" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import slisemap
    if Path(slisemap.__file__).resolve().parent != SRC / "slisemap":
        sys.exit(f"benchmark: imported slisemap from {slisemap.__file__}, "
                 f"not from {SRC}")


def time_setups(args) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, run one after
    another: each imports the package, generates the inputs and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the seconds it took and stop (see time_setups)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = cap_threads()
    t0 = time.perf_counter()
    import_package()
    import numpy as np
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    problems = workloads.make_problems(wl, args.seed)
    workloads.warm_up(problems)
    if args.setup_only:
        print(time.perf_counter() - t0)
        return 0
    if args.trace:
        tracing.check_wrapped()
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} blas_threads {threads} "
          f"numpy {np.__version__}", flush=True)

    setups = time_setups(args)
    print("# set-up seconds of fresh processes: "
          + " ".join(f"{s:.4g}" for s in setups), flush=True)
    meter = speed.Probe()

    start = time.perf_counter()
    rounds = []
    if args.trace:
        # untraced reference round, then traced rounds
        ref = tracing.Tracer()
        ref.install(tracing.COUNTS_ONLY)
        try:
            reference = workloads.run_round(problems, ref, meter)
        finally:
            ref.uninstall()
    tracer = tracing.Tracer()
    if not args.trace:
        # outside the tracer's wrappers; the traced run does without
        meter.install()
    tracer.install(tracing.ALL_LAYERS if args.trace else tracing.COUNTS_ONLY)
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workloads.run_round(problems, tracer, meter))
    finally:
        tracer.uninstall()
        meter.uninstall()

    first = reference if args.trace else rounds[0]
    correct = all(r.digests == first.digests for r in rounds)
    if not correct:
        print("# outputs differ between rounds"
              + (" (traced vs untraced)" if args.trace else ""))
    every = ([reference] if args.trace else []) + rounds
    for failure in dict.fromkeys(f for r in every for f in r.failures):
        print(f"# FAILED {failure}")
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)

    fit_s = statistics.median(r.fit_s for r in rounds)
    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, len(rounds),
            [s.loss_history for r in rounds for s in r.solutions],
            fit_s)
        metrics.update(tracing.replay_layers(rounds[0].solutions[0],
                                             REPLAY_REPEATS))
        metrics["trace.fit_s_ratio"] = (fit_s / reference.fit_s, "ratio")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{wl.name}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "blas_threads": threads, "rounds": len(rounds),
                       "spans": tracer.dump()}, fh)
    else:
        def per_round(attr, seconds):
            return statistics.median(
                sum(seconds(sp) for sp in getattr(r, attr)) for r in rounds)

        def per_call(attr, seconds):
            return [seconds(sp) for r in rounds for sp in getattr(r, attr)]

        scaled, net = meter.scaled, meter.net
        points_ms = [1e3 * s for s in per_call("point_spans", scaled)]
        print("# unscaled wall times:"
              f" fit_s {per_round('fit_spans', net):.4g}"
              f" report_s {statistics.median(per_call('report_spans', net)):.4g}"
              f" add_batch_s {per_round('batch_spans', net):.4g}"
              " add_point_p50_ms"
              f" {1e3 * statistics.median(per_call('point_spans', net)):.4g};"
              " median speed factor"
              f" {speed.REFERENCE_S / statistics.median(meter.seconds):.4g}"
              f" over {len(meter.seconds)} kernel samples")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "fit_s": (per_round("fit_spans", scaled), "s"),
            "fit_evals": (first.fit_evals, "count"),
            "final_loss": (first.final_loss, "loss"),
            "purity_25": (float(np.mean(first.purity)), "fraction"),
            "report_s": (statistics.median(per_call("report_spans", scaled)),
                         "s"),
            "add_batch_s": (per_round("batch_spans", scaled), "s"),
            "add_point_p50_ms": (statistics.median(points_ms), "ms"),
            "add_point_p90_ms": (percentile(points_ms, 90), "ms"),
            "add_loss": (float(np.mean(first.add_losses)), "loss"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    print(f"# rounds {len(rounds)} in {time.perf_counter() - start:.1f} s, "
          f"{len(rounds[0].point_spans)} single adds per round")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
