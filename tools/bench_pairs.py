"""Compare a change with its parent on the benchmark: alternating pairs of
runs in two checkouts, summarized per end-to-end metric.

    python3 tools/bench_pairs.py PARENT [--pairs N]

``PARENT`` is a checkout of the parent commit (from ``git archive`` or
``git clone``); the change is the checkout this script is in.  For pair i
= 1..N (default 10) and each workload in the change's ``BENCHMARK.json``,
it runs the benchmark's command with ``--workload W --seed i --seconds
<run_seconds> --trace 0`` in both checkouts, one run at a time: odd pairs
run the parent first, even pairs the change first.

It prints one line per run as it ends, with the run's result object.
Then, for each workload and end-to-end metric, it prints each side's
median and quartiles, the relative change of the medians and in how many
pairs the change is better (ties count for neither side).  ``WORSE`` marks a metric
whose median is worse than the parent's by more than its ``bound``.  Each
run that exits non-zero, prints no result, is incorrect or has failed
operations is listed, and the script then exits 1.  It reads
``BENCHMARK.json`` and writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str):
    """The result object of a benchmark run (the JSON object on its last
    line), or None when the output ends without one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


def run_problems(run) -> list[str]:
    """Why the run ``run`` (a dict with ``returncode`` and ``result``) is
    not a clean one; empty when it is."""
    problems = []
    if run["returncode"] != 0:
        problems.append(f"exit code {run['returncode']}")
    result = run["result"]
    if result is None:
        problems.append("no result line")
        return problems
    if not result.get("correct"):
        problems.append("incorrect outputs")
    if result.get("failed"):
        problems.append(f"{result['failed']} failed operations")
    return problems


def _spread(values):
    """(median, first quartile, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(runs, end_to_end) -> tuple[list[str], bool]:
    """The report lines of ``runs`` and whether every run was clean.

    Each run is a dict with ``side`` ("parent" or "change"), ``workload``,
    ``pair``, ``returncode`` and ``result`` (:func:`parse_result`);
    ``end_to_end`` is the list of that name in ``BENCHMARK.json``.  A
    metric is compared over the pairs where both sides report it.
    """
    lines, clean = [], True
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for wl in workloads:
        mine = [r for r in runs if r["workload"] == wl]
        failed = {side: sum((r["result"] or {}).get("failed", 0)
                            for r in mine if r["side"] == side)
                  for side in SIDES}
        lines.append(f"{wl}: failed operations parent {failed['parent']}, "
                     f"change {failed['change']}")
        for r in mine:
            problems = run_problems(r)
            if problems:
                clean = False
                lines.append(f"  RUN {r['side']} pair {r['pair']}: "
                             + "; ".join(problems))
        values = {}  # pair -> {side: {metric: value}}
        for r in mine:
            metrics = (r["result"] or {}).get("metrics", {})
            values.setdefault(r["pair"], {})[r["side"]] = {
                name: m["value"] for name, m in metrics.items()}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            pairs = [(v["parent"][name], v["change"][name])
                     for _, v in sorted(values.items())
                     if all(name in v.get(side, {}) for side in SIDES)]
            if not pairs:
                lines.append(f"  {name}: no pair reports it")
                continue
            p_med, p_q1, p_q3 = _spread([p for p, _ in pairs])
            c_med, c_q1, c_q3 = _spread([c for _, c in pairs])
            if p_med:
                rel = (c_med - p_med) / abs(p_med)
            else:
                rel = 0.0 if c_med == p_med else float("inf")
            better = sum(c < p if lower else c > p for p, c in pairs)
            worse = rel if lower else -rel
            flag = "  WORSE" if worse > spec["bound"] else ""
            lines.append(
                f"  {name} ({spec['unit']}, {spec['better']} is better, "
                f"bound {spec['bound']:.0%}): parent {p_med:.6g} "
                f"[{p_q1:.6g}, {p_q3:.6g}], change {c_med:.6g} "
                f"[{c_q1:.6g}, {c_q3:.6g}], {rel:+.1%}, better in "
                f"{better}/{len(pairs)} pairs{flag}")
    return lines, clean


def run_one(checkout: Path, command, workload: str, pair: int,
            seconds) -> dict:
    """One benchmark run in ``checkout``, as a run dict without its side."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(pair),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return {"workload": workload, "pair": pair,
            "returncode": proc.returncode,
            "result": parse_result(proc.stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": _ROOT}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for wl in (w["name"] for w in bench["workloads"]):
            for side in order:
                run = run_one(checkouts[side], bench["command"], wl, pair,
                              bench["run_seconds"])
                run["side"] = side
                runs.append(run)
                print(f"# pair {pair} {wl} {side}: "
                      + ("; ".join(run_problems(run)) or "ok") + " "
                      + json.dumps(run["result"]), flush=True)
    lines, clean = summarize(runs, bench["end_to_end"])
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
