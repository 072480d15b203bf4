"""Tests for the summary of ``tools/bench_pairs.py`` on canned benchmark
output; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "purity_25", "unit": "fraction", "better": "higher",
     "bound": 0.05},
]


def output(correct=True, failed=0, **metrics) -> str:
    """A benchmark run's stdout: metric lines, then its result line."""
    lines = [f"{name} {value} s" for name, value in metrics.items()]
    lines.append(json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"}
                    for name, value in metrics.items()}}))
    return "\n".join(lines) + "\n"


def run(side, pair, stdout, returncode=0, workload="w"):
    return {"side": side, "workload": workload, "pair": pair,
            "returncode": returncode,
            "result": bench_pairs.parse_result(stdout)}


def metric_line(lines, name):
    [line] = [line for line in lines if line.strip().startswith(name + " ")]
    return line


class TestSummarize:
    def test_medians_quartiles_and_pairs_better(self):
        fits = [(1.0, 0.9), (2.0, 2.0), (3.0, 3.3), (4.0, 3.0), (5.0, 4.5)]
        runs = [run(side, i, output(fit_s=v, purity_25=0.5))
                for i, pair in enumerate(fits, start=1)
                for side, v in zip(("parent", "change"), pair)]
        lines, clean = bench_pairs.summarize(runs, END_TO_END)
        assert clean
        assert lines[0] == "w: failed operations parent 0, change 0"
        assert metric_line(lines, "fit_s").endswith(
            "parent 3 [2, 4], change 3 [2, 3.3], +0.0%, "
            "better in 3/5 pairs")  # the tie in pair 2 counts for neither
        assert metric_line(lines, "purity_25").endswith(
            "+0.0%, better in 0/5 pairs")

    @pytest.mark.parametrize("name, parent, change, worse", [
        ("fit_s", 1.0, 1.3, True),
        ("fit_s", 1.0, 1.2, False),
        ("fit_s", 1.0, 0.5, False),
        ("purity_25", 0.9, 0.8, True),
        ("purity_25", 0.9, 0.88, False),
        ("purity_25", 0.5, 0.9, False),
    ])
    def test_worse_than_bound_is_flagged(self, name, parent, change, worse):
        other = {"fit_s": 1.0, "purity_25": 0.5}
        runs = [run("parent", 1, output(**{**other, name: parent})),
                run("change", 1, output(**{**other, name: change}))]
        lines, clean = bench_pairs.summarize(runs, END_TO_END)
        assert clean
        assert metric_line(lines, name).endswith("WORSE") == worse

    def test_unclean_runs_are_listed(self):
        good = output(fit_s=1.0, purity_25=0.5)
        runs = [run("parent", 1, good), run("change", 1, good),
                run("parent", 2, output(correct=False, fit_s=1.0)),
                run("change", 2, output(failed=3, fit_s=1.0)),
                run("parent", 3, "Traceback ...\n", returncode=1),
                run("change", 3, good, returncode=2)]
        lines, clean = bench_pairs.summarize(runs, END_TO_END)
        assert not clean
        assert lines[0] == "w: failed operations parent 0, change 3"
        assert [line for line in lines if "RUN" in line] == [
            "  RUN parent pair 2: incorrect outputs",
            "  RUN change pair 2: 3 failed operations",
            "  RUN parent pair 3: exit code 1; no result line",
            "  RUN change pair 3: exit code 2"]
        # pairs 1 and 2 report fit_s on both sides, only pair 1 purity_25
        assert "better in 0/2 pairs" in metric_line(lines, "fit_s")
        assert "better in 0/1 pairs" in metric_line(lines, "purity_25")

    def test_workloads_are_reported_apart(self):
        runs = [run(side, 1, output(fit_s=v, purity_25=0.5), workload=wl)
                for wl, v in (("a", 1.0), ("b", 2.0))
                for side in ("parent", "change")]
        lines, _ = bench_pairs.summarize(runs, END_TO_END)
        assert [line for line in lines if not line.startswith(" ")] == [
            "a: failed operations parent 0, change 0",
            "b: failed operations parent 0, change 0"]
