"""The three benchmark workloads: how their inputs are generated and what
one round of the library user's path does with them.

A round runs, for every training set of the workload: ``solver.fit``,
``metrics.compute_report`` (repeated, it is short), ``solver.add_new`` of
the fresh points in batches of ``BATCH_SIZE``, and ``solver.add_new`` of
the same points one at a time.  Every round of a run repeats exactly the
same operations on exactly the same inputs, so their outputs must be
bit-for-bit equal.

The training sets are fixed per workload; ``--seed`` draws the fresh
points from the same generating population (see README.md for why).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from slisemap import metrics, solver
from slisemap.data import apply_normalization, generate_rsynth, RsynthSpec
from slisemap.model import TaskKind
from slisemap.objective import Hyperparams, loss_and_gradients

import checks

LAMBDA_Z = 0.1
KS = (5, 10, 25, 50)
PURITY_K = 25
# Fresh points are added in batches and then one at a time.  One joint
# optimization's evaluation count varies by half between draws, so the
# batch time is a sum over many small batches, of more points than are
# added one at a time.
BATCH_SIZE = 10
READD_ROWS = 10  # the first rows of each training set
REPORT_REPEATS = 20
N_CLASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    classification: bool
    n: int
    m: int
    train_seeds: tuple
    max_outer_iters: int
    # fresh points per round, split evenly over the training sets: added in
    # batches, and the first fresh_per_round of them one at a time; enough
    # that the short phases' figures do not depend much on the draw
    batch_per_round: int
    fresh_per_round: int


WORKLOADS = {w.name: w for w in (
    # Z side of each evaluation dominates; one escape round keeps a fit
    # within the run (a full fit is about 2.8k evaluations, 30 s).  Not in
    # BENCHMARK.json: three workloads do not fit the benchmark's time
    # budget (4 + 22 runs per workload within 3420 s) at a run length that
    # keeps the timings steady on a shared machine (README.md, "Bounds").
    Workload("reg400", False, 400, 20, (1,), 1, 720, 300),
    # the n x n x p data term dominates
    Workload("clf200", True, 150, 10, (1,), 1, 720, 360),
    # fixed per-evaluation cost and the whole outer escape loop
    Workload("reg200-seeds", False, 200, 10, (1, 2, 3), 100, 1200, 360),
)}


@dataclass
class Problem:
    """One training set with its fit settings and its fresh points."""

    X: np.ndarray
    Y: np.ndarray
    labels: np.ndarray
    X_new: np.ndarray  # added in batches
    Y_new: np.ndarray
    n_single: int  # the first n_single fresh points are added one at a time
    task: TaskKind
    hp: Hyperparams
    config: solver.SolverConfig
    probe: np.ndarray  # random unit direction for the gradient check


def _population(spec: RsynthSpec):
    """Generating coefficients and centroids of ``generate_rsynth(spec)``,
    by replaying the first two draws of its random stream."""
    rng = np.random.default_rng(spec.seed)
    beta = rng.standard_normal((spec.k_clusters, spec.m))
    centroids = rng.normal(0.0, spec.cluster_std, (spec.k_clusters, spec.m))
    return beta, centroids


def _class_models(spec: RsynthSpec):
    """Cluster-specific multinomial models, one (m + 1) x (p - 1) block
    (intercept last) per cluster; the last class is the reference."""
    rng = np.random.default_rng([spec.seed, 7])
    return rng.standard_normal((spec.k_clusters, spec.m + 1, N_CLASSES - 1))


def class_probabilities(X_raw, labels, models):
    Xa = np.hstack([X_raw, np.ones((X_raw.shape[0], 1))])
    logits = np.einsum("ij,ijc->ic", Xa, models[labels])
    logits = np.hstack([logits, np.zeros((X_raw.shape[0], 1))])
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits)
    return P / P.sum(axis=1, keepdims=True)


def make_problems(wl: Workload, seed: int) -> list[Problem]:
    n_fresh = wl.batch_per_round // len(wl.train_seeds)
    task = TaskKind.classification(N_CLASSES) if wl.classification \
        else TaskKind.regression()
    problems = []
    for i, train_seed in enumerate(wl.train_seeds):
        spec = RsynthSpec(n=wl.n, m=wl.m, seed=train_seed)
        ds, true_coefs = generate_rsynth(spec)
        beta, centroids = _population(spec)
        if not np.array_equal(beta, true_coefs):
            raise RuntimeError("the replay of generate_rsynth's population "
                               "no longer matches the generator")
        rng = np.random.default_rng([seed, i])
        new_labels = rng.integers(0, spec.k_clusters, n_fresh)
        X_raw_new = centroids[new_labels] \
            + rng.standard_normal((n_fresh, wl.m))
        if wl.classification:
            models = _class_models(spec)
            Y = class_probabilities(ds.X_raw, ds.labels, models)
            Y_new = class_probabilities(X_raw_new, new_labels, models)
        else:
            Y = ds.Y
            y_new = np.einsum("ij,ij->i", X_raw_new, beta[new_labels]) \
                + rng.normal(0.0, spec.noise_std, n_fresh)
            Y_new = y_new[:, None]
        dim = wl.n * (task.coef_len(wl.m + 1) + 2)
        probe = rng.standard_normal(dim)
        problems.append(Problem(
            X=ds.X, Y=Y, labels=ds.labels,
            X_new=apply_normalization(X_raw_new, ds.normalization),
            Y_new=Y_new, n_single=wl.fresh_per_round // len(wl.train_seeds),
            task=task,
            hp=Hyperparams(lambda_z=LAMBDA_Z),
            config=solver.SolverConfig(seed=train_seed,
                                       max_outer_iters=wl.max_outer_iters),
            probe=probe / np.linalg.norm(probe)))
    return problems


def warm_up(problems: list[Problem]) -> None:
    """One objective evaluation per training set at its starting point."""
    for p in problems:
        B0, Z0 = solver.init(p.X, p.Y, p.hp, p.task, p.config.seed)
        loss_and_gradients(p.X, p.Y, B0, Z0, p.hp, p.task)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@dataclass
class RoundResult:
    """Timings, outputs and check outcomes of one round."""

    fit_s: float = 0.0  # wall seconds of the round's fits
    fit_evals: int = 0
    final_loss: float = 0.0
    purity: list = field(default_factory=list)
    add_losses: list = field(default_factory=list)
    solutions: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # spans of the timed operations (wall times; speed.Probe scales them)
    fit_spans: list = field(default_factory=list)
    report_spans: list = field(default_factory=list)
    batch_spans: list = field(default_factory=list)
    point_spans: list = field(default_factory=list)

    def record(self, bad: list[str], ops: int, label: str) -> None:
        """Count ``ops`` operations, all failed if any check failed;
        ``bad`` names the failed checks."""
        self.attempted += ops
        if bad:
            self.failed += ops
            self.failures.append(f"{label}: {', '.join(bad)}")


def run_round(problems: list[Problem], tracer, meter) -> RoundResult:
    """One round; ``meter`` (a ``speed.Probe``) samples the machine's
    speed after every timed operation and in bursts around each fit."""
    res = RoundResult()
    for p in problems:
        # fit
        meter.burst()
        with tracer.span("phase.fit") as sp:
            sol = solver.fit(p.X, p.Y, p.hp, p.task, p.config)
        meter.burst()
        res.fit_s += sp.seconds
        res.fit_spans.append(sp)
        fit_solves = tracer.results_under(sp, "lbfgs.minimize")
        res.fit_evals += sum(r.n_evals for r in fit_solves)
        res.final_loss += sol.final_loss
        res.solutions.append(sol)
        with tracer.span("phase.check"):
            res.record(checks.check_fit(sol, p), 1, "fit")

        # evaluation report, repeated because one call is short
        reports = []
        for _ in range(REPORT_REPEATS):
            with tracer.span("phase.report") as sp:
                reports.append(metrics.compute_report(
                    sol, KS, labels=p.labels, config=p.config))
            meter.sample()
            res.report_spans.append(sp)
        report = reports[0].to_json_dict()
        res.purity.append(reports[0].purity_knn[PURITY_K])
        with tracer.span("phase.check"):
            bad = checks.check_report(reports[0], sol, p, KS)
            if any(r.to_json_dict() != report for r in reports[1:]):
                bad.append("repeated reports differ")
            res.record(bad, REPORT_REPEATS, "report")

        # all fresh points in batches, each optimized jointly
        batches = []
        for lo in range(0, p.X_new.shape[0], BATCH_SIZE):
            part = slice(lo, lo + BATCH_SIZE)
            with tracer.span("phase.add_batch") as sp:
                batches.append(solver.add_new(sol, p.X_new[part],
                                              p.Y_new[part], p.config))
            meter.sample()
            res.batch_spans.append(sp)
            with tracer.span("phase.check"):
                res.record(checks.check_added(
                    sol, p.X_new[part], p.Y_new[part], *batches[-1]),
                    1, f"add batch {lo // BATCH_SIZE}")

        # the same points one at a time, each against the fitted solution
        singles = []
        for i in range(p.n_single):
            with tracer.span("phase.add_point") as sp:
                singles.append(solver.add_new(
                    sol, p.X_new[i:i + 1], p.Y_new[i:i + 1], p.config))
            meter.sample()
            res.point_spans.append(sp)
            res.add_losses.append(float(singles[-1][2][0]))
        with tracer.span("phase.check"):
            for i, out in enumerate(singles):
                res.record(checks.check_added(
                    sol, p.X_new[i:i + 1], p.Y_new[i:i + 1], *out),
                    1, f"add point {i}")
            for i in range(READD_ROWS):
                res.record(checks.check_readd(sol, i, p.config), 1,
                           f"re-add row {i}")

        res.digests.append(_digest(
            sol.B, sol.Z, sol.final_loss, sol.loss_history,
            sol.outer_iters_used,
            json.dumps(report, sort_keys=True),
            *(a for out in batches + singles for a in out)))
    return res
