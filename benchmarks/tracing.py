"""Spans around the calls the package makes across its module boundaries.

The package is not instrumented; instead the functions listed in
``WRAPPED`` are replaced, for the duration of a traced run, by wrappers
that record a span (name, start, end, parent) and, for some, a few facts
about the call.  The benchmark opens its own ``phase.*`` spans around the
library calls it makes, so every recorded span belongs to one phase.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SolveInfo:
    n_iters: int
    n_evals: int
    reason: str


def _solve_info(args, kwargs, result):
    return SolveInfo(result.n_iters, result.n_evals, result.reason)


def _escape_info(args, kwargs, result):
    """(rows whose (B, Z) the escape pass changed, rows)."""
    B, Z = np.asarray(args[2]), np.asarray(args[3])
    B_out, Z_out = result
    moved = (B_out != B).any(axis=1) | (Z_out != Z).any(axis=1)
    return int(moved.sum()), int(moved.shape[0])


# The one list of wrapped package functions:
# (module, attribute, span name, what to record about a call).
WRAPPED = (
    ("slisemap.solver", "loss_and_gradients", "objective.full", None),
    ("slisemap.solver", "added_loss_and_gradients", "objective.added", None),
    ("slisemap.solver", "escape", "solver.escape", _escape_info),
    ("slisemap.lbfgs", "minimize", "lbfgs.minimize", _solve_info),
    ("slisemap.metrics", "fit_global_model", "metrics.global_fit", None),
    ("slisemap.metrics", "knn_indices", "metrics.knn", None),
    ("slisemap.metrics", "local_loss_matrix", "metrics.loss_matrix", None),
)
ALL_LAYERS = tuple(w[2] for w in WRAPPED)
# what an untraced run needs: the evaluation counts of the fit's solves
COUNTS_ONLY = ("lbfgs.minimize",)


def _resolve(module_name, attr, name):
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if not callable(original):
        raise SystemExit(f"traced function {module_name}.{attr} (layer "
                         f"{name}) no longer exists; update WRAPPED in "
                         "benchmarks/tracing.py")
    return module, original


def check_wrapped() -> None:
    """Stop with an error naming the first wrapped function that is gone."""
    for module_name, attr, name, _ in WRAPPED:
        _resolve(module_name, attr, name)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "index", "end", "info")

    def __init__(self, name, parent, index):
        self.name = name
        self.parent = parent
        self.index = index
        self.end = None  # one past the index of the last descendant
        self.info = None
        self.t1 = None
        self.t0 = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans; ``install`` wraps the named layers of ``WRAPPED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved = []

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, len(self.spans))
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        sp.end = len(self.spans)
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def install(self, layers) -> None:
        for module_name, attr, name, describe in WRAPPED:
            if name in layers:
                module, original = _resolve(module_name, attr, name)
                setattr(module, attr, self._wrap(original, name, describe))
                self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if describe is not None:
                sp.info = describe(args, kwargs, result)
            return result
        return wrapper

    def results_under(self, sp: Span, name: str) -> list:
        return [s.info for s in self.spans[sp.index + 1:sp.end]
                if s.name == name]

    def dump(self) -> list:
        return [[s.name, s.t0, s.t1,
                 -1 if s.parent is None else s.parent.index,
                 None if s.info is None else str(s.info)]
                for s in self.spans]


def _phase(sp: Optional[Span]) -> Optional[str]:
    while sp is not None and not sp.name.startswith("phase."):
        sp = sp.parent
    return None if sp is None else sp.name


def wrapper_cost_s(calls=20000) -> float:
    """Seconds a traced call costs on top of a direct call."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop", None)
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / calls


def layer_metrics(tracer: Tracer, rounds: int, histories, fit_s) -> dict:
    """Per-layer figures of the traced rounds, per round or per call.

    ``histories`` are the ``loss_history`` lists of the traced fits and
    ``fit_s`` their median time per round.
    """
    by = {}
    child_s = {}  # span index -> seconds of its traced children
    for sp in tracer.spans:
        by.setdefault((_phase(sp), sp.name), []).append(sp)
        if sp.parent is not None and not sp.name.startswith("phase."):
            child_s[sp.parent.index] = child_s.get(sp.parent.index, 0.0) \
                + sp.seconds

    def get(phase, name):
        return by.get((phase, name), [])

    def mean_ms(spans):
        return 1e3 * float(np.mean([s.seconds for s in spans])) if spans \
            else 0.0

    def self_s(spans):
        return sum(s.seconds - child_s.get(s.index, 0.0) for s in spans)

    fit = "phase.fit"
    full = get(fit, "objective.full")
    added = get("phase.add_batch", "objective.added") \
        + get("phase.add_point", "objective.added")
    solves = get(fit, "lbfgs.minimize")
    escapes = get(fit, "solver.escape")
    fits = get(fit, fit)
    reports = get("phase.report", "phase.report")
    points = get("phase.add_point", "phase.add_point")
    iters = sum(s.info.n_iters for s in solves)
    evals = sum(s.info.n_evals for s in solves)
    rounds_seen = sum(len(h) - 1 for h in histories)
    improving = sum(b < a for h in histories for a, b in zip(h, h[1:]))
    return {
        "objective.full_calls": (len(full) / rounds, "count"),
        "objective.full_ms": (mean_ms(full), "ms"),
        "objective.added_calls": (len(added) / rounds, "count"),
        "objective.added_ms": (mean_ms(added), "ms"),
        "lbfgs.solves": (len(solves) / rounds, "count"),
        "lbfgs.iters": (iters / rounds, "count"),
        "lbfgs.max_iters_stops": (
            sum(s.info.reason == "max-iters" for s in solves) / rounds,
            "count"),
        "lbfgs.evals_per_iter": (evals / max(iters, 1), "ratio"),
        "lbfgs.self_s": (self_s(solves) / rounds, "s"),
        "solver.outer_rounds": (len(escapes) / rounds, "count"),
        "solver.improving_share": (improving / max(rounds_seen, 1),
                                   "fraction"),
        "solver.escape_ms": (mean_ms(escapes), "ms"),
        "solver.escape_moved_share": (
            sum(s.info[0] for s in escapes)
            / max(sum(s.info[1] for s in escapes), 1), "fraction"),
        "solver.self_s": (self_s(fits) / rounds, "s"),
        "solver.add_evals_per_point": (
            len(get("phase.add_point", "objective.added"))
            / max(len(points), 1), "count"),
        "metrics.global_fit_ms": (
            mean_ms(get("phase.report", "metrics.global_fit")), "ms"),
        "metrics.knn_calls": (
            len(get("phase.report", "metrics.knn")) / len(reports), "count"),
        "metrics.loss_matrix_calls": (
            len(get("phase.report", "metrics.loss_matrix")) / len(reports),
            "count"),
        "metrics.self_ms": (1e3 * self_s(reports) / len(reports), "ms"),
        "trace.overhead_share": (
            sum(len(get(fit, name)) for name in ALL_LAYERS) / rounds
            * wrapper_cost_s() / fit_s, "fraction"),
    }


def _median_ms(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def replay_layers(sol, repeats: int) -> dict:
    """Time the pieces of one objective evaluation at a fitted solution's
    shapes; ``rest_ms`` is the gradient and reduction remainder."""
    from slisemap import objective as ob

    X, Y, B, Z = sol.X, sol.Y, sol.B, sol.Z
    hp, task = sol.hyperparams, sol.task
    D = ob.pairwise_distances(Z)
    full = _median_ms(lambda: ob.loss_and_gradients(X, Y, B, Z, hp, task),
                      repeats)
    dist = _median_ms(lambda: ob.pairwise_distances(Z), repeats)
    soft = _median_ms(lambda: ob.softmax_weights(D), repeats)
    local = _median_ms(lambda: ob.local_loss_matrix(B, X, Y, task), repeats)
    tracemalloc.start()
    try:
        ob.loss_and_gradients(X, Y, B, Z, hp, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "objective.distances_ms": (dist, "ms"),
        "objective.softmax_ms": (soft, "ms"),
        "objective.local_loss_ms": (local, "ms"),
        "objective.rest_ms": (full - dist - soft - local, "ms"),
        "objective.peak_alloc_mb": (peak / 2**20, "MB"),
    }
