"""The benchmark's hooks into the package.

``benchmarks/tracing.py`` and ``benchmarks/speed.py`` replace package
functions by module attribute while a benchmark runs.  A refactor that
calls the code behind one of them directly still passes every other test,
but silently drops the benchmark's evaluation counts (``fit_evals``) or its
speed samples.  This test runs a tiny fit, a batch and a single addition,
and a report under both, and requires every hooked layer to be reached.
"""

import sys
from pathlib import Path

from slisemap import metrics, solver
from slisemap.data import RsynthSpec, generate_rsynth
from slisemap.model import TaskKind
from slisemap.objective import Hyperparams

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import speed  # noqa: E402
import tracing  # noqa: E402


def test_every_wrapped_layer_records_spans():
    tracing.check_wrapped()
    ds, _ = generate_rsynth(RsynthSpec(n=20, m=3, seed=1))
    original = solver.loss_and_gradients
    tracer, probe = tracing.Tracer(), speed.Probe()
    try:
        tracer.install(tracing.ALL_LAYERS)
        probe.install()
        sol = solver.fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1),
                         TaskKind.regression(),
                         solver.SolverConfig(seed=1, max_outer_iters=2))
        fit_samples = len(probe.seconds)
        solver.add_new(sol, sol.X[:2], sol.Y[:2])
        solves = sum(sp.name == "lbfgs.minimize" for sp in tracer.spans)
        single = solver.add_new(sol, sol.X[2:3], sol.Y[2:3])
        single_solves = sum(sp.name == "lbfgs.minimize"
                            for sp in tracer.spans) - solves
        metrics.compute_report(sol, [5])
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert solver.loss_and_gradients is original
    # The single add's solve ran through the wrapper, which handed it the
    # first-step bound: its outputs are those of an untraced add.
    assert single_solves == 1
    plain = solver.add_new(sol, sol.X[2:3], sol.Y[2:3])
    assert [a.tobytes() for a in single] == [a.tobytes() for a in plain]
    recorded = {sp.name for sp in tracer.spans}
    assert [x for x in tracing.ALL_LAYERS if x not in recorded] == []
    assert fit_samples > 0
