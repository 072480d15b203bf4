"""The benchmark's hooks into the package.

``benchmarks/tracing.py`` and ``benchmarks/speed.py`` replace package
functions by module attribute while a benchmark runs.  A refactor that
calls the code behind one of them directly still passes every other test,
but silently drops the benchmark's evaluation counts (``fit_evals``) or its
speed samples.  This test runs a tiny fit, addition and report under both
and requires every hooked layer to be reached.
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
        metrics.compute_report(sol, [5])
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert solver.loss_and_gradients is original
    recorded = {sp.name for sp in tracer.spans}
    assert [x for x in tracing.ALL_LAYERS if x not in recorded] == []
    assert fit_samples > 0
