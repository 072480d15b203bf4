"""Solution files under hypothesis: every Solution that can be built saves
a file that loads back to the same document, and corrupt files through the
command line end every command that reads them with exit code 0, 3 or 4,
never a traceback.

A saved n = 30 regression solution has one or more of its top-level keys,
or the normalization's mean or std, replaced by a value of the wrong kind
or deleted.  ``metrics``, ``export``, ``add`` and ``plot --models-out``
then read the file in process through ``cli.main``.  Hypothesis draws the
mutations, and the solutions of the round trip, from a fixed seed
(``derandomize=True``), so every run tries the same files.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slisemap.cli import main
from slisemap.data import Normalization
from slisemap.model import TaskKind
from slisemap.objective import Hyperparams
from slisemap.solver import STOP_REASONS, Solution

N = 30
DELETE = object()  # the mutation that removes the key
VALUES = (None, "x", [], {}, 1e308, -1, 0, True, [[1, 2]], float("nan"),
          [["a"]], [[None]], 2.5, 1e30, float("inf"), float("-inf"))
# Names with markup characters and text beyond ASCII.
NAMES = st.text(st.sampled_from("ab <&\"'éΩ中\U0001f600"), max_size=5)


@st.composite
def solutions(draw):
    """A small Solution whose settings are Python or numpy scalars: the
    seed, ``d`` and class count of one integer type, the penalties and
    loss history of one float type."""
    as_int = draw(st.sampled_from((int, np.int32, np.int64)))
    as_float = draw(st.sampled_from((float, np.float32, np.float64)))
    kind = draw(st.sampled_from(("regression", "binary-logit",
                                 "classification")))
    task = (TaskKind.classification(as_int(draw(st.integers(2, 4))))
            if kind == "classification" else TaskKind(kind))
    n, m, d = (draw(st.integers(lo, 4)) for lo in (2, 1, 1))
    p = task.response_dim()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=3))
    Y = rng.random((n, p))
    if task.is_classification:  # each row a probability vector
        Y /= Y.sum(axis=1, keepdims=True)
    return Solution(
        X=np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))]),
        Y=Y, B=rng.standard_normal((n, task.coef_len(m + 1))),
        Z=rng.standard_normal((n, d)),
        hyperparams=Hyperparams(
            lambda_z=as_float(draw(st.floats(1e-3, 10.0))),
            lambda_lasso=as_float(draw(st.floats(0.0, 1.0))), d=as_int(d)),
        task=task,
        loss_history=[as_float(v) for v in sorted(history, reverse=True)],
        seed=as_int(draw(st.integers(0, 2**31 - 1))),
        column_names=draw(st.lists(NAMES, min_size=m, max_size=m)),
        normalization=Normalization(mean=rng.standard_normal(m),
                                    std=rng.random(m) + 0.5),
        target_names=draw(st.lists(NAMES, min_size=p, max_size=p)),
        stop_reason=draw(st.sampled_from(("", *STOP_REASONS))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sol=solutions())
def test_every_solution_that_builds_saves_a_file_that_loads(sol):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sol.json"
        sol.save(path)
        assert Solution.load(path).to_json_dict() == sol.to_json_dict()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(solution document, path of a three-row add file)."""
    root = tmp_path_factory.mktemp("fuzz")
    gen, sol = root / "gen", root / "sol.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--n", str(N), "--m", "3", "--seed", "1",
                     "--out", str(gen)]) == 0
        assert main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
                     "--lambda-z", "0.1", "--seed", "1",
                     "--out", str(sol)]) == 0
    add = root / "add.csv"
    add.write_text("".join((gen / "data.csv").read_text()
                           .splitlines(keepends=True)[:4]))
    return json.loads(sol.read_text()), add


def _targets():
    """Every top-level key of a solution document, and the two arrays of
    its normalization, as key paths."""
    doc_keys = ("task", "n", "m", "d", "p", "lambda_z", "lambda_lasso",
                "column_names", "target_names", "normalization", "B", "Z",
                "X", "Y", "final_loss", "seed", "outer_iters_used",
                "loss_history", "numeric_warning", "stop_reason")
    return [(key,) for key in doc_keys] + [("normalization", "mean"),
                                           ("normalization", "std")]


def mutated(doc, mutations):
    """A copy of ``doc`` with each (key path, value) applied in turn; a
    path under a key an earlier mutation replaced or deleted is skipped."""
    doc = json.loads(json.dumps(doc))
    for path, value in mutations:
        *parents, key = path
        node = doc
        for p in parents:
            node = node.get(p) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    return doc


def test_targets_are_every_key_of_a_saved_solution(saved):
    doc, _ = saved
    assert {path[0] for path in _targets()} == set(doc)


MUTATIONS = st.tuples(st.sampled_from(_targets()),
                      st.sampled_from((DELETE, *VALUES)))


@pytest.mark.parametrize("target", _targets(), ids="/".join)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(value=st.sampled_from((DELETE, *VALUES)),
       others=st.lists(MUTATIONS, max_size=2))
def test_commands_exit_cleanly_on_a_corrupt_solution(saved, target, value,
                                                     others):
    """``target`` set to ``value`` (or deleted), then up to two more keys
    mutated."""
    doc, add = saved
    mutations = [(target, value), *others]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp)
        sol = out / "sol.json"
        sol.write_text(json.dumps(mutated(doc, mutations)))
        for argv in (["metrics", "--out", out / "report.json"],
                     ["export", "--out", out / "export.csv"],
                     ["add", "--data", add, "--out", out / "added.csv"],
                     ["plot", "--out", out / "plot.svg",
                      "--models-out", out / "models.svg"]):
            rc = main([str(a) for a in [argv[0], "--solution", sol,
                                        *argv[1:]]])
            assert rc in (0, 3, 4), (argv[0], mutations, rc)
