"""Tests for the helpers of ``tools/add_quality.py``.  Each runs in a
subprocess, since importing the tool sets the process's BLAS thread
variables."""

import json
import subprocess
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def in_tool(code: str):
    """The JSON value that ``code``, run after ``import add_quality`` in the
    tools directory, prints on its last line."""
    proc = subprocess.run([sys.executable, "-c",
                           "import add_quality, json\n" + code],
                          cwd=_TOOLS, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_purity_counts_nearest_training_rows_of_the_same_label():
    """Two clusters of three training rows, at x = 0 and x = 10: a point
    near each has its 3 nearest rows in its own cluster; its 4th nearest
    is in the other one, and on a tie the smaller index is nearer."""
    got = in_tool(
        "import numpy as np\n"
        "Z = np.array([[0, 0], [0, 1], [10, 0], [0, 2], [10, 1], [10, 2]],"
        " dtype=float)\n"
        "labels = np.array([0, 0, 1, 0, 1, 1])\n"
        "Z_new = np.array([[0.0, 1.0], [10.0, 1.0], [5.0, 1.0]])\n"
        "f = add_quality.added_purity\n"
        "print(json.dumps([f(Z, labels, Z_new[:2], np.array([0, 1]), 3),\n"
        "                  f(Z, labels, Z_new[:2], np.array([1, 1]), 3),\n"
        "                  f(Z, labels, Z_new[:2], np.array([0, 1]), 4),\n"
        "                  f(Z, labels, Z_new[2:], np.array([0]), 1),\n"
        "                  f(Z, labels, Z_new[2:], np.array([1]), 1)]))\n")
    assert got == [1.0, 0.5, 0.75, 1.0, 0.0]


def test_replayed_fresh_points_are_the_workloads():
    """The replayed draw gives ``clf200``'s fresh points of seed 2, with
    labels of the generator's clusters, and a changed point is caught."""
    got = in_tool(
        "import numpy as np, workloads\n"
        "wl = workloads.WORKLOADS['clf200']\n"
        "p, = workloads.make_problems(wl, 2)\n"
        "labels = add_quality.fresh_labels(wl, 2, 0, p)\n"
        "p.X_new = p.X_new.copy()\n"
        "p.X_new[5, 0] += 1e-12\n"
        "try:\n"
        "    add_quality.fresh_labels(wl, 2, 0, p)\n"
        "    caught = False\n"
        "except RuntimeError:\n"
        "    caught = True\n"
        "print(json.dumps([len(labels), len(p.X_new),\n"
        "                  sorted(set(labels.tolist())),\n"
        "                  sorted(set(p.labels.tolist())), caught]))\n")
    n, n_new, fresh, train, caught = got
    assert n == n_new == 720
    assert set(fresh) <= set(train) and len(fresh) > 1
    assert caught
