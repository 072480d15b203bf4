"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one line ``[criterion N] ... -> PASS/FAIL`` with the
measured values (run pytest with ``-s`` or read captured output), then
asserts.  The heavyweight fits are shared through module-scoped fixtures;
the whole module is sized for a few minutes on a laptop-class CPU.
"""

import time

import numpy as np
import pytest

from conftest import (central_difference, hellinger_sq, max_grad_error,
                      random_instance, scalar_row_contribution,
                      scalar_total_loss)
from slisemap.cli import main as cli_main
from slisemap.data import RsynthSpec, generate_rsynth
from slisemap.metrics import (cluster_purity, coverage, fidelity,
                              fit_global_model, loss_threshold)
from slisemap.model import TaskKind
from slisemap.objective import (Hyperparams, local_loss_matrix,
                                loss_and_gradients, pairwise_distances,
                                softmax_weights, total_loss)
from slisemap.solver import (Solution, SolverConfig, add_new, fit,
                             pca_scores, row_contributions)

REG = TaskKind.regression()
LAMBDA_Z = 0.1
PURITY_K = 25


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def small_runs():
    """Ten seeded rsynth(200, 10) runs: escape on/off fits plus baselines."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(1, 11):
        ds, _ = generate_rsynth(RsynthSpec(n=200, m=10, seed=seed))
        hp = Hyperparams(lambda_z=LAMBDA_Z)
        sol = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=seed),
                  normalization=ds.normalization)
        sol_ne = fit(ds.X, ds.Y, hp, REG,
                     SolverConfig(seed=seed, max_outer_iters=0))
        runs.append({
            "ds": ds,
            "sol": sol,
            "purity": cluster_purity(sol.Z, ds.labels, PURITY_K),
            "purity_noescape": cluster_purity(sol_ne.Z, ds.labels, PURITY_K),
            "purity_pca": cluster_purity(pca_scores(ds.X, 2), ds.labels,
                                         PURITY_K),
        })
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def medium_run():
    """One rsynth(400, 20) fit plus its global reference model."""
    ds, _ = generate_rsynth(RsynthSpec(n=400, m=20, seed=1))
    sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=LAMBDA_Z), REG,
              SolverConfig(seed=1))
    b_global = fit_global_model(ds.X, ds.Y, REG)
    losses = local_loss_matrix(b_global[None], ds.X, ds.Y, REG)[0]
    return ds, sol, b_global, losses


def test_criterion_1_small_rsynth_purity(small_runs):
    runs, elapsed = small_runs
    purities = np.array([r["purity"] for r in runs])
    pca = np.array([r["purity_pca"] for r in runs])
    ok = purities.mean() >= 0.70 and purities.mean() > pca.mean()
    assert report(
        1, ok,
        f"purity mean {purities.mean():.3f} (sd {purities.std():.3f}) vs "
        f"threshold 0.70 and PCA {pca.mean():.3f}; 10 runs in {elapsed:.0f}s")


def test_criterion_2_escape_heuristic_value(small_runs):
    runs, _ = small_runs
    wins = sum(r["purity"] > r["purity_noescape"] for r in runs)
    ok = wins >= 8
    means = (np.mean([r["purity"] for r in runs]),
             np.mean([r["purity_noescape"] for r in runs]))
    assert report(
        2, ok,
        f"escape beats no-escape in {wins}/10 runs "
        f"(means {means[0]:.3f} vs {means[1]:.3f})")


def test_criterion_3_large_rsynth_purity():
    t0 = time.perf_counter()
    purities = []
    for seed in (1, 2, 3):
        ds, _ = generate_rsynth(RsynthSpec(n=1000, m=50, seed=seed))
        sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=LAMBDA_Z), REG,
                  SolverConfig(seed=seed))
        purities.append(cluster_purity(sol.Z, ds.labels, PURITY_K))
    mean = float(np.mean(purities))
    ok = mean >= 0.85
    assert report(
        3, ok,
        f"purity mean {mean:.3f} over 3 runs vs threshold 0.85 "
        f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_4_coverage_calibration(medium_run):
    ds, sol, b_global, losses = medium_run
    n = ds.n
    l0 = loss_threshold(losses, 0.3)
    global_sol = Solution(
        X=ds.X, Y=ds.Y, B=np.tile(b_global, (n, 1)), Z=np.zeros((n, 2)),
        hyperparams=sol.hyperparams, task=REG, loss_history=[0.0], seed=0,
        column_names=ds.column_names,
        normalization=ds.normalization)
    cov_global = coverage(global_sol, l0)
    cov_knn = coverage(sol, l0, PURITY_K)
    ok = abs(cov_global - 0.300) <= 1.0 / n and cov_knn >= 0.35
    assert report(
        4, ok,
        f"global full coverage {cov_global:.4f} (target 0.300 +- {1/n:.4f}), "
        f"embedding-neighbourhood coverage {cov_knn:.3f} >= 0.35")


def test_criterion_5_fidelity_ordering(medium_run):
    ds, sol, b_global, losses = medium_run
    fid_local = fidelity(sol)
    fid_global = float(losses.mean())
    ok = fid_local * 10.0 < fid_global
    assert report(
        5, ok,
        f"pointwise fidelity {fid_local:.4f} vs global {fid_global:.2f} "
        f"(ratio {fid_global / max(fid_local, 1e-300):.0f}x, need >= 10x)")


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for task in (REG, TaskKind.classification(3), TaskKind.binary_logit()):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 6))
            X, Y, B, Z, hp = random_instance(task, n, m, 2, rng)
            _, gB, gZ = loss_and_gradients(X, Y, B, Z, hp, task)
            fdB = central_difference(
                lambda Bv: total_loss(X, Y, Bv, Z, hp, task), B, h=1e-5)
            fdZ = central_difference(
                lambda Zv: total_loss(X, Y, B, Zv, hp, task), Z, h=1e-5)
            worst = max(worst, max_grad_error(gB, fdB),
                        max_grad_error(gZ, fdZ))
    ok = worst < 1e-4
    assert report(
        6, ok,
        f"max gradient error {worst:.2e} over 20 instances x 3 tasks "
        "(tolerance 1e-4)")


def test_criterion_7_objective_invariants():
    rng = np.random.default_rng(707)
    worst_row = worst_rot = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        X, Y, B, Z, hp = random_instance(REG, n, 3, 2, rng)
        W = softmax_weights(pairwise_distances(Z))
        worst_row = max(worst_row, float(np.abs(W.sum(axis=1) - 1.0).max()))
        assert (np.diag(W)[:, None] >= W - 1e-15).all()

        a = rng.random(4) + 1e-6
        a /= a.sum()
        b = rng.random(4) + 1e-6
        b /= b.sum()
        h1, h2 = hellinger_sq(a, b), hellinger_sq(b, a)
        assert h1 == h2 and 0.0 <= h1 <= 1.0

        base = total_loss(X, Y, B, Z, hp, REG)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rot = total_loss(X, Y, B, Z @ Q, hp, REG)
        worst_rot = max(worst_rot,
                        abs(rot - base) / (1.0 + abs(base)))
    ok = worst_row < 1e-9 and worst_rot < 1e-9
    assert report(
        7, ok,
        f"softmax row-sum error {worst_row:.1e}, rotation drift "
        f"{worst_rot:.1e} over 100 instances (tolerance 1e-9)")


def test_criterion_8_collapse_limit():
    ds, _ = generate_rsynth(RsynthSpec(n=100, m=5, seed=3))
    sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=1e6), REG,
              SolverConfig(seed=3))
    zmax = float(np.linalg.norm(sol.Z, axis=1).max())
    diffs = sol.B[:, None, :] - sol.B[None, :, :]
    max_pair = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
    bound = 0.05 * float(np.linalg.norm(sol.B, axis=1).mean())
    ok = zmax < 0.1 and max_pair < bound
    assert report(
        8, ok,
        f"max ||Z_i|| {zmax:.1e} < 0.1; max pairwise B distance "
        f"{max_pair:.1e} < {bound:.3f}")


def test_criterion_9_out_of_sample_soundness(small_runs):
    runs, _ = small_runs
    ds, sol = runs[0]["ds"], runs[0]["sol"]
    hp = sol.hyperparams
    contrib = row_contributions(sol.X, sol.Y, sol.B, sol.Z, hp, REG)

    _, _, readd = add_new(sol, sol.X[:50], sol.Y[:50], SolverConfig(seed=1),
                          one_by_one=True)
    excess = float((readd - contrib[:50]).max())

    # fresh points: same generator seed continued to a larger n keeps the
    # generating coefficients; rows beyond the training block are unseen
    ds_big, _ = generate_rsynth(RsynthSpec(n=300, m=10, seed=1))
    from slisemap.data import apply_normalization

    X_fresh = apply_normalization(ds_big.X_raw[200:], sol.normalization)
    Y_fresh = ds_big.Y[200:]
    _, _, fresh = add_new(sol, X_fresh, Y_fresh, SolverConfig(seed=1),
                          one_by_one=True)
    ratio = float(fresh.mean() / contrib.mean())
    ok = excess <= 1e-4 and ratio <= 2.0
    assert report(
        9, ok,
        f"re-add excess {excess:.2e} <= 1e-4; fresh/training mean loss "
        f"ratio {ratio:.2f} <= 2.0")


def test_criterion_9_readd_at_n400():
    """Criterion 9's re-add bound on a larger fit with one escape round,
    where the fitted neighbourhoods fit some items worse than their own
    models do."""
    ds, _ = generate_rsynth(RsynthSpec(n=400, m=20, seed=1))
    config = SolverConfig(seed=1, max_outer_iters=1)
    sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=LAMBDA_Z), REG, config)
    contrib = row_contributions(sol.X, sol.Y, sol.B, sol.Z, sol.hyperparams,
                                REG)
    _, _, readd = add_new(sol, sol.X[:50], sol.Y[:50], config,
                          one_by_one=True)
    excess = readd - contrib[:50]
    ok = float(excess.max()) <= 1e-4
    assert report(
        9, ok,
        f"n=400 re-add: {int((excess > 1e-4).sum())}/50 rows over 1e-4, "
        f"worst excess {float(excess.max()):.2e}")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for name in ("one", "two"):
        d = tmp_path / name
        assert cli_main(["generate", "--n", "60", "--m", "4", "--seed", "17",
                         "--out", str(d)]) == 0
        sol = d / "sol.json"
        assert cli_main(["fit", "--data", str(d / "data.csv"), "--target",
                         "y", "--lambda-z", "0.1", "--seed", "17",
                         "--out", str(sol)]) == 0
        svg = d / "embedding.svg"
        assert cli_main(["plot", "--solution", str(sol),
                         "--out", str(svg)]) == 0
        blobs.append((sol.read_bytes(), svg.read_bytes()))
    ok = blobs[0] == blobs[1]
    assert report(
        10, ok,
        "solution JSON and SVG byte-identical across two seeded runs")


def test_criterion_11_small_instance_oracles():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for task in (REG, TaskKind.classification(3), TaskKind.binary_logit()):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            X, Y, B, Z, hp = random_instance(task, n, 3, 2, rng)
            ref = scalar_total_loss(X, Y, B, Z, hp, task)
            got = total_loss(X, Y, B, Z, hp, task)
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    loops_ok = worst < 1e-10

    # grid-search oracle for adding one point to a two-point solution
    X = np.array([[0.5, 1.0], [-0.4, 1.0]])
    Y = np.array([[1.0], [-0.8]])
    hp = Hyperparams(lambda_z=0.5, d=1)
    sol = fit(X, Y, hp, REG, SolverConfig(seed=0))
    x_new = np.array([[0.45, 1.0]])
    y_new = np.array([[0.95]])
    B_new, Z_new, losses = add_new(sol, x_new, y_new, SolverConfig(seed=0))
    grid = np.linspace(-3.0, 3.0, 61)
    b0g, b1g, zg = (v.ravel() for v in np.meshgrid(grid, grid, grid,
                                                   indexing="ij"))
    Xc = np.vstack([sol.X, x_new])
    yc = np.concatenate([sol.Y[:, 0], y_new[:, 0]])
    preds = b0g[:, None] * Xc[:, 0][None, :] + b1g[:, None]
    Lg = (preds - yc[None, :]) ** 2
    dists = np.stack([np.abs(zg - sol.Z[0, 0]), np.abs(zg - sol.Z[1, 0]),
                      np.zeros_like(zg)], axis=1)
    w = np.exp(-dists)
    w /= w.sum(axis=1, keepdims=True)
    contrib = (w * Lg).sum(axis=1) + hp.lambda_z * zg ** 2 \
        + hp.lambda_lasso * (np.abs(b0g) + np.abs(b1g))
    best_idx = int(np.argmin(contrib))
    step = grid[1] - grid[0]
    params = np.array([B_new[0, 0], B_new[0, 1], Z_new[0, 0]])
    best_params = np.array([b0g[best_idx], b1g[best_idx], zg[best_idx]])
    grid_ok = losses[0] <= contrib[best_idx] + 1e-6 \
        and np.abs(params - best_params).max() <= step

    ok = loops_ok and grid_ok
    assert report(
        11, ok,
        f"scalar-loop loss error {worst:.1e} < 1e-10; grid-search gap "
        f"{float(losses[0] - contrib[best_idx]):.2e}, params within one "
        f"cell: {bool(np.abs(params - best_params).max() <= step)}")
