"""Tests for the evaluation metrics and the global reference model."""

import numpy as np
import pytest

from conftest import make_solution, random_instance
from slisemap.data import RsynthSpec, generate_rsynth
from slisemap.errors import SlisemapError
from slisemap.metrics import (MetricReport, cluster_purity, compute_report,
                              coverage, fidelity, fit_global_model,
                              knn_indices, loss_threshold)
from slisemap.model import TaskKind
from slisemap.objective import (Hyperparams, local_loss_matrix,
                                pairwise_distances)
from slisemap.solver import SolverConfig, fit

REG = TaskKind.regression()


@pytest.fixture(scope="module")
def rsynth_solution():
    ds, beta = generate_rsynth(RsynthSpec(n=80, m=5, seed=21))
    sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG,
              SolverConfig(seed=21))
    return ds, beta, sol


class TestFitGlobalModel:
    def test_recovers_noise_free_coefficients(self, rng):
        n, m = 60, 4
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        b_true = rng.standard_normal(m + 1)
        Y = (X @ b_true)[:, None]
        b = fit_global_model(X, Y, REG)
        np.testing.assert_allclose(b, b_true, atol=1e-4)

    def test_constant_response_gives_intercept_only(self, rng):
        n, m = 50, 3
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        X[:, :m] -= X[:, :m].mean(axis=0)
        Y = np.full((n, 1), 2.5)
        b = fit_global_model(X, Y, REG)
        assert abs(b[-1] - 2.5) < 1e-3
        assert np.abs(b[:-1]).max() < 1e-3

    def test_matches_normal_equations(self, rng):
        n, m = 30, 3
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        Y = (X @ rng.standard_normal(m + 1) + 0.3 *
             rng.standard_normal(n))[:, None]
        b = fit_global_model(X, Y, REG, lambda_lasso=0.0)
        ref = np.linalg.solve(X.T @ X, X.T @ Y[:, 0])
        np.testing.assert_allclose(b, ref, atol=1e-6)

    def test_rank_deficiency_warns(self, rng):
        X = np.hstack([np.ones((10, 2)), np.ones((10, 1))])
        Y = rng.standard_normal((10, 1))
        with pytest.warns(UserWarning, match="rank"):
            fit_global_model(X, Y, REG)


class TestLossThreshold:
    def test_interpolated_order_statistic(self):
        assert loss_threshold([1.0, 2.0, 3.0, 4.0, 5.0], 0.3) == 2.2

    def test_degenerate_distribution(self):
        assert loss_threshold([4.0] * 7, 0.3) == 4.0

    def test_zero_quantile_is_min(self, rng):
        losses = rng.random(20)
        assert loss_threshold(losses, 0.0) == losses.min()

    def test_empty_rejected(self):
        with pytest.raises(SlisemapError):
            loss_threshold([])

    @pytest.mark.parametrize("q", [-0.1, 1.5, float("nan")])
    def test_out_of_range_quantile_rejected(self, q):
        with pytest.raises(SlisemapError, match="quantile"):
            loss_threshold([1.0, 2.0], q)


class TestKnnIndices:
    def test_excludes_self_and_breaks_ties_low(self):
        Z = np.zeros((4, 2))  # all coincident: pure tie-breaking
        nn = knn_indices(Z, 2)
        np.testing.assert_array_equal(nn[0], [1, 2])
        np.testing.assert_array_equal(nn[1], [0, 2])
        np.testing.assert_array_equal(nn[3], [0, 1])

    @pytest.mark.parametrize("kind", ["grid", "duplicates", "coincident",
                                      "nan-row", "random"])
    def test_matches_a_full_stable_sort(self, kind, rng):
        """Every k gives the first k columns of a stable argsort of each
        distance row, on embeddings with many exactly tied distances."""
        if kind == "grid":  # integer points: equal distances everywhere
            Z = rng.integers(0, 4, (30, 2)).astype(float)
        elif kind == "duplicates":  # each point three times
            Z = np.repeat(rng.standard_normal((10, 2)), 3, axis=0)
        elif kind == "coincident":
            Z = np.ones((30, 2))
        else:
            Z = rng.standard_normal((30, 2))
            if kind == "nan-row":
                Z[[4, 17]] = np.nan
        D = pairwise_distances(Z)
        np.fill_diagonal(D, np.inf)
        stable = np.argsort(D, axis=1, kind="stable")
        for k in range(1, 30):
            np.testing.assert_array_equal(knn_indices(Z, k), stable[:, :k])

    def test_k_bounds(self, rng):
        Z = rng.standard_normal((5, 2))
        with pytest.raises(SlisemapError):
            knn_indices(Z, 5)
        with pytest.raises(SlisemapError):
            knn_indices(Z, 0)


class TestClusterPurity:
    def test_single_label_gives_one(self, rng):
        Z = rng.standard_normal((30, 2))
        assert cluster_purity(Z, np.zeros(30, dtype=int), 5) == 1.0

    def test_separated_blobs_give_one(self, rng):
        Z = np.vstack([rng.standard_normal((20, 2)),
                       rng.standard_normal((20, 2)) + 100.0])
        labels = np.repeat([0, 1], 20)
        assert cluster_purity(Z, labels, 10) == 1.0

    def test_random_labels_near_chance(self):
        """Permutation simulation: random labels over balanced clusters
        land near 1/3."""
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(50):
            Z = rng.standard_normal((60, 2))
            labels = np.repeat([0, 1, 2], 20)
            rng.shuffle(labels)
            vals.append(cluster_purity(Z, labels, 10))
        assert abs(np.mean(vals) - 1.0 / 3.0) < 0.05

    def test_rigid_transform_invariance(self, rng):
        Z = rng.standard_normal((40, 2))
        labels = rng.integers(0, 3, 40)
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = Z @ R + np.array([5.0, -2.0])
        for k in (1, 5, 15):
            before = knn_indices(Z, k)
            after = knn_indices(moved, k)
            assert {frozenset(r) for r in before} == \
                {frozenset(r) for r in after}
            assert cluster_purity(Z, labels, k) == \
                cluster_purity(moved, labels, k)

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(SlisemapError):
            cluster_purity(rng.standard_normal((5, 2)), np.zeros(5), 5)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_k_must_be_an_integer(self, rng, k):
        with pytest.raises(SlisemapError, match="integer"):
            cluster_purity(rng.standard_normal((10, 2)), np.zeros(10), k)


class TestFidelity:
    def test_exactly_recovered_models_have_zero_fidelity(self):
        ds, beta = generate_rsynth(RsynthSpec(n=40, m=3, noise_std=0.0,
                                              seed=6))
        # translate the raw-space generating coefficients into the
        # standardized+intercept basis of ds.X
        std = ds.normalization.std
        mean = ds.normalization.mean
        B = np.empty((40, 4))
        for i, lab in enumerate(ds.labels):
            B[i, :3] = beta[lab] * std
            B[i, 3] = float(mean @ beta[lab])
        sol = make_solution(ds.X, ds.Y, B, np.zeros((40, 2)),
                            Hyperparams(lambda_z=0.1))
        assert fidelity(sol) < 1e-12

    def test_matches_hand_loop(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 5, 2, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        L = local_loss_matrix(B, X, Y, REG)
        assert abs(fidelity(sol) - np.diag(L).mean()) < 1e-12
        k = 2
        nn = knn_indices(Z, k)
        ref = np.mean([L[i, nn[i]].mean() for i in range(5)])
        assert abs(fidelity(sol, k) - ref) < 1e-12

    def test_knn_variant_uses_embedding_neighbours(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 12, 3, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        assert fidelity(sol, 3) != fidelity(sol)

    def test_full_neighbourhood_matches_off_diagonal_mean(self, rng):
        """k = n-1 averages exactly the off-diagonal of the loss matrix."""
        X, Y, B, Z, hp = random_instance(REG, 9, 3, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        L = local_loss_matrix(B, X, Y, REG)
        off = (L.sum(axis=1) - np.diag(L)) / (L.shape[0] - 1)
        assert abs(fidelity(sol, 8) - off.mean()) < 1e-12

    def test_permutation_equivariance(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 10, 3, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        perm = rng.permutation(10)
        sol_p = make_solution(X[perm], Y[perm], B[perm], Z[perm], hp)
        for k in (None, 3, 9):
            assert abs(fidelity(sol, k) - fidelity(sol_p, k)) < 1e-12


class TestCoverage:
    def test_infinite_threshold_covers_everything(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 6, 2, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        assert coverage(sol, np.inf) == 1.0

    def test_zero_threshold_covers_nothing(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 6, 2, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        assert coverage(sol, 0.0) == 0.0

    def test_nondecreasing_in_threshold(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 8, 3, 2, rng)
        sol = make_solution(X, Y, B, Z, hp)
        values = [coverage(sol, l0) for l0 in (0.01, 0.1, 1.0, 10.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_global_model_covers_its_quantile(self, rng):
        """A solution made of n copies of the global model has full-data
        coverage equal to the quantile, within 1/n."""
        n, m = 50, 3
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        Y = (X @ rng.standard_normal(m + 1)
             + 0.5 * rng.standard_normal(n))[:, None]
        b = fit_global_model(X, Y, REG)
        losses = local_loss_matrix(b[None], X, Y, REG)[0]
        l0 = loss_threshold(losses, 0.3)
        sol = make_solution(X, Y, np.tile(b, (n, 1)),
                            rng.standard_normal((n, 2)),
                            Hyperparams(lambda_z=0.1))
        assert abs(coverage(sol, l0) - 0.3) <= 1.0 / n


class TestComputeReport:
    def test_report_contents_and_serialization(self, rsynth_solution,
                                               tmp_path):
        ds, _, sol = rsynth_solution
        report = compute_report(sol, ks=[5, 25], labels=ds.labels)
        assert set(report.fidelity_knn) == {5, 25}
        assert set(report.coverage_knn) == {5, 25}
        assert set(report.purity_knn) == {5, 25}
        assert 0.0 <= report.coverage_full <= 1.0
        assert report.threshold_l0 > 0
        report.save_json(tmp_path / "r.json")
        report.save_csv(tmp_path / "r.csv")
        import csv as csvmod
        import json

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["fidelity_point"] == report.fidelity_point
        with open(tmp_path / "r.csv") as fh:
            rows = list(csvmod.reader(fh))
        # header + 3 whole-data rows + 3 metrics x 2 ks
        assert len(rows) == 1 + 3 + 6

    def test_purity_omitted_without_labels(self, rsynth_solution):
        _, _, sol = rsynth_solution
        report = compute_report(sol, ks=[5])
        assert report.purity_knn is None

    def test_classification_report(self, rng):
        """The whole metric stack runs on a Hellinger-loss solution."""
        task = TaskKind.classification(3)
        n, m = 30, 2
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        raw = rng.random((n, 3)) + 0.2
        Y = raw / raw.sum(axis=1, keepdims=True)
        sol = fit(X, Y, Hyperparams(lambda_z=0.1), task,
                  SolverConfig(seed=2))
        report = compute_report(sol, ks=[5])
        assert 0.0 <= report.coverage_full <= 1.0
        assert 0.0 <= report.fidelity_point <= 1.0  # Hellinger is bounded
        assert 0.0 <= report.threshold_l0 <= 1.0

    def test_matches_the_separate_metric_functions(self, rsynth_solution):
        ds, _, sol = rsynth_solution
        ks = [25, 5, 10, 5]
        report = compute_report(sol, ks=ks, labels=ds.labels)
        l0 = report.threshold_l0
        assert report.fidelity_point == fidelity(sol)
        assert report.coverage_full == coverage(sol, l0)
        for k in sorted(set(ks)):
            assert report.fidelity_knn[k] == fidelity(sol, k)
            assert report.coverage_knn[k] == coverage(sol, l0, k)
            assert report.purity_knn[k] == cluster_purity(sol.Z, ds.labels, k)

    def test_builds_loss_matrix_and_neighbour_order_once(self,
                                                         rsynth_solution,
                                                         monkeypatch):
        import slisemap.metrics as metrics_module

        ds, _, sol = rsynth_solution
        calls = {"loss": 0, "knn": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics_module, "local_loss_matrix",
                            counted("loss", metrics_module.local_loss_matrix))
        monkeypatch.setattr(metrics_module, "knn_indices",
                            counted("knn", metrics_module.knn_indices))
        compute_report(sol, ks=[5, 10, 25, 50], labels=ds.labels)
        assert calls == {"loss": 1, "knn": 1}

    @pytest.mark.parametrize("k", [0, -1, 80, 81])
    def test_out_of_range_k_rejected(self, rsynth_solution, k):
        _, _, sol = rsynth_solution
        with pytest.raises(SlisemapError, match="1 <= k < n"):
            compute_report(sol, ks=[5, k])

    @pytest.mark.parametrize("k", [2.5, True, 10.0])
    def test_k_must_be_an_integer(self, rsynth_solution, k):
        """A count k that is not an integer is refused, not truncated: at
        2.5 the report would read k = 2, at True k = 1."""
        _, _, sol = rsynth_solution
        with pytest.raises(SlisemapError, match="integer"):
            compute_report(sol, ks=[5, k])
