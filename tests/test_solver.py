"""Tests for initialization, the escape heuristic, the fit loop, solution
serialization and out-of-sample addition."""

import dataclasses
import itertools
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (make_solution, problems, random_instance,
                      scalar_row_contribution)
from slisemap import lbfgs, objective, solver
from slisemap.data import Normalization, RsynthSpec, generate_rsynth
from slisemap.errors import DataError, NumericError, ShapeError, SlisemapError
from slisemap.model import TaskKind
from slisemap.objective import (Hyperparams, added_loss_and_gradients,
                                local_loss_matrix, pairwise_distances,
                                softmax_weights, total_loss)
from slisemap.solver import (Solution, SolverConfig, add_new, escape, fit,
                             init, lbfgs_minimize, pca_scores,
                             row_contributions)

REG = TaskKind.regression()


def start_of_single_add(sol, x, y, config=SolverConfig()):
    """``add_new(sol, x, y, config)`` for one point, and the start vector x0
    of its solve (B, then the embedding block): ``(x0, result)``."""
    starts = []
    minimize = lbfgs.minimize

    def recording(fg, x0, **kwargs):
        starts.append(x0.copy())
        return minimize(fg, x0, **kwargs)

    with mock.patch.object(lbfgs, "minimize", recording):
        out = add_new(sol, x, y, config)
    x0, = starts
    return x0, out


class TestInit:
    def test_pca_reconstructs_low_rank_data(self, rng):
        # exactly 2 nonzero singular values: scores and loadings rebuild
        # the centered matrix
        basis = rng.standard_normal((2, 6))
        coords = rng.standard_normal((20, 2))
        X = coords @ basis + rng.standard_normal(6)
        Z = pca_scores(X, 2)
        Xc = X - X.mean(axis=0)
        back, *_ = np.linalg.lstsq(Z, Xc, rcond=None)
        np.testing.assert_allclose(Z @ back, Xc, atol=1e-9)

    def test_fixed_seed_reproduces_b(self, rng):
        X, Y, *_ = random_instance(REG, 10, 3, 2, rng)
        hp = Hyperparams(lambda_z=0.1)
        B1, Z1 = init(X, Y, hp, REG, seed=7)
        B2, Z2 = init(X, Y, hp, REG, seed=7)
        assert B1.tobytes() == B2.tobytes()
        assert Z1.tobytes() == Z2.tobytes()

    def test_scores_are_orthogonal(self, rng):
        X = rng.standard_normal((30, 8))
        Z = pca_scores(X, 3)
        G = Z.T @ Z
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-8

    def test_rank_deficit_zero_fills_and_warns(self, rng):
        X = np.outer(rng.standard_normal(10), rng.standard_normal(4))
        with pytest.warns(UserWarning, match="rank"):
            Z = pca_scores(X, 3)
        np.testing.assert_array_equal(Z[:, 1:], np.zeros((10, 2)))


class TestLbfgsMinimize:
    # lambda_z = 50 rescales the embedding block by 10
    @pytest.mark.parametrize("lambda_z", [0.1, 50.0])
    def test_minimizes_block_quadratic(self, lambda_z, rng):
        target_b = rng.standard_normal((3, 2))
        target_z = rng.standard_normal((3, 2))

        def fg(B, Z):
            return (float(((B - target_b) ** 2).sum()
                          + ((Z - target_z) ** 2).sum()),
                    2.0 * (B - target_b), 2.0 * (Z - target_z))

        B, Z, f = lbfgs_minimize(fg, np.zeros((3, 2)), np.zeros((3, 2)),
                                 Hyperparams(lambda_z=lambda_z),
                                 SolverConfig(rel_tol=1e-12))
        np.testing.assert_allclose(B, target_b, atol=1e-6)
        np.testing.assert_allclose(Z, target_z, atol=1e-6)
        assert f <= fg(np.zeros((3, 2)), np.zeros((3, 2)))[0]


def two_regime_instance(rng, n_per=3, m=2, separation=6.0):
    """Two planted linear regimes at well-separated embedding positions."""
    n = 2 * n_per
    X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
    b1 = np.array([2.0, 0.0, 1.0])
    b2 = np.array([-1.0, 3.0, -2.0])
    Y = np.empty((n, 1))
    Y[:n_per, 0] = X[:n_per] @ b1
    Y[n_per:, 0] = X[n_per:] @ b2
    B = np.vstack([np.tile(b1, (n_per, 1)), np.tile(b2, (n_per, 1))])
    Z = np.vstack([
        np.tile([-separation / 2, 0.0], (n_per, 1)),
        np.tile([separation / 2, 0.0], (n_per, 1)),
    ]) + 0.01 * rng.standard_normal((n, 2))
    return X, Y, B, Z, b1, b2


class TestEscape:
    def test_fixed_point_keeps_rows(self, rng):
        # every item isolated in the embedding with an exactly-fitting
        # model: the argmin of each column is the item itself
        n, m = 5, 2
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        Y = rng.standard_normal((n, 1))
        B = X * (Y / np.einsum("ij,ij->i", X, X)[:, None])  # x_i . b_i == y_i
        Z = np.stack([np.arange(n) * 10.0, np.zeros(n)], axis=1)
        W = softmax_weights(pairwise_distances(Z))
        L = local_loss_matrix(B, X, Y, REG)
        assert (np.argmin(W @ L, axis=0) == np.arange(n)).all()
        B2, Z2 = escape(X, Y, B, Z, REG)
        assert B2.tobytes() == B.tobytes()
        assert Z2.tobytes() == Z.tobytes()

    def test_single_row_identity(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 1, 2, 2, rng)
        B2, Z2 = escape(X, Y, B, Z, REG)
        np.testing.assert_array_equal(B2, B)
        np.testing.assert_array_equal(Z2, Z)

    def test_wrong_regime_items_adopt_correct_rows(self, rng):
        X, Y, B, Z, b1, b2 = two_regime_instance(rng)
        # swap two items' rows so they start in the wrong regime
        B_bad = B.copy()
        Z_bad = Z.copy()
        B_bad[[0, 3]] = B[[3, 0]]
        Z_bad[[0, 3]] = Z[[3, 0]]
        B2, Z2 = escape(X, Y, B_bad, Z_bad, REG)

        # exhaustive argmin oracle over the definition
        W = softmax_weights(pairwise_distances(Z_bad))
        L = local_loss_matrix(B_bad, X, Y, REG)
        n = X.shape[0]
        for i in range(n):
            scores = [sum(W[k, j] * L[j, i] for j in range(n))
                      for k in range(n)]
            k_best = int(np.argmin(scores))
            np.testing.assert_array_equal(B2[i], B_bad[k_best])
            np.testing.assert_array_equal(Z2[i], Z_bad[k_best])
        # the swapped items now carry their own regime's coefficients
        np.testing.assert_allclose(B2[0], b1, atol=1e-12)
        np.testing.assert_allclose(B2[3], b2, atol=1e-12)

    def test_copies_rows_without_arithmetic(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 6, 3, 2, rng)
        B2, Z2 = escape(X, Y, B, Z, REG)
        rows_b = {row.tobytes() for row in B}
        assert all(row.tobytes() in rows_b for row in B2)


@pytest.fixture(scope="module")
def small_fit():
    ds, _ = generate_rsynth(RsynthSpec(n=60, m=4, seed=11))
    hp = Hyperparams(lambda_z=0.1)
    sol = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=11),
              column_names=ds.column_names,
              normalization=ds.normalization)
    return ds, sol


class TestFit:
    def test_loss_history_nonincreasing(self, small_fit):
        _, sol = small_fit
        h = sol.loss_history
        assert all(a >= b for a, b in zip(h, h[1:]))
        assert sol.final_loss <= h[0]

    def test_final_loss_matches_reconstruction(self, small_fit):
        _, sol = small_fit
        recon = total_loss(sol.X, sol.Y, sol.B, sol.Z, sol.hyperparams,
                           sol.task)
        assert abs(recon - sol.final_loss) < 1e-9 * (1.0 + abs(recon))

    def test_determinism_bit_identical(self):
        ds, _ = generate_rsynth(RsynthSpec(n=40, m=3, seed=5))
        hp = Hyperparams(lambda_z=0.1)
        a = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=5))
        b = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=5))
        assert a.B.tobytes() == b.B.tobytes()
        assert a.Z.tobytes() == b.Z.tobytes()
        assert a.final_loss == b.final_loss
        assert a.loss_history == b.loss_history

    def test_requires_two_items(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 1, 2, 2, rng)
        with pytest.raises(SlisemapError):
            fit(X, Y, hp, REG, SolverConfig())

    def test_zero_outer_iters_skips_escape(self, monkeypatch):
        ds, _ = generate_rsynth(RsynthSpec(n=30, m=3, seed=4))

        def escape_called(*args, **kwargs):
            raise AssertionError("escape ran with max_outer_iters=0")

        monkeypatch.setattr(solver, "escape", escape_called)
        sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG,
                  SolverConfig(seed=4, max_outer_iters=0))
        assert sol.outer_iters_used == len(sol.loss_history) == 1
        assert sol.stop_reason == "max-outer-iters"

    @pytest.mark.parametrize("value", [-1, float("nan"), 1.5])
    def test_outer_iters_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(ValueError):
            SolverConfig(max_outer_iters=value)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), 2.5,
                                       float("inf")])
    def test_lbfgs_iters_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="lbfgs_max_iters"):
            SolverConfig(lbfgs_max_iters=value)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_rel_tol_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="rel_tol"):
            SolverConfig(rel_tol=value)

    @pytest.mark.parametrize("value", [-1, True, 2.5, 2.0, None])
    def test_seed_must_be_a_nonnegative_integer(self, value):
        """A boolean seed would be saved as ``true``, which a solution file
        refuses; a negative or fractional one fails inside numpy."""
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=value)
        assert SolverConfig(seed=np.int64(3)).seed == 3

    def test_covariates_must_be_a_matrix(self):
        with pytest.raises(ShapeError):
            fit(np.ones(5), np.ones(5), Hyperparams(lambda_z=0.1), REG)

    def test_short_response_rejected_before_init(self, rng, monkeypatch):
        X, Y, *_ = random_instance(REG, 6, 3, 2, rng)

        def no_init(*args, **kwargs):
            raise AssertionError("init ran before the shape check")

        monkeypatch.setattr(solver, "init", no_init)
        with pytest.raises(ShapeError):
            fit(X, Y[:-1], Hyperparams(lambda_z=0.1), REG)

    @pytest.mark.parametrize("name, value", [("X", float("nan")),
                                             ("Y", float("inf"))])
    def test_non_finite_data_rejected_before_init(self, name, value, rng,
                                                  monkeypatch):
        data = dict(zip("XY", random_instance(REG, 6, 3, 2, rng)))
        data[name][2, 0] = value

        def no_init(*args, **kwargs):
            raise AssertionError("init ran before the finiteness check")

        monkeypatch.setattr(solver, "init", no_init)
        with pytest.raises(DataError, match=f"{name} has non-finite"):
            fit(data["X"], data["Y"], Hyperparams(lambda_z=0.1), REG)

    def test_covariates_without_columns_are_a_shape_error(self, rng,
                                                          monkeypatch):
        _, Y, *_ = random_instance(REG, 6, 3, 2, rng)

        def no_init(*args, **kwargs):
            raise AssertionError("init ran before the shape check")

        monkeypatch.setattr(solver, "init", no_init)
        with pytest.raises(ShapeError, match="at least one column"):
            fit(np.empty((6, 0)), Y, Hyperparams(lambda_z=0.1), REG)

    @pytest.mark.parametrize("name", ["X", "Y"])
    def test_text_entries_are_a_data_error(self, name, rng):
        data = dict(zip("XY", random_instance(REG, 6, 3, 2, rng)))
        data[name] = data[name].astype(object)
        data[name][2, 0] = "a"
        with pytest.raises(DataError, match=f"{name} has entries that are "
                                            "not numbers"):
            fit(data["X"], data["Y"], Hyperparams(lambda_z=0.1), REG)

    @pytest.mark.parametrize("fault", ["sum-3", "negative"])
    def test_class_responses_must_be_probabilities(self, fault, rng):
        """Classification responses are probability vectors, as
        ``data.read_columns`` requires of a file: ``fit`` and a Solution
        refuse rows of ones (which fitted to a loss below the Hellinger
        floor of 0) or a negative entry, naming Y."""
        task = TaskKind.classification(3)
        X, Y, B, Z, hp = random_instance(task, 6, 3, 2, rng)
        bad = np.ones_like(Y) if fault == "sum-3" else Y.copy()
        if fault == "negative":
            bad[4] = [1.5, -0.25, -0.25]
        match = "must sum to 1 per row; row 0 sums to 3.0" \
            if fault == "sum-3" else "must be nonnegative"
        with pytest.raises(DataError, match=f"responses in Y {match}"):
            fit(X, bad, hp, task, SolverConfig(max_outer_iters=0))
        sol = make_solution(X, Y, B, Z, hp, task)
        with pytest.raises(DataError, match=f"responses in Y {match}"):
            dataclasses.replace(sol, Y=bad)

    @pytest.mark.parametrize("where", ["first-call", "later-round"])
    def test_numeric_failure_returns_a_consistent_state(self, where,
                                                        monkeypatch):
        ds, _ = generate_rsynth(RsynthSpec(n=30, m=3, seed=4))
        hp = Hyperparams(lambda_z=0.1)
        original = solver.loss_and_gradients
        calls = itertools.count(1)

        def counted(*args, **kwargs):
            next(calls)
            return original(*args, **kwargs)

        # the evaluations of the initial solve and one escape round; the
        # later failure comes 10 evaluations into the round after them
        monkeypatch.setattr(solver, "loss_and_gradients", counted)
        fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=4, max_outer_iters=1))
        fail_at = 1 if where == "first-call" else next(calls) + 10
        calls = itertools.count(1)

        def failing(*args, **kwargs):
            if next(calls) == fail_at:
                raise NumericError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "loss_and_gradients", failing)
        match = "numeric failure " + ("in the initial minimization"
                                      if where == "first-call" else "mid-fit")
        with pytest.warns(UserWarning, match=match):
            sol = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=4))
        assert sol.stop_reason == "numeric"
        h = sol.loss_history
        if where == "first-call":
            B0, Z0 = solver.init(ds.X, ds.Y, hp, REG, 4)
            assert sol.B.tobytes() == B0.tobytes()
            assert sol.Z.tobytes() == Z0.tobytes()
            assert h == (sol.final_loss,) and sol.outer_iters_used == 1
        else:
            assert len(h) >= 2 and all(a >= b for a, b in zip(h, h[1:]))
            assert sol.final_loss == h[-1]
        assert sol.final_loss == total_loss(sol.X, sol.Y, sol.B, sol.Z, hp,
                                            REG)

    def test_successful_first_solve_computes_no_start_loss(self,
                                                           monkeypatch):
        """The start's loss is read only when the first solve fails, so a
        fit that needs no fallback spends no forward pass on it."""
        ds, _ = generate_rsynth(RsynthSpec(n=30, m=3, seed=4))
        calls = []
        monkeypatch.setattr(solver, "total_loss",
                            lambda *args: calls.append(args))
        sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG,
                  SolverConfig(seed=4, max_outer_iters=1))
        assert sol.stop_reason != "numeric"
        assert calls == []

    # Scripted post-solve losses: the initial solve, then one per round.
    # 0.05% gains are below the 0.1% round tolerance, 0.2% is above it,
    # and 1100 is a basin 10% worse than the best loss.
    SMALL = [1000.0 * (1 - 5e-4) ** k for k in range(120)]

    @pytest.mark.parametrize("script, rounds, reason", [
        (SMALL, 2, "plateau"),
        (SMALL[:2] + [s * 0.998 for s in SMALL[1:]], 4, "plateau"),
        ([1000.0] + [1100.0] * 9 + [900.0] + [1100.0] * 20, 20, "no-gain"),
        ([1000.0 * 0.998 ** k for k in range(120)], 100, "max-outer-iters"),
    ], ids=["two-small-gains-stop", "large-gain-resets",
            "ten-worse-rounds-stop", "gains-run-to-the-cap"])
    def test_round_stop_rule(self, script, rounds, reason, monkeypatch):
        ds, _ = generate_rsynth(RsynthSpec(n=10, m=2, seed=3))
        losses = iter(script)

        def scripted_minimize(fun_and_grad, B0, Z0, hp, config, band=None):
            return B0, Z0, next(losses)

        monkeypatch.setattr(solver, "escape", lambda X, Y, B, Z, task: (B, Z))
        monkeypatch.setattr(solver, "lbfgs_minimize", scripted_minimize)
        sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG,
                  SolverConfig(seed=3))
        assert sol.outer_iters_used == len(sol.loss_history) == rounds + 1
        assert sol.final_loss == min(script[:rounds + 1])
        assert sol.stop_reason == reason

    def test_band_ended_rounds_are_never_adopted(self, monkeypatch):
        """The first solve runs without a band and every escape round
        under the plateau band of the best loss before it.  A round the
        band ends stays at or above that loss, so the fit keeps a
        nonincreasing history and never returns the round's state."""
        ds, _ = generate_rsynth(RsynthSpec(n=40, m=3, seed=5))
        solves = []
        minimize = lbfgs.minimize

        def recording(*args, **kwargs):
            solves.append((kwargs["band"], minimize(*args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(lbfgs, "minimize", recording)
        sol = fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG,
                  SolverConfig(seed=5))
        h = sol.loss_history
        assert all(a >= b for a, b in zip(h, h[1:]))
        assert len(solves) == len(h) and solves[0][0] is None
        for best_f, (band, _) in zip(h, solves[1:]):
            assert band == (best_f, solver._plateau_top(best_f))
        ended = [(band, res) for band, res in solves if res.reason == "band"]
        # one round mid-fit and the two that stop it
        assert len(ended) == 3 and sol.stop_reason == "plateau"
        assert ended[0][1] is not solves[-1][1]
        state = np.concatenate([sol.B.ravel(), sol.Z.ravel()]).tobytes()
        for (lo, hi), res in ended:
            assert lo <= res.fun <= hi and sol.final_loss <= lo
            assert res.x.tobytes() != state

    def test_escape_disabled_terminates_and_is_worse(self):
        """Directional check: without the escape pass the reachable loss is
        no better, in the vast majority of seeded trials."""
        wins = 0
        trials = 20
        for seed in range(trials):
            ds, _ = generate_rsynth(RsynthSpec(n=80, m=5, seed=seed))
            hp = Hyperparams(lambda_z=0.1)
            with_esc = fit(ds.X, ds.Y, hp, REG, SolverConfig(seed=seed))
            without = fit(ds.X, ds.Y, hp, REG,
                          SolverConfig(seed=seed, max_outer_iters=0))
            if without.final_loss >= with_esc.final_loss - 1e-9:
                wins += 1
        assert wins >= int(0.8 * trials)

    def test_serialization_round_trip_lossless(self, small_fit, tmp_path):
        _, sol = small_fit
        path = tmp_path / "sol.json"
        sol.save(path)
        back = Solution.load(path)
        for field in ("X", "Y", "B", "Z"):
            assert getattr(back, field).tobytes() == \
                getattr(sol, field).tobytes()
        assert back.final_loss == sol.final_loss
        assert back.task == sol.task
        assert back.column_names == sol.column_names
        assert back.seed == sol.seed
        assert back.loss_history == sol.loss_history
        assert back.stop_reason == sol.stop_reason in solver.STOP_REASONS
        assert back.to_json_dict() == sol.to_json_dict()

    def test_equality_is_identity(self, small_fit):
        _, sol = small_fit
        copy = Solution.from_json_dict(sol.to_json_dict())
        assert sol == sol
        assert (sol == copy) is False and sol != copy
        assert copy.to_json_dict() == sol.to_json_dict()

    def test_file_without_fit_record_loads(self, small_fit):
        _, sol = small_fit
        doc = sol.to_json_dict()
        del doc["loss_history"], doc["numeric_warning"], doc["stop_reason"]
        back = Solution.from_json_dict(doc)
        assert back.loss_history == (sol.final_loss,)
        assert back.stop_reason == ""
        assert back.final_loss == sol.final_loss
        back = Solution.from_json_dict({**doc, "numeric_warning": True})
        assert back.stop_reason == "numeric"

    def test_negative_seed_is_data_error(self, small_fit):
        _, sol = small_fit
        with pytest.raises(DataError, match="seed"):
            Solution.from_json_dict({**sol.to_json_dict(), "seed": -1})

    def test_arrays_are_read_only_copies(self):
        """Neither ``fit`` nor ``Solution(...)`` keeps its input arrays, and
        a solution's own arrays refuse writes, so the start base a single
        add keeps always describes them: after the caller edits the X it
        fitted on, an add gives the bytes of the same add on a fresh copy
        of the solution."""
        ds, _ = generate_rsynth(RsynthSpec(n=40, m=3, seed=5))
        X, Y = ds.X.copy(), ds.Y.copy()
        config = SolverConfig(seed=5, max_outer_iters=1)
        sol = fit(X, Y, Hyperparams(lambda_z=0.1), REG, config)
        B, Z = sol.B.copy(), sol.Z.copy()
        built = dataclasses.replace(sol, X=X, Y=Y, B=B, Z=Z)
        for s, given_arrays in ((sol, (X, Y)), (built, (X, Y, B, Z))):
            for a in given_arrays:
                assert not any(np.shares_memory(a, getattr(s, name))
                               for name in "XYBZ")
            for name in "XYBZ":
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, name)[0, 0] = 1.0
        x, y = ds.X[3:4], ds.Y[3:4]
        add_new(sol, x, y, config)  # computes and keeps the start base
        X_before = sol.X.tobytes()
        X[:, 0] += 1.0
        assert sol.X.tobytes() == X_before
        fresh = Solution.from_json_dict(sol.to_json_dict())
        assert [a.tobytes() for a in add_new(sol, x, y, config)] == \
            [a.tobytes() for a in add_new(fresh, x, y, config)]

    def test_unpickled_solution_is_read_only(self, small_fit):
        """Pickling rebuilds a Solution through its constructor: the copy's
        arrays are read-only with numpy's own float64 dtype, so
        ``np.asarray(a, dtype=float)`` gives them back as they are (a solve
        then stacks the frozen rows once, not at every evaluation), it
        starts without the kept start base, and its adds give the
        original's bytes."""
        ds, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        config = SolverConfig(seed=11)
        adds = [(ds.X[:1], ds.Y[:1]), (ds.X[:4], ds.Y[:4])]
        want = [add_new(sol, x, y, config) for x, y in adds]
        assert "_start_base" in vars(sol)
        back = pickle.loads(pickle.dumps(sol))
        assert "_start_base" not in vars(back)
        assert back.to_json_dict() == sol.to_json_dict()
        for a in (back.X, back.Y, back.B, back.Z, back.normalization.mean,
                  back.normalization.std):
            assert not a.flags.writeable
            assert np.asarray(a, dtype=float) is a
        got = [add_new(back, x, y, config) for x, y in adds]
        for out, ref in zip(got, want):
            assert [a.tobytes() for a in out] == [a.tobytes() for a in ref]

    def test_names_history_and_normalization_refuse_edits(self, small_fit,
                                                          tmp_path):
        """A solution keeps tuples of its names and history and read-only
        copies of its normalization, so an in-place edit after ``fit``
        raises instead of making ``save`` write a file that does not load,
        as ``column_names.append`` on a list of names did; its document
        still holds lists."""
        _, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        names = list(sol.column_names)
        mean = sol.normalization.mean.copy()
        built = dataclasses.replace(sol, column_names=names,
                                    normalization=Normalization(
                                        mean=mean,
                                        std=sol.normalization.std.copy()))
        names.append("extra")
        mean[0] += 1.0
        assert built.column_names == sol.column_names
        assert built.normalization.mean.tobytes() \
            == sol.normalization.mean.tobytes()
        for s in (sol, built):
            for key in ("column_names", "target_names", "loss_history"):
                with pytest.raises(AttributeError):
                    getattr(s, key).append(getattr(s, key)[0])
            for a in (s.normalization.mean, s.normalization.std):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
            path = tmp_path / "sol.json"
            s.save(path)
            doc = Solution.load(path).to_json_dict()
            assert doc == fitted.to_json_dict()
            assert all(type(doc[key]) is list for key in
                       ("column_names", "target_names", "loss_history"))

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_non_positive_std_is_data_error(self, small_fit, std):
        _, sol = small_fit
        scale = sol.normalization.std.copy()
        scale[0] = std
        with pytest.raises(DataError, match="normalization"):
            dataclasses.replace(sol, normalization=Normalization(
                mean=sol.normalization.mean, std=scale))

    def test_record_fields_are_derived(self, small_fit):
        _, sol = small_fit
        names = {f.name for f in dataclasses.fields(Solution)}
        assert not names & {"final_loss", "outer_iters_used",
                            "numeric_warning"}
        assert not hasattr(sol, "numeric_warning")
        assert sol.final_loss == sol.loss_history[-1]
        assert sol.outer_iters_used == len(sol.loss_history)
        doc = sol.to_json_dict()
        assert doc["final_loss"] == sol.final_loss
        assert doc["outer_iters_used"] == len(sol.loss_history)
        assert doc["numeric_warning"] is False


class TestSettings:
    """Every numeric setting passes one rule where it is built, and every
    Solution that can be built saves a file that loads."""

    @pytest.mark.parametrize("field, value", [
        ("max_outer_iters", True), ("lbfgs_max_iters", 1000.0),
        ("rel_tol", True)])
    def test_config_refuses_booleans_and_float_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("hp, seed", [
        (Hyperparams(lambda_z=0.1), np.int64(1)),
        (Hyperparams(lambda_z=np.float32(0.1)), 1),
        (Hyperparams(lambda_z=0.1, d=np.int64(2)), 1),
    ], ids=["int64-seed", "float32-lambda-z", "int64-d"])
    def test_numpy_scalar_settings_save_and_reload(self, tmp_path, hp, seed):
        ds, _ = generate_rsynth(RsynthSpec(n=12, m=2, seed=1))
        sol = fit(ds.X, ds.Y, hp, REG,
                  SolverConfig(seed=seed, max_outer_iters=1))
        assert type(sol.seed) is int and type(sol.hyperparams.d) is int
        assert type(sol.hyperparams.lambda_z) is float
        sol.save(tmp_path / "s.json")
        back = Solution.load(tmp_path / "s.json")
        assert back.to_json_dict() == sol.to_json_dict()

    @pytest.mark.parametrize("key, names", [("column_names", [1, 2]),
                                            ("target_names", [None])])
    def test_non_string_names_are_refused_before_the_first_solve(
            self, monkeypatch, key, names):
        ds, _ = generate_rsynth(RsynthSpec(n=12, m=2, seed=1))

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(lbfgs, "minimize", no_solve)
        with pytest.raises(DataError, match=key):
            fit(ds.X, ds.Y, Hyperparams(lambda_z=0.1), REG, **{key: names})


class TestAddNew:
    def test_readding_training_rows_is_feasible(self, small_fit):
        _, sol = small_fit
        contrib = row_contributions(sol.X, sol.Y, sol.B, sol.Z,
                                    sol.hyperparams, sol.task)
        _, _, losses = add_new(sol, sol.X[:10], sol.Y[:10],
                               SolverConfig(seed=11), one_by_one=True)
        assert (losses <= contrib[:10] + 1e-4).all()

    def test_does_not_mutate_solution(self, small_fit):
        _, sol = small_fit
        b_before = sol.B.tobytes()
        z_before = sol.Z.tobytes()
        add_new(sol, sol.X[:3], sol.Y[:3], SolverConfig(seed=11))
        assert sol.B.tobytes() == b_before
        assert sol.Z.tobytes() == z_before

    def test_batch_and_one_by_one_both_work(self, small_fit):
        _, sol = small_fit
        for flag in (False, True):
            B_new, Z_new, losses = add_new(sol, sol.X[:4], sol.Y[:4],
                                           SolverConfig(seed=11),
                                           one_by_one=flag)
            assert B_new.shape == (4, sol.B.shape[1])
            assert Z_new.shape == (4, sol.Z.shape[1])
            assert np.isfinite(losses).all()

    def test_one_by_one_is_stacked_single_additions(self, small_fit):
        _, sol = small_fit
        config = SolverConfig(seed=11)
        together = add_new(sol, sol.X[:4], sol.Y[:4], config, one_by_one=True)
        singles = [add_new(sol, sol.X[i:i + 1], sol.Y[i:i + 1], config)
                   for i in range(4)]
        for got, parts in zip(together, zip(*singles)):
            want = np.concatenate(parts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def first_steps(monkeypatch, sol, rows, one_by_one, X=None, Y=None):
        """``(cap, x0, Z0)`` of every solve of ``add_new(sol, ...)`` on the
        training ``rows`` (or on those of ``X`` and ``Y``): the
        ``max_first_step`` passed to ``lbfgs.minimize``, the start vector
        and its embedding rows, unscaled; and the embedding scale."""
        seen = []
        minimize = lbfgs.minimize
        X = sol.X if X is None else X
        Y = sol.Y if Y is None else Y
        k = 1 if one_by_one else X[rows].shape[0]

        def recording(fg, x0, **kwargs):
            seen.append((kwargs["max_first_step"], x0.copy()))
            return minimize(fg, x0, **kwargs)

        monkeypatch.setattr(lbfgs, "minimize", recording)
        add_new(sol, X[rows], Y[rows], SolverConfig(seed=11),
                one_by_one=one_by_one)
        monkeypatch.undo()
        scale = max(1.0, np.sqrt(2.0 * sol.hyperparams.lambda_z))
        d = sol.Z.shape[1]
        return [(cap, x0, x0[-k * d:].reshape(k, d) / scale)
                for cap, x0 in seen], scale

    def test_first_step_cap_of_every_add(self, small_fit, monkeypatch):
        """Every solve of an add runs under one cap on its first step: the
        least distance from a start row's Z_r to the nearest old row apart
        from it, never below ``_ADD_FIRST_STEP``, times the embedding scale
        max(1, sqrt(2 lambda_z)) of the solve's units; a joint batch is one
        solve, each row of a ``one_by_one`` add its own.  The solver takes
        the distances from the Gram product, which rounds
        D_rj^2 = |Z_r|^2 + |Z_j|^2 - 2 Z_r . Z_j by up to about
        2 eps (|Z_r|^2 + |Z_j|^2), and so D_rj by about
        eps (|Z_r|^2 + |Z_j|^2) / D_rj; the cap is held to the exact rule
        within four times the largest such move at the nearest row."""
        _, fitted = small_fit
        floor = solver._ADD_FIRST_STEP
        eps = np.finfo(float).eps
        above = 0  # caps above the floor
        for lambda_z in (0.1, 2.0):
            sol = dataclasses.replace(
                fitted, hyperparams=Hyperparams(lambda_z=lambda_z))
            batch, _ = self.first_steps(monkeypatch, sol, slice(0, 3), False)
            single, scale = self.first_steps(monkeypatch, sol, slice(None),
                                             True)
            assert len(batch) == 1 and len(single) == sol.n
            for cap, _, Z0 in batch + single:
                D = np.sqrt(((sol.Z[None, :, :] - Z0[:, None, :]) ** 2)
                            .sum(axis=2))
                assert (D == 0.0).any(axis=1).all()  # z starts at old rows
                nearest = np.where(D > 0.0, D, np.inf).min(axis=1)
                want = max(floor, nearest.min()) * scale
                sq = (sol.Z ** 2).sum(axis=1)
                tol = 4.0 * eps * ((Z0 ** 2).sum(axis=1).max() + sq.max()) \
                    / nearest.min()
                assert abs(cap - want) <= tol * scale
                above += want > floor * scale
        assert above > 0

    def test_first_step_floor_when_every_row_coincides(self, small_fit,
                                                       monkeypatch):
        """With no old row apart from Z_r the cap is the floor
        ``_ADD_FIRST_STEP``, in the solve's units, for single and joint
        adds."""
        _, fitted = small_fit
        for lambda_z in (0.1, 2.0):
            sol = dataclasses.replace(
                fitted, Z=np.full_like(fitted.Z, 0.25),
                hyperparams=Hyperparams(lambda_z=lambda_z))
            for one_by_one, solves in ((True, 3), (False, 1)):
                seen, scale = self.first_steps(monkeypatch, sol, slice(0, 3),
                                               one_by_one)
                assert [cap for cap, _, _ in seen] \
                    == [solver._ADD_FIRST_STEP * scale] * solves

    @staticmethod
    def batch_start_rows(sol, X_new, Y_new):
        """The start rows of a joint add of (X_new, Y_new), by the rule
        written out: per point i, the anchor a = argmin_k L_k(x_i); the
        candidates, row a and then the other rows by decreasing weight
        W_a (ties to the smaller index), up to the first that brings
        their weight to half; the candidate of lowest copy score f_ki,
        the earlier on ties.  Also returns the global argmin of f."""
        L = local_loss_matrix(sol.B, X_new, Y_new, sol.task)
        S, w, pen, _ = sol._start_base
        rows, best = [], []
        for i in range(X_new.shape[0]):
            f = (S + w * L[:, i]) / (1.0 + w) + pen
            a = int(np.argmin(L[:, i]))
            W = objective.softmax_weights_row(sol.Z, a)
            order = sorted(range(sol.n), key=lambda j: (j != a, -W[j], j))
            cands, carried = [], 0.0
            for j in order:
                cands.append(j)
                carried += W[j]
                if carried >= 0.5:
                    break
            rows.append(min(cands, key=lambda j: (f[j], cands.index(j))))
            best.append(int(np.argmin(f)))
        return rows, best

    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)],
                             ids=["regression", "3-class"])
    def test_joint_rows_start_at_the_cheapest_copy_near_their_anchor(
            self, task, monkeypatch):
        """Each row of a joint add starts at (B_r, Z_r) of the cheapest
        copy among the fewest old rows that carry half of its anchor
        row's weight, the anchor being the old model that fits its point
        best; on these points some rows' cheapest copy over all old rows
        lies outside that neighbourhood."""
        ds, _ = generate_rsynth(RsynthSpec(n=70, m=4, seed=3))
        Y = ds.Y
        if task.is_classification:
            raw = np.random.default_rng(3).random((70, 3)) + 0.1
            Y = raw / raw.sum(axis=1, keepdims=True)
        sol = fit(ds.X[:50], Y[:50], Hyperparams(lambda_z=0.1), task,
                  SolverConfig(seed=3, max_outer_iters=2))
        X_new, Y_new = ds.X[50:], Y[50:]
        seen, scale = self.first_steps(monkeypatch, sol, slice(None), False,
                                       X_new, Y_new)
        (_, x0, _), = seen
        rows, best = self.batch_start_rows(sol, X_new, Y_new)
        want = np.concatenate([sol.B[rows].ravel(),
                               (sol.Z[rows] * scale).ravel()])
        assert x0.tobytes() == want.tobytes()
        assert rows != best

    def test_joint_add_forms_no_n_by_n_weights(self, small_fit,
                                               monkeypatch):
        """A joint add, its start base included, calls neither
        ``pairwise_distances`` nor ``softmax_weights`` (the escape rule's
        n x n weights)."""
        ds, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())

        def n_by_n(*args, **kwargs):
            raise AssertionError("a joint add formed n x n weights")

        for name in ("pairwise_distances", "softmax_weights"):
            monkeypatch.setattr(solver, name, n_by_n)
        B_new, Z_new, losses = add_new(sol, ds.X[:5], ds.Y[:5],
                                       SolverConfig(seed=11))
        assert np.isfinite(losses).all() and Z_new.shape == (5, 2)

    @pytest.mark.parametrize("one_by_one", [False, True])
    def test_zero_rows_add_nothing(self, small_fit, monkeypatch, one_by_one):
        _, sol = small_fit

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran for no rows")

        monkeypatch.setattr(lbfgs, "minimize", no_solve)
        B_new, Z_new, losses = add_new(sol, sol.X[:0], sol.Y[:0],
                                       one_by_one=one_by_one)
        assert B_new.shape == (0, sol.B.shape[1])
        assert Z_new.shape == (0, sol.Z.shape[1])
        assert losses.shape == (0,)

    def test_single_adds_share_one_forward_pass(self, small_fit,
                                                monkeypatch):
        """Three single adds on one Solution make one forward pass over its
        n rows in all, and give the bytes of the same adds on fresh copies
        of the solution."""
        _, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        new, _ = generate_rsynth(RsynthSpec(n=3, m=4, seed=12))
        config = SolverConfig(seed=11)
        passes = []

        def counting(forward):
            def wrapped(X, Y, B, Z, Z_old, task, work):
                if B.shape[0] == sol.n:
                    passes.append(B.shape[0])
                return forward(X, Y, B, Z, Z_old, task, work)
            return wrapped

        for module in (solver, objective):
            monkeypatch.setattr(module, "_forward",
                                counting(module._forward))
        got = [add_new(sol, new.X[i:i + 1], new.Y[i:i + 1], config)
               for i in range(3)]
        assert passes == [sol.n]
        for i, out in enumerate(got):
            fresh = Solution.from_json_dict(sol.to_json_dict())
            want = add_new(fresh, new.X[i:i + 1], new.Y[i:i + 1], config)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in want]

    def test_adds_keep_no_n_by_n_array(self, small_fit):
        """After single, batch and one-by-one adds a Solution holds no array
        of n^2 entries or more, neither as a field nor in its kept start
        base, and two batch adds give the bytes of the same adds on fresh
        copies of the solution."""
        _, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        n = sol.n
        assert n > max(sol.X.shape[1], sol.B.shape[1], sol.Y.shape[1],
                       sol.Z.shape[1])
        new, _ = generate_rsynth(RsynthSpec(n=6, m=4, seed=12))
        config = SolverConfig(seed=11)
        add_new(sol, new.X[:1], new.Y[:1], config)
        got = [add_new(sol, new.X[i:i + 3], new.Y[i:i + 3], config)
               for i in (0, 3)]
        add_new(sol, new.X, new.Y, config, one_by_one=True)

        def arrays(v):
            if isinstance(v, np.ndarray):
                yield v
            elif isinstance(v, (list, tuple)):
                for item in v:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(v):
                yield from arrays(list(vars(v).values()))

        assert "_start_base" in vars(sol)
        assert max(a.size for a in arrays(list(vars(sol).values()))) < n * n
        for i, out in zip((0, 3), got):
            fresh = Solution.from_json_dict(sol.to_json_dict())
            want = add_new(fresh, new.X[i:i + 3], new.Y[i:i + 3], config)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in want]

    def test_start_base_stays_with_its_solution(self, small_fit):
        """The start base kept by a single add is neither saved nor
        compared, and a solution made from another by
        ``dataclasses.replace`` starts from its own arrays."""
        _, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        config = SolverConfig(seed=11)
        keys = sorted(sol.to_json_dict())
        add_new(sol, sol.X[3:4], sol.Y[3:4], config)
        doc = sol.to_json_dict()
        assert sorted(doc) == keys
        assert doc == Solution.from_json_dict(doc).to_json_dict()

        B2 = sol.B.copy()
        B2[3] = 3.0 * B2[3] + 1.0
        changed = dataclasses.replace(sol, B=B2)
        copy = Solution.from_json_dict(changed.to_json_dict())
        moved = 0
        for i in (3, 4, 5):  # row 3 is point 5's cheapest copy in sol
            x, y = sol.X[i:i + 1], sol.Y[i:i + 1]
            got = [a.tobytes() for a in add_new(changed, x, y, config)]
            want = [a.tobytes() for a in add_new(copy, x, y, config)]
            assert got == want
            moved += got != [a.tobytes() for a in add_new(sol, x, y, config)]
        assert moved > 0
        own = solver._copy_base(changed.X, changed.Y, B2, changed.Z,
                                changed.hyperparams, changed.task)
        assert [a.tobytes() for a in changed._start_base] == \
            [a.tobytes() for a in own]

    @given(problems(max_n=9))
    def test_start_score_is_the_appended_loss_of_each_copy(self, problem):
        """The start score of a single add, for every old row k, is the loss
        of the new row as a copy of row k in the incremented problem."""
        task, X, Y, B, Z, hp = problem
        n = X.shape[0] - 1  # old rows; the last item is the new one
        assume(n >= 1)
        S, w, pen, _ = solver._copy_base(X[:n], Y[:n], B[:n], Z[:n], hp,
                                         task)
        L = local_loss_matrix(B[:n], X[n:], Y[n:], task)[:, 0]
        f = (S + w * L) / (1.0 + w) + pen
        assert f.shape == (n,)
        for k in range(n):
            exact = scalar_row_contribution(
                X, Y, np.vstack([B[:n], B[k]]), np.vstack([Z[:n], Z[k]]), hp,
                task, n)
            kernel, _, _ = added_loss_and_gradients(
                X, Y, Z[:n], B[k:k + 1], Z[k:k + 1], hp, task)
            assert abs(f[k] - exact) <= 1e-12 * exact
            # The kernel's Gram-route distance from the copy to row k is the
            # square root of a rounding error, up to about sqrt(8 eps)|Z_k|
            # (3e-7 here), and the loss moves by at most that share.
            assert abs(f[k] - kernel) <= 1e-6 * kernel

    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)],
                             ids=["regression", "3-class"])
    def test_single_add_loss_is_its_row_contribution(self, task, rng):
        """A single add returns its solve's loss, which is the new row's
        contribution to the incremented problem to the last bit."""
        ds, _ = generate_rsynth(RsynthSpec(n=34, m=3, seed=5))
        if task.is_classification:
            raw = rng.random((34, 3)) + 0.1
            Y = raw / raw.sum(axis=1, keepdims=True)
        else:
            Y = ds.Y
        hp = Hyperparams(lambda_z=0.1)
        config = SolverConfig(seed=5, max_outer_iters=1)
        sol = fit(ds.X[:30], Y[:30], hp, task, config)
        X_new, Y_new = ds.X[30:], Y[30:]
        adds = [add_new(sol, X_new[:1], Y_new[:1], config),
                add_new(sol, X_new, Y_new, config, one_by_one=True)]
        for B_new, Z_new, losses in adds:
            for i in range(len(losses)):
                want = row_contributions(
                    np.vstack([sol.X, X_new[i:i + 1]]),
                    np.vstack([sol.Y, Y_new[i:i + 1]]), B_new[i:i + 1],
                    Z_new[i:i + 1], hp, task, Z_old=sol.Z)
                assert losses[i:i + 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", [TaskKind.classification(3), REG],
                             ids=["3-class", "regression"])
    def test_single_adds_take_few_evaluations(self, task, monkeypatch):
        """A single add's z starts at its copy's, at the kink of the
        smoothed distance to it; its first trial step stays at that scale
        instead of a unit step the zoom walks back a decade per evaluation
        (a median of 7 evaluations per 3-class add here with the unit
        step).  A regression add starts B at the weighted least-squares fit
        of the copy's neighbourhood: 90% of the adds here take at most 6.7
        evaluations, and 34.4 when B starts at the copy's."""
        if task.is_classification:
            ds, _ = generate_rsynth(RsynthSpec(n=42, m=3, seed=5))
            raw = np.random.default_rng(5).random((42, 3)) + 0.1
            Y, n_old, config = raw / raw.sum(axis=1, keepdims=True), 30, \
                SolverConfig(seed=5)
        else:
            ds, _ = generate_rsynth(RsynthSpec(n=120, m=5, seed=1))
            Y, n_old, config = ds.Y, 100, SolverConfig(seed=1)
        sol = fit(ds.X[:n_old], Y[:n_old], Hyperparams(lambda_z=0.1), task,
                  config)
        evals = []
        minimize = lbfgs.minimize

        def counting(*args, **kwargs):
            res = minimize(*args, **kwargs)
            evals.append(res.n_evals)
            return res

        monkeypatch.setattr(lbfgs, "minimize", counting)
        add_new(sol, ds.X[n_old:], Y[n_old:], config, one_by_one=True)
        if task.is_classification:
            assert len(evals) == 12
            assert np.median(evals) <= 5
        else:
            assert len(evals) == 20
            assert np.percentile(evals, 90) <= 10

    @given(problems(max_n=9), st.booleans(), st.sampled_from([1e-4, 1.0]))
    def test_single_add_start_is_the_neighbourhood_least_squares_fit(
            self, problem, logit, lambda_lasso):
        """A single add's z starts at its copy's Z_r.  For a squared-loss
        task B starts at the least-squares fit of the copy's neighbourhood
        when that starts no higher than the copy's B_r, which a heavy lasso
        penalty can prevent; a classification add starts B at B_r, bit for
        bit."""
        task, X, Y, B, Z, hp = problem
        n = X.shape[0] - 1  # old rows; the last item is the new one
        assume(n >= 1)
        if logit and not task.is_classification:
            task = TaskKind.binary_logit()
        hp = dataclasses.replace(hp, lambda_lasso=lambda_lasso)
        sol = make_solution(X[:n], Y[:n], B[:n], Z[:n], hp, task)
        x0, _ = start_of_single_add(sol, X[n:], Y[n:])
        q = B.shape[1]
        assert hp.lambda_z <= 0.5  # the solve's embedding block is Z itself
        r, = np.flatnonzero((Z[:n] == x0[q:]).all(axis=1))
        Z_copy = np.vstack([Z[:n], Z[r]])

        def start_loss(b):
            return scalar_row_contribution(X, Y, np.vstack([B[:n], b]),
                                           Z_copy, hp, task, n)

        f_r, start = start_loss(B[r]), start_loss(x0[:q])
        # The kernel decides with vectorized sums and the oracle recomputes
        # with scalar ones; they differ by rounding of order 1e-15.
        slack = 1e-12 * f_r
        assert start <= f_r + slack
        if task.is_classification:
            assert x0[:q].tobytes() == B[r].tobytes()
            return
        e = np.append(np.exp(-np.sqrt(((Z[:n] - Z[r]) ** 2).sum(axis=1))),
                      1.0)  # the new item sits at distance 0 from itself
        sw = np.sqrt(e / e.sum())
        A = X * sw[:, None]
        b_star = np.linalg.lstsq(A, Y[:, 0] * sw, rcond=None)[0]
        # b* is unique only when A has full column rank
        kappa = np.linalg.cond(A) if n + 1 >= q else np.inf
        if start_loss(b_star) > f_r + slack:
            assert x0[:q].tobytes() == B[r].tobytes()
        elif kappa < 1e4 and start_loss(b_star) < f_r - slack:
            # The normal equations square the condition number kappa of A,
            # so in float64 their solution is within about kappa^2 eps of
            # the exact b* (relative), and so is lstsq's; 100 covers the
            # constants of both for q <= 4.
            tol = 100.0 * kappa ** 2 * np.finfo(float).eps
            assert np.abs(x0[:q] - b_star).max() <= \
                tol * np.abs(b_star).max()

    def test_singular_neighbourhood_fit_keeps_the_copy(self):
        """With a column of X duplicated the normal equations of the
        least-squares start are singular: the add starts from the copy's
        B_r, raises nothing and ends no higher than its copy score."""
        ds, _ = generate_rsynth(RsynthSpec(n=34, m=3, seed=5))
        X = np.hstack([ds.X[:, :1], ds.X])
        config = SolverConfig(seed=5, max_outer_iters=1)
        sol = fit(X[:30], ds.Y[:30], Hyperparams(lambda_z=0.1), REG, config)
        S, w, pen, _ = sol._start_base
        for i in range(30, 34):
            x, y = X[i:i + 1], ds.Y[i:i + 1]
            x0, (B_new, Z_new, losses) = start_of_single_add(sol, x, y,
                                                             config)
            L = local_loss_matrix(sol.B, x, y, REG)[:, 0]
            f = (S + w * L) / (1.0 + w) + pen
            r = np.argmin(f)
            assert x0[:sol.B.shape[1]].tobytes() == sol.B[r].tobytes()
            assert np.isfinite(B_new).all() and np.isfinite(Z_new).all()
            assert losses[0] <= f[r]

    @pytest.mark.parametrize("name, value", [("X_new", np.inf),
                                             ("Y_new", np.nan)])
    @pytest.mark.parametrize("rows, one_by_one", [(1, False), (3, False),
                                                  (3, True)],
                             ids=["single", "batch", "one-by-one"])
    def test_non_finite_new_points_are_data_error(self, small_fit,
                                                  monkeypatch, name, value,
                                                  rows, one_by_one):
        """Non-finite new points are refused, naming the array, before any
        start or solve."""
        _, fitted = small_fit
        sol = Solution.from_json_dict(fitted.to_json_dict())
        new = {"X_new": sol.X[:rows].copy(), "Y_new": sol.Y[:rows].copy()}
        new[name][-1, 0] = value

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran for non-finite points")

        monkeypatch.setattr(lbfgs, "minimize", no_solve)
        with pytest.raises(DataError, match=name):
            add_new(sol, new["X_new"], new["Y_new"], one_by_one=one_by_one)
        assert "_start_base" not in vars(sol)

    @pytest.mark.parametrize("fault", ["text-X", "text-Y", "not-summing"])
    def test_new_points_must_be_numbers_and_probabilities(self, fault, rng):
        """Text in new points is a DataError naming the array, and so is a
        classification response row that is not a probability vector."""
        task = TaskKind.classification(3)
        X, Y, B, Z, hp = random_instance(task, 8, 3, 2, rng)
        sol = make_solution(X[:6], Y[:6], B[:6], Z[:6], hp, task)
        new = {"X_new": X[6:].astype(object), "Y_new": Y[6:].astype(object)}
        if fault == "not-summing":
            new["Y_new"][1] *= 3.0
            match = "responses in Y_new must sum to 1 per row; row 1"
        else:
            name = "X_new" if fault == "text-X" else "Y_new"
            new[name][1, 0] = "a"
            match = f"{name} has entries that are not numbers"
        for one_by_one in (False, True):
            with pytest.raises(DataError, match=match):
                add_new(sol, new["X_new"], new["Y_new"],
                        one_by_one=one_by_one)

    def test_shape_mismatch_rejected(self, small_fit):
        _, sol = small_fit
        with pytest.raises(ShapeError):
            add_new(sol, sol.X[:3, :-1], sol.Y[:3])
        with pytest.raises(ShapeError):
            add_new(sol, sol.X[:3], sol.Y[:2])

    def test_two_point_solution_matches_grid_search(self):
        """Brute-force oracle: on a 1-feature, 1-d instance the optimizer
        must match an exhaustive grid over (slope, intercept, z)."""
        X = np.array([[0.5, 1.0], [-0.4, 1.0]])
        Y = np.array([[1.0], [-0.8]])
        hp = Hyperparams(lambda_z=0.5, d=1)
        sol = fit(X, Y, hp, REG, SolverConfig(seed=0))
        # near-copy of the first point, so its basin is the global one
        x_new = np.array([[0.45, 1.0]])
        y_new = np.array([[0.95]])
        B_new, Z_new, losses = add_new(sol, x_new, y_new, SolverConfig(seed=0))

        # independent vectorized oracle over all grid candidates: direct
        # formulas only, no objective-module calls
        grid = np.linspace(-3.0, 3.0, 61)
        b0g, b1g, zg = (v.ravel() for v in np.meshgrid(grid, grid, grid,
                                                       indexing="ij"))
        Xc = np.vstack([sol.X, x_new])
        yc = np.concatenate([sol.Y[:, 0], y_new[:, 0]])
        preds = b0g[:, None] * Xc[:, 0][None, :] + b1g[:, None]
        losses_grid = (preds - yc[None, :]) ** 2
        dists = np.stack([np.abs(zg - sol.Z[0, 0]), np.abs(zg - sol.Z[1, 0]),
                          np.zeros_like(zg)], axis=1)
        w = np.exp(-dists)
        w /= w.sum(axis=1, keepdims=True)
        contrib = (w * losses_grid).sum(axis=1) + hp.lambda_z * zg ** 2 \
            + hp.lambda_lasso * (np.abs(b0g) + np.abs(b1g))
        best_idx = int(np.argmin(contrib))
        best_val = float(contrib[best_idx])
        best_params = np.array([b0g[best_idx], b1g[best_idx], zg[best_idx]])

        # the vectorized oracle itself agrees with the scalar one
        ref = scalar_row_contribution(
            Xc, np.vstack([sol.Y, y_new]),
            np.vstack([sol.B, [[b0g[best_idx], b1g[best_idx]]]]),
            np.vstack([sol.Z, [[zg[best_idx]]]]), hp, REG, 2)
        assert abs(best_val - ref) < 1e-12

        step = grid[1] - grid[0]
        assert losses[0] <= best_val + 1e-6 * (1.0 + abs(best_val))
        found = np.array([B_new[0, 0], B_new[0, 1], Z_new[0, 0]])
        assert np.abs(found - best_params).max() <= step
