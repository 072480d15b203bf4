"""Tests for the joint loss surface: distances, weights, loss matrix,
total loss, and analytic gradients."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (central_difference, hellinger_sq, linear_predict,
                      max_grad_error, multinomial_predict, problems,
                      quadratic_loss, random_instance, scalar_total_loss)
from slisemap.errors import NumericError, ShapeError
from slisemap.model import TaskKind
from slisemap.objective import (Hyperparams, Workspace, _as_problem,
                                _forward, _grad_b, _local_losses,
                                added_loss_and_gradients,
                                local_loss_matrix, loss_and_gradients,
                                pairwise_distances, row_contributions,
                                softmax_weights, softmax_weights_row,
                                total_loss, uniform_loss_and_grad)
from slisemap.solver import escape

REG = TaskKind.regression()


def random_orthogonal(d, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q


def forward(X, Y, B, Z, hp, task):
    """Distances, softmax weights and local losses of the full problem, as
    the kernel's forward pass computes them."""
    X, Y, B, Z, Z_old = _as_problem(task, X, Y, B, Z, hp.d)
    _, _, D, W, L, _ = _forward(X, Y, B, Z, Z_old, task, Workspace())
    return D, W, L


class TestHyperparams:
    def test_requires_positive_lambda_z(self):
        with pytest.raises(ValueError):
            Hyperparams(lambda_z=0.0)
        with pytest.raises(ValueError):
            Hyperparams(lambda_z=-1.0)

    @pytest.mark.parametrize("field", ["lambda_z", "lambda_lasso"])
    def test_rejects_nan_penalties(self, field):
        with pytest.raises(ValueError):
            Hyperparams(**{"lambda_z": 0.1, field: math.nan})

    @pytest.mark.parametrize("field, kwargs", [
        ("lambda_z", {"lambda_z": math.inf}),
        ("lambda_lasso", {"lambda_z": 0.1, "lambda_lasso": math.inf}),
        ("lambda_z", {"lambda_z": True}),
    ], ids=["infinite-lambda-z", "infinite-lambda-lasso", "boolean-lambda-z"])
    def test_rejects_infinite_and_boolean_penalties(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        hp = Hyperparams(lambda_z=np.float32(0.5), lambda_lasso=np.float64(0),
                         d=np.int32(3))
        assert (type(hp.lambda_z), type(hp.lambda_lasso), type(hp.d)) == \
            (float, float, int)
        assert (hp.lambda_z, hp.lambda_lasso, hp.d) == (0.5, 0.0, 3)

    @pytest.mark.parametrize("d", [0, 2.5, True, None])
    def test_embedding_width_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="embedding dimension"):
            Hyperparams(lambda_z=0.1, d=d)

    def test_defaults(self):
        hp = Hyperparams(lambda_z=0.1)
        assert hp.lambda_lasso == 1e-4
        assert hp.d == 2


class TestPairwiseDistances:
    def test_three_four_five_triangle(self):
        D = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(D, [[0.0, 5.0], [5.0, 0.0]])

    def test_coincident_points(self):
        D = pairwise_distances(np.ones((4, 2)))
        np.testing.assert_array_equal(D, np.zeros((4, 4)))

    def test_matches_nested_loop_oracle(self, rng):
        Z = rng.standard_normal((5, 2))
        D = pairwise_distances(Z)
        for i in range(5):
            for j in range(5):
                ref = math.sqrt(sum((Z[i, k] - Z[j, k]) ** 2 for k in range(2)))
                assert abs(D[i, j] - ref) < 1e-12

    def test_symmetry_and_zero_diagonal(self, rng):
        D = pairwise_distances(rng.standard_normal((8, 3)))
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), np.zeros(8))


class TestSoftmaxWeights:
    def test_uniform_on_zero_distances(self):
        W = softmax_weights(np.zeros((3, 3)))
        np.testing.assert_allclose(W, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_log_two_example(self):
        D = np.array([[0.0, math.log(2.0)], [math.log(2.0), 0.0]])
        W = softmax_weights(D)
        np.testing.assert_allclose(W, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                                   atol=1e-15)

    def test_rows_sum_to_one_and_match_oracle(self, rng):
        import mpmath

        mpmath.mp.dps = 40
        for _ in range(5):
            D = np.abs(rng.standard_normal((6, 6)))
            np.fill_diagonal(D, 0.0)
            W = softmax_weights(D)
            np.testing.assert_allclose(W.sum(axis=1), np.ones(6), atol=1e-12)
            for i in range(6):
                den = mpmath.fsum(mpmath.exp(-mpmath.mpf(D[i, k]))
                                  for k in range(6))
                for j in range(6):
                    ref = float(mpmath.exp(-mpmath.mpf(D[i, j])) / den)
                    assert abs(W[i, j] - ref) < 1e-12

    def test_self_weight_is_row_max(self, rng):
        for _ in range(20):
            D = pairwise_distances(rng.standard_normal((7, 2)))
            W = softmax_weights(D)
            assert (np.diag(W)[:, None] >= W - 1e-15).all()

    @pytest.mark.parametrize("n, d, scale", [(40, 2, 1.0), (200, 2, 1.0),
                                             (40, 3, 5.0), (60, 1, 0.1)])
    def test_row_is_the_full_routes_row(self, rng, n, d, scale):
        """The O(n) row ``softmax_weights_row(Z, r)`` is row r of
        ``softmax_weights(pairwise_distances(Z))`` on embeddings without
        coincident rows.  The one-row Gram product may round Z_r . Z_j
        differently from the all-rows one, by up to eps |Z_r| |Z_j|; that
        moves D_rj by that over D_rj, and W_rj and the row's normalization
        by as much, so each weight is held to 1e-15 relative plus twice
        the largest such move of its row."""
        Z = scale * rng.standard_normal((n, d))
        W = softmax_weights(pairwise_distances(Z))
        D = pairwise_distances(Z)
        np.fill_diagonal(D, np.inf)
        assert D.min() > 0.0
        norms = np.linalg.norm(Z, axis=1)
        eps = np.finfo(float).eps
        for r in range(n):
            got = softmax_weights_row(Z, r)
            assert got.shape == (n,)
            tol = 1e-15 + 2.0 * eps * (norms[r] * norms / D[r]).max()
            assert (np.abs(got - W[r]) <= tol * W[r]).all()


class TestLocalLossMatrix:
    def test_true_coefficients_zero_row(self, rng):
        # single linear regime, noise free: the true model's row is zero
        n, m = 8, 3
        X = np.hstack([rng.standard_normal((n, m)), np.ones((n, 1))])
        b_true = rng.standard_normal(m + 1)
        Y = (X @ b_true)[:, None]
        B = rng.standard_normal((n, m + 1))
        B[2] = b_true
        L = local_loss_matrix(B, X, Y, REG)
        np.testing.assert_allclose(L[2], np.zeros(n), atol=1e-20)

    def test_single_point(self, rng):
        X = np.array([[1.0, 1.0]])
        Y = np.array([[2.0]])
        B = np.array([[3.0, -2.0]])
        L = local_loss_matrix(B, X, Y, REG)
        assert L.shape == (1, 1)
        assert L[0, 0] == quadratic_loss(linear_predict(X[0], B[0]), 2.0)

    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)])
    def test_matches_pairwise_loop_oracle(self, task, rng):
        X, Y, B, Z, hp = random_instance(task, 4, 3, 2, rng)
        L = local_loss_matrix(B, X, Y, task)
        for i in range(4):
            for j in range(4):
                if task.is_classification:
                    pred = multinomial_predict(X[j], B[i], task.n_classes)
                    ref = hellinger_sq(pred, Y[j])
                else:
                    ref = quadratic_loss(linear_predict(X[j], B[i]), Y[j, 0])
                assert abs(L[i, j] - ref) < 1e-12

    def test_rectangular_models_vs_points(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 6, 3, 2, rng)
        L = local_loss_matrix(B[:2], X, Y, REG)
        assert L.shape == (2, 6)

    def test_dimension_mismatch(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 4, 3, 2, rng)
        with pytest.raises(ShapeError):
            local_loss_matrix(B[:, :2], X, Y, REG)


class TestTotalLoss:
    def test_single_row_formula(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 1, 3, 2, rng)
        expected = local_loss_matrix(B, X, Y, REG)[0, 0] \
            + hp.lambda_z * (Z[0] ** 2).sum() \
            + hp.lambda_lasso * np.abs(B[0]).sum()
        assert abs(total_loss(X, Y, B, Z, hp, REG) - expected) < 1e-12

    def test_rotation_invariance(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 6, 3, 2, rng)
        base = total_loss(X, Y, B, Z, hp, REG)
        for _ in range(25):
            R = random_orthogonal(2, rng)
            rotated = total_loss(X, Y, B, Z @ R, hp, REG)
            assert abs(rotated - base) < 1e-9 * (1.0 + abs(base))

    def test_translation_changes_loss(self, rng):
        for _ in range(10):
            X, Y, B, Z, hp = random_instance(REG, 5, 3, 2, rng)
            shifted = total_loss(X, Y, B, Z + np.array([1.0, -0.5]), hp, REG)
            assert abs(shifted - total_loss(X, Y, B, Z, hp, REG)) > 1e-6

    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)])
    def test_matches_scalar_loop_oracle(self, task, rng):
        X, Y, B, Z, hp = random_instance(task, 6, 3, 2, rng)
        ref = scalar_total_loss(X, Y, B, Z, hp, task)
        got = total_loss(X, Y, B, Z, hp, task)
        assert abs(got - ref) < 1e-10 * (1.0 + abs(ref))

    def test_monotone_in_lambda_z(self, rng):
        X, Y, B, Z, _ = random_instance(REG, 5, 3, 2, rng)
        values = [total_loss(X, Y, B, Z, Hyperparams(lambda_z=lz), REG)
                  for lz in (1e-3, 1e-2, 1e-1, 1.0, 10.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("loss", [
        lambda X, Y, B, Z, hp: total_loss(X, Y, B, Z, hp, REG),
        lambda X, Y, B, Z, hp: loss_and_gradients(X, Y, B, Z, hp, REG),
        lambda X, Y, B, Z, hp: added_loss_and_gradients(
            X, Y, Z[:2], B[2:], Z[2:], hp, REG),
    ], ids=["total_loss", "loss_and_gradients", "added_loss_and_gradients"])
    def test_non_finite_names_term(self, loss, rng):
        X, Y, B, Z, hp = random_instance(REG, 4, 3, 2, rng)
        Y = Y * 1e200  # squared residuals overflow
        with pytest.raises(NumericError) as err:
            loss(X, Y, B, Z, hp)
        assert "data term" in str(err.value)


class TestLossState:
    def test_state_invariants(self, rng):
        X, Y, B, Z, hp = random_instance(REG, 7, 3, 2, rng)
        D, W, L = forward(X, Y, B, Z, hp, REG)
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(7), atol=1e-9)
        assert (L >= 0).all()
        assert np.isfinite(total_loss(X, Y, B, Z, hp, REG))


class TestLossGradients:
    def test_zero_model_zero_response_stationary_in_b(self):
        X = np.hstack([np.zeros((3, 2)), np.ones((3, 1))])
        X[:, :2] = np.eye(3, 2)
        Y = np.zeros((3, 1))
        B = np.zeros((3, 3))
        Z = np.linspace(0, 1, 6).reshape(3, 2)
        hp = Hyperparams(lambda_z=0.5)
        _, gB, _ = loss_and_gradients(X, Y, B, Z, hp, REG)
        np.testing.assert_array_equal(gB, np.zeros_like(B))  # sign(0) == 0

    def test_zero_embedding_penalty_gradient_vanishes(self, rng):
        X, Y, B, _, _ = random_instance(REG, 5, 3, 2, rng)
        Z = np.zeros((5, 2))
        g1 = loss_and_gradients(X, Y, B, Z, Hyperparams(lambda_z=0.1), REG)[2]
        g2 = loss_and_gradients(X, Y, B, Z, Hyperparams(lambda_z=100.0),
                                REG)[2]
        np.testing.assert_array_equal(g1, g2)

    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3),
                                      TaskKind.binary_logit()])
    def test_finite_difference_agreement(self, task, rng):
        for trial in range(20):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 6))
            X, Y, B, Z, hp = random_instance(task, n, m, 2, rng)
            f, gB, gZ = loss_and_gradients(X, Y, B, Z, hp, task)
            fdB = central_difference(
                lambda Bv: total_loss(X, Y, Bv, Z, hp, task), B)
            fdZ = central_difference(
                lambda Zv: total_loss(X, Y, B, Zv, hp, task), Z)
            assert max_grad_error(gB, fdB) < 1e-4
            assert max_grad_error(gZ, fdZ) < 1e-4
            assert abs(f - total_loss(X, Y, B, Z, hp, task)) < 1e-12


class TestAddedRowsObjective:
    def test_finite_difference_agreement(self, rng):
        for task in (REG, TaskKind.classification(3)):
            n_old, n_new, m = 5, 2, 3
            X, Y, B, Z, hp = random_instance(task, n_old + n_new, m, 2, rng)
            B_new = B[n_old:]
            Z_old, Z_new = Z[:n_old], Z[n_old:]

            def value(Bn, Zn):
                return added_loss_and_gradients(
                    X, Y, Z_old, Bn, Zn, hp, task)[0]

            f, gB, gZ = added_loss_and_gradients(
                X, Y, Z_old, B_new, Z_new, hp, task)
            fdB = central_difference(lambda v: value(v, Z_new), B_new)
            fdZ = central_difference(lambda v: value(B_new, v), Z_new)
            assert max_grad_error(gB, fdB) < 1e-4
            assert max_grad_error(gZ, fdZ) < 1e-4

    def test_single_feasible_copy_matches_row_contribution(self, rng):
        """Appending an exact copy of row i at row i's position gives the
        same contribution as an independent scalar computation."""
        from conftest import scalar_row_contribution

        X, Y, B, Z, hp = random_instance(REG, 4, 3, 2, rng)
        i = 1
        Xc = np.vstack([X, X[i:i + 1]])
        Yc = np.vstack([Y, Y[i:i + 1]])
        f, _, _ = added_loss_and_gradients(Xc, Yc, Z, B[i:i + 1],
                                           Z[i:i + 1], hp, REG)
        Bc = np.vstack([B, B[i:i + 1]])
        Zc = np.vstack([Z, Z[i:i + 1]])
        ref = scalar_row_contribution(Xc, Yc, Bc, Zc, hp, REG, 4)
        assert abs(f - ref) < 1e-10


def evaluate(problem, n_old=0, work=None):
    """The kernel on a problem, with its first ``n_old`` rows frozen."""
    task, X, Y, B, Z, hp = problem
    if n_old == 0:
        return loss_and_gradients(X, Y, B, Z, hp, task, work=work)
    return added_loss_and_gradients(X, Y, Z[:n_old], B[n_old:], Z[n_old:],
                                    hp, task, work=work)


def assert_bit_identical(a, b):
    f_a, gB_a, gZ_a = a
    f_b, gB_b, gZ_b = b
    assert np.float64(f_a).tobytes() == np.float64(f_b).tobytes()
    assert gB_a.shape == gB_b.shape and gB_a.tobytes() == gB_b.tobytes()
    assert gZ_a.shape == gZ_b.shape and gZ_a.tobytes() == gZ_b.tobytes()


class TestKernelProperties:
    @given(problems())
    def test_loss_matches_scalar_loop_oracle(self, problem):
        task, X, Y, B, Z, hp = problem
        f, _, _ = loss_and_gradients(X, Y, B, Z, hp, task)
        ref = scalar_total_loss(X, Y, B, Z, hp, task)
        assert abs(f - ref) <= 1e-10 * (1.0 + abs(ref))

    @given(problems())
    def test_no_frozen_rows_is_the_full_problem(self, problem):
        task, X, Y, B, Z, hp = problem
        added = added_loss_and_gradients(X, Y, Z[:0], B, Z, hp, task)
        assert_bit_identical(added, loss_and_gradients(X, Y, B, Z, hp, task))

    @given(problems())
    def test_total_loss_is_the_kernel_loss(self, problem):
        task, X, Y, B, Z, hp = problem
        f, _, _ = loss_and_gradients(X, Y, B, Z, hp, task)
        assert np.float64(total_loss(X, Y, B, Z, hp, task)).tobytes() \
            == np.float64(f).tobytes()

    @given(problems())
    def test_loss_state_matches_the_public_builders(self, problem):
        task, X, Y, B, Z, hp = problem
        D_k, W_k, L_k = forward(X, Y, B, Z, hp, task)
        D = pairwise_distances(Z)
        for got, want in ((D_k, D), (W_k, softmax_weights(D)),
                          (L_k, local_loss_matrix(B, X, Y, task))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.lists(problems(), min_size=2, max_size=4))
    def test_reused_workspace_matches_fresh_calls(self, problems_):
        work = Workspace()
        for problem in problems_:
            n = problem[1].shape[0]
            for n_old in sorted({0, n // 2}):
                assert_bit_identical(evaluate(problem, n_old, work),
                                     evaluate(problem, n_old))

    @given(problems(), problems())
    def test_later_calls_leave_earlier_results_alone(self, first, second):
        work = Workspace()
        out = evaluate(first, work=work)
        kept = (out[0], out[1].copy(), out[2].copy())
        task, X, Y, B, Z, hp = first
        evaluate(second, work=work)
        evaluate((task, X, Y, B + 1.0, Z - 1.0, hp), work=work)  # same shapes
        assert_bit_identical(out, kept)


def class_major_grad_b(B, X, V, cache):
    """The classification B gradient in its first form: the weighted
    gradient planes G (classes x rows x items), summed over the items by one
    class-major einsum.  The kernel's layout must reproduce these bytes."""
    Q, H, Hsum = cache
    free = Q.shape[0] - 1
    G = (H[:free] - Q[:free] * Hsum) * -0.5
    G *= V
    return np.einsum("cij,jk->ick", G, X).reshape(B.shape)


class TestClassificationGradB:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("rows", ["1", "q-1", "q", "q+1", "150"])
    def test_every_layout_gives_the_class_major_bytes(self, p, rows):
        """Whatever layout the kernel picks for k model rows against N
        items, its gradient equals the class-major einsum byte for byte."""
        task, q = TaskKind.classification(p), 11
        k = {"1": 1, "q-1": q - 1, "q": q, "q+1": q + 1, "150": 150}[rows]
        rng = np.random.default_rng([p, k])
        for N in sorted({k, k + 7, 300}):
            X, Y, B, _, _ = random_instance(task, N, q - 1, 2, rng)
            B, V = B[:k], rng.random((k, N))
            _, cache = _local_losses(B, X, Y, task, Workspace())
            want = class_major_grad_b(B, X, V, cache)
            _, cache = _local_losses(B, X, Y, task, Workspace())
            got = _grad_b(B, X, task, V, cache)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWorkspaceAllocation:
    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)])
    def test_evaluation_allocates_no_n_by_n_array(self, task, rng):
        """After a warm-up call, an evaluation works in the workspace's
        buffers: its peak allocation stays below one n x n array."""
        n = 200
        X, Y, B, Z, hp = random_instance(task, n, 10, 2, rng)
        work = Workspace()
        loss_and_gradients(X, Y, B, Z, hp, task, work=work)
        tracemalloc.start()
        try:
            loss_and_gradients(X, Y, B, Z, hp, task, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestWorkspaceCache:
    def test_alternating_problems_match_fresh_workspaces(self, rng):
        """One Workspace taken through calls that change Z_old (another
        array of the same shape, or more rows), X (same shape), the task and
        the number of optimized rows, and back, gives the bytes of a fresh
        Workspace on every call: nothing it keeps for one problem is reused
        for another."""
        X, Y, B, Z, hp = random_instance(REG, 12, 3, 2, rng)
        Xc, Yc, Bc, Zc, _ = random_instance(TaskKind.classification(3), 12,
                                            3, 2, rng)
        Z_old = Z[:8].copy()
        other_old = Z_old + 0.5  # same shape, other values
        X2 = X * 1.5  # same shape, other values
        clf = TaskKind.classification(3)
        calls = [
            ("added", REG, X, Y, Z_old, B[8:], Z[8:]),
            ("added", REG, X, Y, Z_old, B[8:] + 0.1, Z[8:] - 0.1),
            ("added", REG, X, Y, other_old, B[8:], Z[8:]),
            ("added", REG, X2, Y, other_old, B[8:], Z[8:]),
            ("rows", REG, X2, Y, Z_old, B[8:], Z[8:]),
            ("added", REG, X, Y, Z[:10], B[10:], Z[10:]),  # k = 2
            ("full", REG, X, Y, None, B, Z),
            ("added", clf, Xc, Yc, Zc[:8], Bc[8:], Zc[8:]),
            ("full", clf, Xc, Yc, None, Bc, Zc),
            ("full", REG, X, Y, None, B * 0.5, Z),
            ("added", REG, X, Y, Z_old, B[8:], Z[8:]),
        ]

        def run(kind, task, X, Y, Z_old, B, Z, work):
            if kind == "full":
                return loss_and_gradients(X, Y, B, Z, hp, task, work=work)
            if kind == "rows":
                return (0.0, row_contributions(X, Y, B, Z, hp, task,
                                               Z_old=Z_old),
                        np.empty(0))
            return added_loss_and_gradients(X, Y, Z_old, B, Z, hp, task,
                                            work=work)

        work = Workspace()
        for call in calls:
            assert_bit_identical(run(*call, work), run(*call, Workspace()))

    def test_same_arrays_with_other_rows_are_checked(self, rng):
        """After a call on (X, Y, Z_old), a call on the same arrays whose
        (B, Z) disagree with them still raises a ShapeError."""
        X, Y, B, Z, hp = random_instance(REG, 6, 3, 2, rng)
        work, Z_old = Workspace(), Z[:4]
        added_loss_and_gradients(X, Y, Z_old, B[4:], Z[4:], hp, REG,
                                 work=work)
        for B_new, Z_new in ((B[3:], Z[3:]), (B[4:, :-1], Z[4:]),
                             (B[4:], Z[4:, :1])):
            with pytest.raises(ShapeError):
                added_loss_and_gradients(X, Y, Z_old, B_new, Z_new, hp, REG,
                                         work=work)


class TestRowContributions:
    @pytest.mark.parametrize("task", [REG, TaskKind.classification(3)])
    def test_appended_rows_match_the_whole_problem(self, task, rng):
        X, Y, B, Z, hp = random_instance(task, 9, 3, 2, rng)
        whole = row_contributions(X, Y, B, Z, hp, task)
        appended = row_contributions(X, Y, B[6:], Z[6:], hp, task,
                                     Z_old=Z[:6])
        np.testing.assert_allclose(appended, whole[6:], rtol=1e-12)
        assert abs(whole.sum() - total_loss(X, Y, B, Z, hp, task)) \
            < 1e-10 * (1.0 + abs(whole.sum()))


# Each entry point as a call on (X, Y, B, Z, Z_old, hp): n = 5 items, of
# which the appended-row entry points take the last k = 3 as (B, Z) after
# n_old = 2 frozen rows Z_old; the others take all five as (B, Z).
ENTRY_POINTS = {
    "local_loss_matrix": lambda X, Y, B, Z, Z_old, hp:
        local_loss_matrix(B, X, Y, REG),
    "uniform_loss_and_grad": lambda X, Y, B, Z, Z_old, hp:
        uniform_loss_and_grad(B[0], X, Y, REG, 1e-4),
    "total_loss": lambda X, Y, B, Z, Z_old, hp:
        total_loss(X, Y, B, Z, hp, REG),
    "loss_and_gradients": lambda X, Y, B, Z, Z_old, hp:
        loss_and_gradients(X, Y, B, Z, hp, REG),
    "row_contributions": lambda X, Y, B, Z, Z_old, hp:
        row_contributions(X, Y, B, Z, hp, REG),
    "escape": lambda X, Y, B, Z, Z_old, hp: escape(X, Y, B, Z, REG),
    "added_loss_and_gradients": lambda X, Y, B, Z, Z_old, hp:
        added_loss_and_gradients(X, Y, Z_old, B, Z, hp, REG),
    "row_contributions_appended": lambda X, Y, B, Z, Z_old, hp:
        row_contributions(X, Y, B, Z, hp, REG, Z_old=Z_old),
}
APPENDED = ("added_loss_and_gradients", "row_contributions_appended")
MISMATCHES = {
    "X_not_a_matrix": lambda p: {**p, "X": p["X"][:, 0]},
    "B_width": lambda p: {**p, "B": p["B"][:, :-1]},
    "Y_shape": lambda p: {**p, "Y": p["Y"][:-1]},
    "Z_rows": lambda p: {**p, "Z": p["Z"][:-1]},
    "Z_width": lambda p: {**p, "Z": np.hstack([p["Z"], p["Z"][:, :1]])},
    "Z_old_width": lambda p: {**p, "Z_old": p["Z_old"][:, :1]},
    "item_count": lambda p: {**p, "X": p["X"][:-1], "Y": p["Y"][:-1]},
}


def _applies(entry, mismatch):
    if entry in ("local_loss_matrix",
                 "uniform_loss_and_grad"):  # no embedding: any B rows
        return mismatch in ("X_not_a_matrix", "B_width", "Y_shape")
    if entry == "escape":  # no hp: Z may have any width
        return mismatch not in ("Z_width", "Z_old_width")
    return entry in APPENDED or mismatch != "Z_old_width"


class TestShapeChecks:
    @pytest.mark.parametrize("entry, mismatch", [
        (e, m) for e in ENTRY_POINTS for m in MISMATCHES if _applies(e, m)])
    def test_mismatch_raises_shape_error(self, entry, mismatch, rng):
        X, Y, B, Z, hp = random_instance(REG, 5, 3, 2, rng)
        k = 3 if entry in APPENDED else 5
        problem = dict(X=X, Y=Y, B=B[-k:], Z=Z[-k:], Z_old=Z[:5 - k], hp=hp)
        ENTRY_POINTS[entry](**problem)  # the unchanged problem is valid
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](**MISMATCHES[mismatch](problem))
