"""Tests for the white-box model families and their losses."""

import math

import numpy as np
import pytest

from conftest import (hellinger_sq, linear_predict, multinomial_predict,
                      quadratic_loss)
from slisemap.errors import DataError, NumericError, ShapeError
from slisemap.model import TaskKind, logit_transform


class TestTaskKind:
    def test_constructors(self):
        assert TaskKind.regression().coef_len(5) == 5
        assert TaskKind.classification(4).coef_len(5) == 15
        assert TaskKind.binary_logit().coef_len(3) == 3
        assert TaskKind.classification(4).response_dim() == 4
        assert TaskKind.regression().response_dim() == 1

    def test_classification_needs_two_classes(self):
        with pytest.raises(DataError):
            TaskKind.classification(1)

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    def test_class_count_must_be_an_integer(self, count):
        """``classification:2.5`` would not load, so it is not built."""
        with pytest.raises(DataError, match="n_classes"):
            TaskKind.classification(count)

    def test_numpy_class_count_is_stored_as_int(self):
        task = TaskKind.classification(np.int32(3))
        assert type(task.n_classes) is int
        assert TaskKind.from_string(task.to_string()) == task

    def test_task_string_must_be_a_string(self):
        with pytest.raises(DataError, match="'task'"):
            TaskKind.from_string(3)

    def test_string_round_trip(self):
        for t in (TaskKind.regression(), TaskKind.classification(3),
                  TaskKind.binary_logit()):
            assert TaskKind.from_string(t.to_string()) == t


class TestLinearPredict:
    def test_direct_dot_product(self):
        assert linear_predict([1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_zero_coefficients(self, rng):
        x = rng.standard_normal(7)
        assert linear_predict(x, np.zeros(7)) == 0.0

    def test_matches_summation_loop(self, rng):
        for _ in range(20):
            x = rng.standard_normal(10)
            b = rng.standard_normal(10)
            loop = 0.0
            for xi, bi in zip(x, b):
                loop += xi * bi
            assert abs(linear_predict(x, b) - loop) < 1e-12

    def test_dimension_mismatch_names_lengths(self):
        with pytest.raises(ShapeError) as err:
            linear_predict(np.ones(3), np.ones(4))
        assert "3" in str(err.value) and "4" in str(err.value)


class TestQuadraticLoss:
    def test_identity_case(self):
        assert quadratic_loss(3.0, 3.0) == 0.0

    def test_direct_formula(self):
        assert quadratic_loss(2.0, -1.0) == 9.0

    def test_matches_multiplication_oracle(self, rng):
        for _ in range(50):
            a, b = rng.standard_normal(2)
            assert quadratic_loss(a, b) == (a - b) * (a - b)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            quadratic_loss(float("nan"), 0.0)
        with pytest.raises(NumericError):
            quadratic_loss(0.0, float("inf"))

    def test_nonnegative_zero_iff_equal(self, rng):
        a, b = rng.standard_normal(2)
        assert quadratic_loss(a, b) >= 0.0
        assert (quadratic_loss(a, b) == 0.0) == (a == b)


class TestMultinomialPredict:
    def test_zero_coefficients_give_uniform(self):
        for p in (2, 3, 5):
            out = multinomial_predict(np.ones(4), np.zeros((p - 1) * 4), p)
            np.testing.assert_allclose(out, np.full(p, 1.0 / p), atol=1e-15)

    def test_two_classes_reduce_to_logistic(self, rng):
        for _ in range(20):
            x = rng.standard_normal(3)
            b = rng.standard_normal(3)
            out = multinomial_predict(x, b, 2)
            sigma = 1.0 / (1.0 + math.exp(-float(x @ b)))
            assert abs(out[0] - sigma) < 1e-12
            assert abs(out[1] - (1.0 - sigma)) < 1e-12

    def test_matches_extended_precision_oracle(self, rng):
        import mpmath

        mpmath.mp.dps = 50
        for _ in range(20):
            x = rng.standard_normal(2)
            b = rng.standard_normal(4)
            out = multinomial_predict(x, b, 3)
            logits = [mpmath.fsum(mpmath.mpf(b[c * 2 + k]) * mpmath.mpf(x[k])
                                  for k in range(2)) for c in range(2)]
            logits.append(mpmath.mpf(0))
            exps = [mpmath.exp(v) for v in logits]
            den = mpmath.fsum(exps)
            expected = [float(e / den) for e in exps]
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_simplex_invariant(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            x = rng.standard_normal(m) * 10
            b = rng.standard_normal((p - 1) * m) * 10
            out = multinomial_predict(x, b, p)
            assert abs(out.sum() - 1.0) < 1e-12
            assert (out >= 0).all() and (out <= 1).all()

    def test_overflow_guard(self):
        out = multinomial_predict(np.array([1e3]), np.array([1e3]), 2)
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            multinomial_predict(np.ones(3), np.ones(5), 3)


class TestHellingerSq:
    def test_identical_distributions(self, rng):
        for _ in range(10):
            q = rng.random(4) + 0.01
            q /= q.sum()
            assert hellinger_sq(q, q) < 1e-12

    def test_disjoint_support(self):
        assert hellinger_sq([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_formula(self):
        v = hellinger_sq([0.5, 0.5], [1.0, 0.0])
        assert abs(v - (1.0 - math.sqrt(0.5))) < 1e-15

    def test_symmetric_exactly(self, rng):
        for _ in range(50):
            a = rng.random(5) + 1e-3
            a /= a.sum()
            b = rng.random(5) + 1e-3
            b /= b.sum()
            assert hellinger_sq(a, b) == hellinger_sq(b, a)
            assert 0.0 <= hellinger_sq(a, b) <= 1.0

    def test_rejects_negative_components(self):
        with pytest.raises(DataError):
            hellinger_sq([-0.1, 1.1], [0.5, 0.5])

    def test_rejects_non_simplex(self):
        with pytest.raises(DataError):
            hellinger_sq([0.6, 0.6], [0.5, 0.5])

    def test_tolerates_exact_zeros(self):
        assert hellinger_sq([0.0, 1.0], [0.0, 1.0]) == 0.0


class TestLogitTransform:
    def test_symmetry_point(self):
        assert logit_transform(0.5) == 0.0

    def test_direct_formula(self):
        assert abs(logit_transform(0.75) - math.log(3.0)) < 1e-15

    def test_round_trip_on_grid(self):
        probs = np.linspace(0.01, 0.99, 100)
        back = 1.0 / (1.0 + np.exp(-logit_transform(probs)))
        np.testing.assert_allclose(back, probs, atol=1e-12)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DataError):
            logit_transform(-0.1)
        with pytest.raises(DataError):
            logit_transform(1.5)

    def test_clamps_exact_zero_and_one(self):
        lo = logit_transform(0.0)
        hi = logit_transform(1.0)
        assert np.isfinite(lo) and np.isfinite(hi)
        assert abs(lo + hi) < 1e-9
        assert lo == logit_transform(1e-9)  # below the clamp floor


class TestCrossFamilyInvariants:
    def test_binary_multinomial_matches_logistic(self, rng):
        """First component of the two-class model equals the logistic
        function of its single logit."""
        for _ in range(30):
            x = rng.standard_normal(4)
            b = rng.standard_normal(4)
            out = multinomial_predict(x, b, 2)
            assert abs(out[0] - 1.0 / (1.0 + np.exp(-x @ b))) < 1e-12
