"""Tests for the synthetic generator, normalization, CSV handling and
subsampling."""

import math

import numpy as np
import pytest

from slisemap.data import (Dataset, Normalization, RsynthSpec,
                           apply_normalization, generate_rsynth, load_csv,
                           normalize, subsample, training_response,
                           write_csv)
from slisemap.errors import DataError, ShapeError
from slisemap.model import TaskKind


class TestGenerateRsynth:
    def test_noiseless_single_cluster_is_exactly_linear(self):
        ds, beta = generate_rsynth(RsynthSpec(n=50, m=4, k_clusters=1,
                                              noise_std=0.0, seed=2))
        recovered, *_ = np.linalg.lstsq(ds.X_raw, ds.Y[:, 0], rcond=None)
        np.testing.assert_allclose(recovered, beta[0], atol=1e-6)

    def test_fixed_seed_bit_identical(self):
        a, beta_a = generate_rsynth(RsynthSpec(n=30, m=3, seed=9))
        b, beta_b = generate_rsynth(RsynthSpec(n=30, m=3, seed=9))
        assert a.X_raw.tobytes() == b.X_raw.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
        assert (a.labels == b.labels).all()
        assert beta_a.tobytes() == beta_b.tobytes()

    def test_per_cluster_regression_recovers_coefficients(self):
        """Cluster-wise least squares lands within three standard errors
        of every generating coefficient."""
        spec = RsynthSpec(n=5000, m=4, seed=13)
        ds, beta = generate_rsynth(spec)
        for j in range(spec.k_clusters):
            mask = ds.labels == j
            Xj = ds.X_raw[mask]
            yj = ds.Y[mask, 0]
            bj, res, *_ = np.linalg.lstsq(Xj, yj, rcond=None)
            dof = mask.sum() - spec.m
            sigma2 = float(res[0]) / dof
            cov = sigma2 * np.linalg.inv(Xj.T @ Xj)
            se = np.sqrt(np.diag(cov))
            assert (np.abs(bj - beta[j]) <= 3.0 * se).all()

    def test_cluster_sizes_in_binomial_interval(self):
        n, k = 2000, 3
        ds, _ = generate_rsynth(RsynthSpec(n=n, m=3, k_clusters=k, seed=4))
        counts = np.bincount(ds.labels, minlength=k)
        mean = n / k
        sd = np.sqrt(n * (1 / k) * (1 - 1 / k))
        lo, hi = mean - 2.576 * sd, mean + 2.576 * sd  # 99% normal interval
        assert ((counts >= lo) & (counts <= hi)).all()

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError):
            RsynthSpec(n=2, m=3, k_clusters=5)

    @pytest.mark.parametrize("seed", [-1, True, 2.5, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(DataError, match="seed"):
            RsynthSpec(n=5, m=2, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("cluster_std", math.nan), ("noise_std", math.inf), ("n", 10.0),
        ("m", True), ("k_clusters", 2.0)])
    def test_invalid_number_is_refused_at_construction(self, field, value):
        """A spread must be a finite number >= 0 and a size an integer, not
        a boolean, or the generator would emit non-finite data or fail."""
        with pytest.raises(DataError, match=field):
            RsynthSpec(**{"n": 10, "m": 2, field: value})


class TestNormalize:
    def test_standardized_input_unchanged(self, rng):
        raw = rng.standard_normal((40, 3)) * 5 + 2
        X1, _ = normalize(raw)
        X2, norm2 = normalize(X1[:, :-1])
        np.testing.assert_allclose(X2, X1, atol=1e-12)
        np.testing.assert_allclose(norm2.mean, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(norm2.std, np.ones(3), atol=1e-12)

    def test_two_value_column_hand_computed(self):
        # population convention: mean 1, std 1, values map to (-1, 1)
        X, norm = normalize(np.array([[0.0], [2.0]]))
        np.testing.assert_array_equal(X, [[-1.0, 1.0], [1.0, 1.0]])
        assert norm.mean[0] == 1.0 and norm.std[0] == 1.0

    def test_constant_column_zeroed_with_warning(self):
        with pytest.warns(UserWarning, match="constant"):
            X, norm = normalize(np.array([[3.0, 1.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(X[:, 0], [0.0, 0.0])
        assert norm.std[0] == 1.0

    def test_columns_are_standardized(self, rng):
        X, _ = normalize(rng.standard_normal((100, 4)) * 7 - 3)
        assert np.abs(X[:, :-1].mean(axis=0)).max() < 1e-9
        assert np.abs(X[:, :-1].std(axis=0) - 1).max() < 1e-9
        np.testing.assert_array_equal(X[:, -1], np.ones(100))


class TestApplyNormalization:
    def test_column_means_map_to_zero(self, rng):
        raw = rng.standard_normal((20, 3)) + 4
        _, norm = normalize(raw)
        out = apply_normalization(norm.mean, norm)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 1.0])

    def test_training_rows_reproduce_matrix(self, rng):
        raw = rng.standard_normal((25, 4)) * 3
        X, norm = normalize(raw)
        np.testing.assert_allclose(apply_normalization(raw, norm), X,
                                   atol=1e-12)

    def test_matches_manual_arithmetic(self, rng):
        raw = rng.standard_normal((10, 2))
        _, norm = normalize(raw)
        v = rng.standard_normal(2)
        out = apply_normalization(v, norm)
        for j in range(2):
            assert out[j] == (v[j] - norm.mean[j]) / norm.std[j]
        assert out[2] == 1.0

    def test_length_mismatch(self, rng):
        _, norm = normalize(rng.standard_normal((5, 3)))
        with pytest.raises(ShapeError):
            apply_normalization(np.ones(4), norm)


class TestLoadCsv:
    def test_exact_recovery(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n-7,0.5,9\n")
        ds = load_csv(p, "y", "regression")
        np.testing.assert_array_equal(ds.X_raw, [[1, 2], [4, 5], [-7, 0.5]])
        np.testing.assert_array_equal(ds.Y, [[3], [6], [9]])
        assert ds.column_names == ["a", "b"]
        assert ds.target_names == ["y"]

    def test_missing_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x1,x2,x3,y\n1,2,3,4\n5,6,,8\n")
        with pytest.raises(DataError) as err:
            load_csv(p, "y", "regression")
        assert "row 2" in str(err.value) and 'column "x3"' in str(err.value)

    def test_short_row_names_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x1,x2,x3,y\n1,2,3,4\n5,6\n")
        with pytest.raises(DataError) as err:
            load_csv(p, "y", "regression")
        assert "row 2" in str(err.value) and 'column "x3"' in str(err.value)

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="missing column"):
            load_csv(p, "y", "regression")

    def test_round_trip_export_load(self, tmp_path, rng):
        ds, _ = generate_rsynth(RsynthSpec(n=20, m=3, seed=8))
        p = tmp_path / "out.csv"
        write_csv(p, ds.column_names + ds.target_names,
                  np.hstack([ds.X_raw, ds.Y]))
        back = load_csv(p, "y", "regression")
        assert back.X_raw.tobytes() == ds.X_raw.tobytes()
        assert back.Y.tobytes() == ds.Y.tobytes()
        assert back.column_names == ds.column_names

    def test_classification_simplex_validated(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,p1,p2\n1,0.7,0.3\n2,0.9,0.2\n")
        with pytest.raises(DataError, match="sum to 1"):
            load_csv(p, ["p1", "p2"], "classification")
        with pytest.raises(DataError, match="row 2 sums to 1.1$"):
            load_csv(p, ["p1", "p2"], "classification")

    def test_classification_accepts_valid_simplex(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,p1,p2\n1,0.7,0.3\n2,0.8,0.2\n")
        ds = load_csv(p, ["p1", "p2"], "classification")
        assert ds.Y.shape == (2, 2)

    def test_one_hot_expansion(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,cls\n1,0\n2,1\n3,2\n4,1\n")
        ds = load_csv(p, "cls", "classification")
        assert ds.Y.shape == (4, 3)
        np.testing.assert_array_equal(ds.Y.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(ds.Y[1], [0, 1, 0])

    @pytest.mark.parametrize("text, target, task, label_column, named", [
        ("a,cls\n1,0\n2,1\n3,1.5\n", "cls", "classification", None,
         '1.5 at row 3, column "cls"'),
        ("a,y,lab\n1,2,0\n\n3,4,0.5\n", "y", "regression", "lab",
         '0.5 at row 3, column "lab"'),
        ("a,cls\n1,0\n2,1e300\n", "cls", "classification", None,
         '1e+300 at row 2, column "cls"'),
    ], ids=["class-id", "label-after-blank-row", "beyond-2**53"])
    def test_non_integer_id_names_its_cell(self, tmp_path, text, target,
                                           task, label_column, named):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="is not an integer id") as err:
            load_csv(p, target, task, label_column=label_column)
        assert named in str(err.value)

    def test_duplicate_header_names_the_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,a,y\n1,2,3,4\n")
        with pytest.raises(DataError, match='column "a" appears twice'):
            load_csv(p, "y", "regression")

    @pytest.mark.parametrize("text, task, message", [
        ("a,y\n", "regression", "no data rows"),
        ("a,y\n1,2\n", "ranking", "unknown task kind 'ranking'"),
    ], ids=["no-rows", "unknown-task"])
    def test_no_rows_or_unknown_task_is_data_error(self, tmp_path, text,
                                                   task, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(p, "y", task)

    def test_non_utf8_byte_is_data_error_naming_the_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,y\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match="not UTF-8") as err:
            load_csv(p, "y", "regression")
        assert str(p) in str(err.value)

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes("a,y\n1,2\n3,4\n".encode("utf-8-sig"))
        ds = load_csv(p, "y", "regression")
        assert ds.column_names == ["a"]
        np.testing.assert_array_equal(ds.X_raw, [[1], [3]])

    def test_label_column_split_off(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y,lab\n1,2,3,0\n4,5,6,1\n")
        ds = load_csv(p, "y", "regression", label_column="lab")
        assert ds.column_names == ["a", "b"]
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_binary_logit_range_checked(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,0.5\n2,1.5\n")
        with pytest.raises(DataError, match="probabilities"):
            load_csv(p, "y", "binary-logit")


class TestTrainingResponse:
    def test_regression_passthrough(self, rng):
        Y = rng.standard_normal((5, 1))
        assert training_response(Y, TaskKind.regression()).tobytes() \
            == Y.tobytes()

    def test_binary_logit_transforms(self):
        Y = np.array([[0.5], [0.75]])
        out = training_response(Y, TaskKind.binary_logit())
        np.testing.assert_allclose(out, [[0.0], [np.log(3.0)]], atol=1e-12)


class TestSubsample:
    @pytest.mark.parametrize("n0", [2.5, 10.0, True, 0, "10"])
    def test_size_must_be_an_integer_of_at_least_one(self, n0):
        ds, _ = generate_rsynth(RsynthSpec(n=15, m=2, seed=1))
        with pytest.raises(DataError, match="subsample size"):
            subsample(ds, n0, seed=3)

    def test_noop_when_large_enough(self):
        ds, _ = generate_rsynth(RsynthSpec(n=15, m=2, seed=1))
        out = subsample(ds, 15, seed=3)
        assert out is ds
        out = subsample(ds, 100, seed=3)
        assert out is ds

    def test_deterministic_under_seed(self):
        ds, _ = generate_rsynth(RsynthSpec(n=50, m=2, seed=1))
        a = subsample(ds, 10, seed=4)
        b = subsample(ds, 10, seed=4)
        assert a.X_raw.tobytes() == b.X_raw.tobytes()
        assert (a.labels == b.labels).all()

    def test_rows_kept_in_order_and_renormalized(self):
        ds, _ = generate_rsynth(RsynthSpec(n=50, m=3, seed=1))
        out = subsample(ds, 20, seed=5)
        assert out.n == 20
        # retained raw rows appear in the original order
        pos = [np.flatnonzero((ds.X_raw == row).all(axis=1))[0]
               for row in out.X_raw]
        assert pos == sorted(pos)
        assert np.abs(out.X[:, :-1].mean(axis=0)).max() < 1e-9

    def test_selection_frequencies_uniform(self):
        # every row's selection frequency lands in 0.1 +- 0.03; the trial
        # count makes that a 4.5-sigma interval per row
        ds, _ = generate_rsynth(RsynthSpec(n=1000, m=1, seed=1))
        hits = np.zeros(1000)
        trials = 2000
        rng = np.random.default_rng(99)
        for _ in range(trials):
            out = subsample(ds, 100, seed=int(rng.integers(1 << 31)))
            hits[np.isin(ds.X_raw[:, 0], out.X_raw[:, 0])] += 1
        freq = hits / trials
        assert np.abs(freq - 0.1).max() <= 0.03


class TestWriteCsv:
    def test_full_precision_round_trip(self, tmp_path, rng):
        vals = rng.standard_normal((5, 3)) * np.pi
        p = tmp_path / "v.csv"
        write_csv(p, ["a", "b", "c"], vals)
        back = load_csv(p, "c", "regression")
        assert np.hstack([back.X_raw, back.Y]).tobytes() == vals.tobytes()

    def test_floats_as_repr_other_values_as_printed(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, ["name", "k", "v"],
                  [["a", 5, 0.1], ("b", np.int64(7), np.float64(1 / 3)),
                   ["c", "", np.float32(0.5)]])
        assert p.read_text() == ("name,k,v\na,5,0.1\n"
                                 "b,7,0.3333333333333333\nc,,0.5\n")
