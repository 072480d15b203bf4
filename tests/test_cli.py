"""End-to-end tests of the command-line pipeline in temp directories."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import slisemap
from slisemap import data, solver
from slisemap.cli import main
from slisemap.solver import Solution

N_SMALL = 48  # keeps the end-to-end fits fast


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate + fit shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("ws")
    gen = root / "gen"
    sol = root / "sol.json"
    assert main(["generate", "--n", str(N_SMALL), "--m", "4", "--seed", "1",
                 "--out", str(gen)]) == 0
    assert main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
                 "--lambda-z", "0.1", "--seed", "1", "--out", str(sol)]) == 0
    return root, gen, sol


class TestGenerate:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--n", "20", "--m", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        for name in ("data.csv", "labels.csv", "true_coefs.csv",
                     "manifest.json"):
            assert (out / name).exists()
        with open(out / "data.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "x3", "y"]
        assert len(rows) == 21

    def test_defaults_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "g"
        main(["generate", "--n", "10", "--m", "2", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["parameters"]["k_clusters"] == 3
        assert doc["parameters"]["cluster_std"] == 0.25
        assert doc["parameters"]["noise_std"] == 0.1
        assert doc["command"] == "generate"
        assert "duration_seconds" in doc

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--n", "15", "--m", "2", "--seed", "3",
              "--out", str(a)])
        main(["generate", "--n", "15", "--m", "2", "--seed", "3",
              "--out", str(b)])
        for name in ("data.csv", "labels.csv", "true_coefs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestFit:
    def test_writes_solution_and_manifest(self, workspace, capsys):
        root, gen, sol_path = workspace
        sol = Solution.load(sol_path)
        assert sol.n == N_SMALL
        assert (root / "sol.json.manifest.json").exists()

    def test_prints_loss_and_iterations(self, workspace, tmp_path, capsys):
        _, gen, _ = workspace
        out = tmp_path / "s.json"
        main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
              "--lambda-z", "0.1", "--seed", "1", "--out", str(out)])
        text = capsys.readouterr().out
        assert "final loss" in text and "outer iterations" in text

    def test_prints_escape_rounds_and_stop_reason(self, workspace, tmp_path,
                                                  capsys):
        _, gen, _ = workspace
        out = tmp_path / "s.json"
        main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
              "--lambda-z", "0.1", "--seed", "1", "--max-outer-iters", "1",
              "--out", str(out)])
        text = capsys.readouterr().out
        assert "after 1 outer iterations, stopped on max-outer-iters" in text
        assert Solution.load(out).stop_reason == "max-outer-iters"

    def test_rejects_nonpositive_lambda_z(self, workspace, tmp_path):
        _, gen, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
                  "--lambda-z", "0", "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    def test_rejects_nan_lambda_lasso(self, workspace, tmp_path):
        _, gen, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
                  "--lambda-z", "0.1", "--lambda-lasso", "nan",
                  "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    def test_collapse_warning_on_huge_lambda_z(self, workspace, tmp_path,
                                               capsys):
        _, gen, _ = workspace
        main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
              "--lambda-z", "1e6", "--seed", "1",
              "--out", str(tmp_path / "s.json")])
        assert "collapsed" in capsys.readouterr().err

    def test_missing_column_is_data_error(self, workspace, tmp_path, capsys):
        _, gen, _ = workspace
        rc = main(["fit", "--data", str(gen / "data.csv"), "--target",
                   "nope", "--lambda-z", "0.1",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("slisemap: error:")
        assert len(err.strip().splitlines()) == 1

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        lines = ["a,y"] + [f"{v},1e300" for v in range(6)]
        p.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--data", str(p), "--target", "y", "--lambda-z",
                   "0.1", "--out", str(tmp_path / "s.json")])
        assert rc == 4
        assert "error: numeric" in capsys.readouterr().err

    def test_zero_outer_iters_fits_without_escape(self, workspace,
                                                  tmp_path):
        _, gen, _ = workspace
        out = tmp_path / "s.json"
        rc = main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
                   "--lambda-z", "0.1", "--seed", "1",
                   "--max-outer-iters", "0", "--out", str(out)])
        assert rc == 0
        assert Solution.load(out).outer_iters_used == 1

    def test_subsample_flag(self, workspace, tmp_path):
        _, gen, _ = workspace
        out = tmp_path / "s.json"
        main(["fit", "--data", str(gen / "data.csv"), "--target", "y",
              "--lambda-z", "0.1", "--seed", "1", "--subsample", "20",
              "--out", str(out)])
        assert Solution.load(out).n == 20


class TestAdd:
    def test_readding_training_file(self, workspace, tmp_path, capsys):
        _, gen, sol_path = workspace
        out = tmp_path / "added.csv"
        rc = main(["add", "--solution", str(sol_path), "--data",
                   str(gen / "data.csv"), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["index", "z1", "z2"]
        assert rows[0][-1] == "loss"
        assert "intercept" in rows[0]
        assert len(rows) == 1 + N_SMALL

    def test_empty_file_is_noop_with_warning(self, workspace, tmp_path,
                                             capsys):
        _, _, sol_path = workspace
        p = tmp_path / "empty.csv"
        p.write_text("x1,x2,x3,x4,y\n")
        rc = main(["add", "--solution", str(sol_path), "--data", str(p),
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 0
        assert "nothing to add" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_schema_mismatch_rejected(self, workspace, tmp_path, capsys):
        _, _, sol_path = workspace
        p = tmp_path / "wrong.csv"
        p.write_text("a,b,y\n1,2,3\n")
        rc = main(["add", "--solution", str(sol_path), "--data", str(p),
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 3
        assert ("covariate columns ['a', 'b'] do not match the solution's "
                "['x1', 'x2', 'x3', 'x4']") in capsys.readouterr().err

    def test_one_row_add_is_not_standardized_on_its_own(self, workspace,
                                                        tmp_path):
        _, gen, sol_path = workspace
        one = tmp_path / "one.csv"
        lines = (gen / "data.csv").read_text().splitlines()
        one.write_text("\n".join(lines[:2]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["add", "--solution", str(sol_path), "--data",
                       str(one), "--out", str(tmp_path / "a.csv")])
        assert rc == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, UserWarning)] == []

    def test_one_by_one_flag(self, workspace, tmp_path):
        _, gen, sol_path = workspace
        small = tmp_path / "few.csv"
        with open(gen / "data.csv") as fh:
            lines = fh.read().splitlines()
        small.write_text("\n".join(lines[:4]) + "\n")
        rc = main(["add", "--solution", str(sol_path), "--data", str(small),
                   "--one-by-one", "--out", str(tmp_path / "a.csv")])
        assert rc == 0

    @pytest.mark.parametrize("one_by_one", [False, True],
                             ids=["batch", "one-by-one"])
    @pytest.mark.parametrize("key", ["lambda_z", "lambda_lasso"])
    def test_huge_penalty_is_numeric_error_without_warnings(
            self, workspace, tmp_path, capsys, key, one_by_one):
        """A penalty too large for floats ends the add with exit code 4
        and one error line, and no numpy warning."""
        _, gen, sol_path = workspace
        doc = json.loads(sol_path.read_text())
        doc[key] = 1e308
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        few = tmp_path / "few.csv"
        lines = (gen / "data.csv").read_text().splitlines()
        few.write_text("\n".join(lines[:4]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["add", "--solution", str(bad), "--data", str(few),
                       "--out", str(tmp_path / "a.csv")]
                      + ["--one-by-one"] * one_by_one)
        assert rc == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("slisemap: error: numeric")
        assert len(err.strip().splitlines()) == 1


class TestMetrics:
    def test_report_files_and_fanout(self, workspace, tmp_path, capsys):
        _, gen, sol_path = workspace
        out = tmp_path / "report.json"
        rc = main(["metrics", "--solution", str(sol_path), "--k", "5",
                   "--k", "10", "--k", "20", "--labels",
                   str(gen / "labels.csv"), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["fidelity_knn"]) == {"5", "10", "20"}
        assert set(doc["purity_knn"]) == {"5", "10", "20"}
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "k", "value"]
        knn_rows = [r for r in rows if r[0] == "fidelity_knn"]
        assert len(knn_rows) == 3

    def test_nan_quantile_is_usage_error(self, workspace, tmp_path):
        _, _, sol_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--solution", str(sol_path), "--quantile", "nan",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_quantile_above_one_is_usage_error(self, workspace, tmp_path,
                                               capsys):
        _, _, sol_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--solution", str(sol_path), "--quantile", "2",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "quantile" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, named", [
        (lambda doc: "{" + json.dumps(doc)[:200], "sol.json"),
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "Y"}),
         "'Y'"),
        (lambda doc: json.dumps({**doc, "B": doc["B"][:-3]}), "embedding"),
        (lambda doc: json.dumps(
            {**doc, "B": [[float("nan")] + doc["B"][0][1:]] + doc["B"][1:]}),
         "B has non-finite entries"),
        (lambda doc: json.dumps({**doc, "numeric_warning": "no"}),
         "numeric_warning"),
        (lambda doc: json.dumps({**doc, "stop_reason": "tired"}),
         "stop_reason"),
        (lambda doc: json.dumps({**doc, "final_loss": float("nan")}),
         "final_loss"),
        (lambda doc: json.dumps({**doc, "final_loss": float("inf")}),
         "final_loss"),
        (lambda doc: json.dumps(
            {**doc, "loss_history": [float("nan")] + doc["loss_history"]}),
         "loss_history"),
        (lambda doc: json.dumps(
            {**doc, "loss_history": [doc["final_loss"] - 1.0]
             + doc["loss_history"]}),
         "loss_history"),
        (lambda doc: json.dumps({**doc, "loss_history": []}),
         "loss_history"),
        (lambda doc: json.dumps({**doc, "final_loss": doc["final_loss"] * 2}),
         "final_loss"),
        (lambda doc: json.dumps({**doc, "n": 99}), "'n'"),
        (lambda doc: json.dumps({**doc, "m": 7}), "'m'"),
        (lambda doc: json.dumps({**doc, "p": 5}), "'p'"),
        (lambda doc: json.dumps({**doc, "outer_iters_used": 99}),
         "outer_iters_used"),
        (lambda doc: json.dumps({**doc, "numeric_warning": True}),
         "numeric_warning"),
        (lambda doc: json.dumps({**doc, "numeric_warning": 1}),
         "numeric_warning"),
        (lambda doc: json.dumps({**doc, "normalization": {
            **doc["normalization"],
            "std": [0.0] + doc["normalization"]["std"][1:]}}),
         "normalization"),
        (lambda doc: json.dumps({**doc, "normalization": {
            **doc["normalization"],
            "std": [-1.0] + doc["normalization"]["std"][1:]}}),
         "normalization"),
        *[(lambda doc, key=key, value=value: json.dumps({**doc, key: value}),
           repr(key))
          for key, values in (("seed", (2.5, True, 2.0)),
                              ("d", (2.5, True, 2.0)),
                              ("lambda_z", (True, "x")),
                              ("lambda_lasso", (True, "x")))
          for value in values],
    ], ids=["invalid-json", "missing-key", "truncated-B", "nan-in-B",
            "non-boolean-numeric-warning", "unknown-stop-reason",
            "nan-final-loss", "infinite-final-loss", "nan-in-history",
            "increasing-history", "empty-history", "final-loss-off-history",
            "n-off-arrays", "m-off-columns", "p-off-targets",
            "rounds-off-history", "numeric-warning-off-stop-reason",
            "numeric-warning-one", "zero-std", "negative-std",
            "fractional-seed", "boolean-seed", "float-seed",
            "fractional-d", "boolean-d", "float-d",
            "boolean-lambda-z", "text-lambda-z",
            "boolean-lambda-lasso", "text-lambda-lasso"])
    def test_corrupt_solution_is_data_error(self, workspace, tmp_path,
                                            capsys, corrupt, named):
        _, _, sol_path = workspace
        bad = tmp_path / "sol.json"
        bad.write_text(corrupt(json.loads(sol_path.read_text())))
        rc = main(["metrics", "--solution", str(bad),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and named in err

    def test_labels_length_mismatch(self, workspace, tmp_path):
        _, _, sol_path = workspace
        bad = tmp_path / "lab.csv"
        bad.write_text("label\n0\n1\n")
        rc = main(["metrics", "--solution", str(sol_path), "--labels",
                   str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 3

    @pytest.mark.parametrize("command", ["metrics", "plot"])
    def test_non_integer_label_is_data_error(self, workspace, tmp_path,
                                             capsys, command):
        """A label of 1.5 is refused with its row, not truncated to 1."""
        _, _, sol_path = workspace
        bad = tmp_path / "lab.csv"
        bad.write_text("label\n" + "0\n" * 4 + "1.5\n"
                       + "1\n" * (N_SMALL - 5))
        argv = ["--color-by", "label"] if command == "plot" else []
        rc = main([command, "--solution", str(sol_path), "--labels",
                   str(bad), *argv, "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert '1.5 at row 5, column "label"' in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["lab.csv"]


class TestSweep:
    def test_grid_produces_long_csv(self, workspace, tmp_path):
        _, gen, _ = workspace
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(gen / "data.csv"), "--target", "y",
                   "--lambda-z", "0.01", "--lambda-z", "0.1",
                   "--k", "5", "--k", "10", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["lambda_z", "k", "fidelity_knn",
                               "coverage_knn"]
        assert len(rows) == 1 + 2 * 2
        seeds = {r[-1] for r in rows[1:]}
        assert seeds == {"2", "3"}  # seed + grid index

    def test_quantile_above_one_is_usage_error(self, workspace, tmp_path,
                                               capsys):
        _, gen, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", str(gen / "data.csv"), "--target", "y",
                  "--lambda-z", "0.1", "--k", "5", "--quantile", "2",
                  "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        assert "quantile" in capsys.readouterr().err

    def test_quantile_checked_before_any_fit(self, workspace, tmp_path,
                                             monkeypatch):
        _, gen, _ = workspace

        def no_fit(*args, **kwargs):
            raise AssertionError("sweep fitted before checking --quantile")

        monkeypatch.setattr(solver, "fit", no_fit)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", str(gen / "data.csv"), "--target", "y",
                  "--lambda-z", "0.1", "--quantile", "2",
                  "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2

    def test_k_checked_before_any_fit(self, workspace, tmp_path, monkeypatch,
                                      capsys):
        _, gen, _ = workspace

        def no_fit(*args, **kwargs):
            raise AssertionError("sweep fitted before checking --k")

        monkeypatch.setattr(solver, "fit", no_fit)
        # 20 rows remain after --subsample, so k = 20 is out of range
        rc = main(["sweep", "--data", str(gen / "data.csv"), "--target", "y",
                   "--lambda-z", "0.1", "--subsample", "20", "--k", "5",
                   "--k", "20", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 3
        assert "k=20, n=20" in capsys.readouterr().err


class TestPlot:
    def test_svg_structure(self, workspace, tmp_path):
        _, gen, sol_path = workspace
        out = tmp_path / "p.svg"
        rc = main(["plot", "--solution", str(sol_path), "--out", str(out)])
        assert rc == 0
        tree = ET.parse(out)
        circles = tree.getroot().findall(
            ".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == N_SMALL

    def test_loss_coloring_has_min_max_legend(self, workspace, tmp_path):
        _, _, sol_path = workspace
        out = tmp_path / "p.svg"
        main(["plot", "--solution", str(sol_path), "--color-by", "loss",
              "--out", str(out)])
        text = out.read_text()
        assert "min loss" in text and "max loss" in text

    def test_label_coloring(self, workspace, tmp_path):
        _, gen, sol_path = workspace
        out = tmp_path / "p.svg"
        rc = main(["plot", "--solution", str(sol_path), "--color-by",
                   "label", "--labels", str(gen / "labels.csv"),
                   "--out", str(out)])
        assert rc == 0
        assert "label" in out.read_text()

    def test_coefficient_coloring_and_unknown_name(self, workspace, tmp_path,
                                                   capsys):
        _, _, sol_path = workspace
        out = tmp_path / "p.svg"
        assert main(["plot", "--solution", str(sol_path), "--color-by",
                     "coefficient:x2", "--out", str(out)]) == 0
        rc = main(["plot", "--solution", str(sol_path), "--color-by",
                   "coefficient:bogus", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "x1" in err and "intercept" in err  # lists valid names

    def test_deterministic_output(self, workspace, tmp_path):
        _, _, sol_path = workspace
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", "--solution", str(sol_path), "--out", str(a)])
        main(["plot", "--solution", str(sol_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_model_panels(self, workspace, tmp_path):
        _, _, sol_path = workspace
        out = tmp_path / "p.svg"
        panels = tmp_path / "models.svg"
        rc = main(["plot", "--solution", str(sol_path), "--out", str(out),
                   "--models-out", str(panels), "--model-clusters", "3"])
        assert rc == 0
        tree = ET.parse(panels)
        texts = [t.text for t in tree.getroot().iter()
                 if t.tag.endswith("text")]
        assert any("cluster 0" in (t or "") for t in texts)

    def test_names_with_markup_characters_give_well_formed_svg(
            self, tmp_path):
        """Column names are escaped wherever they enter the SVG text: the
        scatter's title and legend and the panels' ``<title>``s."""
        rng = np.random.default_rng(3)
        data_csv = tmp_path / "d.csv"
        rows = ["a<b,x&y,y"] + [",".join(repr(float(v)) for v in row)
                                for row in rng.standard_normal((20, 3))]
        data_csv.write_text("\n".join(rows) + "\n")
        sol, out, panels = (tmp_path / "s.json", tmp_path / "p.svg",
                            tmp_path / "m.svg")
        assert main(["fit", "--data", str(data_csv), "--target", "y",
                     "--lambda-z", "0.1", "--max-outer-iters", "1",
                     "--out", str(sol)]) == 0
        assert main(["plot", "--solution", str(sol), "--color-by",
                     "coefficient:a<b", "--out", str(out),
                     "--models-out", str(panels)]) == 0
        texts = ["".join(ET.parse(path).getroot().itertext())
                 for path in (out, panels)]
        assert "embedding by coefficient a<b" in texts[0]
        assert "x&y" in texts[1]

    def test_negative_seed_is_data_error(self, workspace, tmp_path, capsys):
        """The seed of a solution file seeds the panels' clustering."""
        _, _, sol_path = workspace
        bad = tmp_path / "sol.json"
        bad.write_text(json.dumps({**json.loads(sol_path.read_text()),
                                   "seed": -1}))
        rc = main(["plot", "--solution", str(bad), "--out",
                   str(tmp_path / "p.svg"), "--models-out",
                   str(tmp_path / "models.svg")])
        assert rc == 3
        assert "seed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["sol.json"]


class TestExport:
    def test_z_schema(self, workspace, tmp_path):
        _, _, sol_path = workspace
        out = tmp_path / "z.csv"
        main(["export", "--solution", str(sol_path), "--what", "Z",
              "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "z1", "z2"]

    def test_b_columns_carry_feature_names(self, workspace, tmp_path):
        _, _, sol_path = workspace
        out = tmp_path / "b.csv"
        main(["export", "--solution", str(sol_path), "--what", "B",
              "--out", str(out)])
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header == ["index", "x1", "x2", "x3", "x4", "intercept"]

    def test_short_column_names_is_data_error(self, workspace, tmp_path,
                                              capsys):
        _, _, sol_path = workspace
        doc = json.loads(sol_path.read_text())
        bad = tmp_path / "sol.json"
        bad.write_text(json.dumps(
            {**doc, "column_names": doc["column_names"][:-1]}))
        out = tmp_path / "e.csv"
        rc = main(["export", "--solution", str(bad), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and "column_names" in err
        assert not out.exists()

    def test_round_trip_full_precision(self, workspace, tmp_path):
        _, _, sol_path = workspace
        sol = Solution.load(sol_path)
        out = tmp_path / "both.csv"
        main(["export", "--solution", str(sol_path), "--what", "both",
              "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        Z = np.array([[float(v) for v in r[1:3]] for r in rows])
        B = np.array([[float(v) for v in r[3:]] for r in rows])
        assert Z.tobytes() == sol.Z.tobytes()
        assert B.tobytes() == sol.B.tobytes()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifest:
    def test_checksums_are_those_of_the_files_on_disk(self, workspace,
                                                      tmp_path):
        root, gen, sol = workspace
        data_csv, labels = str(gen / "data.csv"), str(gen / "labels.csv")
        t = str(tmp_path)
        runs = {
            "generate": (None, gen / "manifest.json", [],
                         [f"{gen}/data.csv", f"{gen}/labels.csv",
                          f"{gen}/true_coefs.csv"]),
            "fit": (None, f"{sol}.manifest.json", [data_csv], [str(sol)]),
            "metrics": (["--solution", str(sol), "--k", "5", "--labels",
                         labels, "--out", f"{t}/r.json"],
                        f"{t}/r.json.manifest.json", [str(sol), labels],
                        [f"{t}/r.json", f"{t}/r.csv"]),
            "add": (["--solution", str(sol), "--data", data_csv,
                     "--out", f"{t}/a.csv"],
                    f"{t}/a.csv.manifest.json", [str(sol), data_csv],
                    [f"{t}/a.csv"]),
            "sweep": (["--data", data_csv, "--target", "y", "--lambda-z",
                       "0.1", "--subsample", "20", "--k", "5",
                       "--max-outer-iters", "0", "--out", f"{t}/s.csv"],
                      f"{t}/s.csv.manifest.json", [data_csv], [f"{t}/s.csv"]),
            "plot": (["--solution", str(sol), "--out", f"{t}/p.svg",
                      "--models-out", f"{t}/m.svg"],
                     f"{t}/p.svg.manifest.json", [str(sol)],
                     [f"{t}/p.svg", f"{t}/m.svg"]),
            "export": (["--solution", str(sol), "--out", f"{t}/e.csv"],
                       f"{t}/e.csv.manifest.json", [str(sol)],
                       [f"{t}/e.csv"]),
        }
        for command, (argv, manifest, inputs, outputs) in runs.items():
            if argv is not None:
                assert main([command] + argv) == 0
            doc = json.loads(Path(manifest).read_text())
            assert doc["command"] == command
            assert doc["inputs"] == {p: sha256(p) for p in inputs}, command
            assert doc["outputs"] == {p: sha256(p) for p in outputs}, command

    def test_plot_lists_labels_whenever_given(self, workspace, tmp_path):
        """The labels file is an input of ``plot`` whatever ``--color-by``
        says, as it is to the overwrite guard."""
        _, gen, sol_path = workspace
        labels, out = str(gen / "labels.csv"), tmp_path / "p.svg"
        assert main(["plot", "--solution", str(sol_path), "--color-by",
                     "loss", "--labels", labels, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "p.svg.manifest.json").read_text())
        assert doc["inputs"] == {str(sol_path): sha256(sol_path),
                                 labels: sha256(labels)}

    def test_header_only_add_writes_no_manifest(self, workspace, tmp_path):
        _, _, sol_path = workspace
        p = tmp_path / "empty.csv"
        p.write_text("x1,x2,x3,x4,y\n")
        assert main(["add", "--solution", str(sol_path), "--data", str(p),
                     "--out", str(tmp_path / "a.csv")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["empty.csv"]

    def test_records_versions_and_thread_variables(self, workspace, tmp_path,
                                                   monkeypatch):
        _, _, sol_path = workspace
        monkeypatch.setenv("SLISEMAP_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "e.csv"
        assert main(["export", "--solution", str(sol_path),
                     "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        # the BLAS name and version as numpy reports them (numpy >= 1.26)
        blas = None
        if np.lib.NumpyVersion(np.__version__) >= "1.26.0":
            report = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = {"name": report["name"], "version": report["version"]}
        assert doc["versions"] == {"slisemap": slisemap.__version__,
                                   "numpy": np.__version__, "blas": blas}
        assert doc["thread_variables"] == {
            "SLISEMAP_THREADS": "1", "OPENBLAS_NUM_THREADS": None,
            "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_sweep_parses_its_data_once(self, workspace, tmp_path,
                                        monkeypatch):
        _, gen, _ = workspace
        calls = []
        load_csv = data.load_csv

        def counting(*args, **kwargs):
            calls.append(args[0])
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(data, "load_csv", counting)
        rc = main(["sweep", "--data", str(gen / "data.csv"), "--target", "y",
                   "--lambda-z", "0.05", "--lambda-z", "0.2",
                   "--subsample", "20", "--max-outer-iters", "0",
                   "--k", "5", "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        assert calls == [str(gen / "data.csv")]


class TestOutputPaths:
    def test_metrics_csv_report_cannot_be_out(self, workspace, tmp_path,
                                              capsys):
        """``--out r.csv`` would have the CSV report overwrite the JSON
        one; it is refused before anything is written."""
        _, _, sol_path = workspace
        rc = main(["metrics", "--solution", str(sol_path),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "CSV report would overwrite the --out output" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, argv", [
        ("export", ["--solution", "{sol}", "--out", "{sol}"]),
        ("add", ["--solution", "{sol}", "--data", "{data}",
                 "--out", "{data}"]),
        ("fit", ["--data", "{data}", "--target", "y", "--lambda-z", "0.1",
                 "--out", "{tmp}/../{tmp_name}/data.csv"]),
        ("plot", ["--solution", "{sol}", "--out", "{tmp}/p.svg",
                  "--models-out", "{sol}"]),
        ("metrics", ["--solution", "{tmp}/sol.csv",
                     "--out", "{tmp}/sol.json"]),
    ], ids=["export-solution", "add-data", "fit-data-other-spelling",
            "plot-models-out", "metrics-csv-report"])
    def test_output_over_an_input_is_data_error(self, workspace, tmp_path,
                                                capsys, command, argv):
        """An output path that resolves to an input path is refused before
        the command runs: the input keeps its bytes and no manifest is
        written."""
        _, gen, sol_path = workspace
        sol, data_csv = tmp_path / "sol.json", tmp_path / "data.csv"
        sol.write_bytes(sol_path.read_bytes())
        data_csv.write_bytes((gen / "data.csv").read_bytes())
        (tmp_path / "sol.csv").write_bytes(sol_path.read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        fields = {"sol": sol, "data": data_csv, "tmp": tmp_path,
                  "tmp_name": tmp_path.name}
        rc = main([command] + [a.format(**fields) for a in argv])
        assert rc == 3
        assert "would overwrite the --" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestNumberFlags:
    @pytest.mark.parametrize("argv, message", [
        (["--lambda-z", "0"], "must be > 0, got 0"),
        (["--lambda-z", "nan"], "must be > 0, got nan"),
        (["--lambda-z", "x"], "invalid _positive_float value: 'x'"),
        (["--lambda-lasso", "-1"], "must be >= 0, got -1"),
        (["--lambda-lasso", "nan"], "must be >= 0, got nan"),
        (["--d", "0"], "must be >= 1, got 0"),
        (["--d", "1.5"], "invalid _positive_int value: '1.5'"),
        (["--max-outer-iters", "-1"], "must be >= 0, got -1"),
        (["--max-outer-iters", "x"], "invalid _nonneg_int value: 'x'"),
        (["--lambda-z", "inf"], "must be finite, got inf"),
        (["--lambda-lasso", "inf"], "must be finite, got inf"),
        (["--rel-tol", "inf"], "must be finite, got inf"),
        (["--rel-tol", "0"], "must be > 0, got 0"),
        (["--quantile", "1.5"], "must be in [0, 1], got 1.5"),
        (["--quantile", "-0.1"], "must be in [0, 1], got -0.1"),
        (["--quantile", "nan"], "must be in [0, 1], got nan"),
        (["--quantile", "inf"], "must be in [0, 1], got inf"),
        (["--quantile", "x"], "invalid _quantile value: 'x'"),
    ])
    def test_out_of_range_is_usage_error(self, argv, message, tmp_path,
                                         capsys):
        """On ``fit``, or on ``sweep`` for ``--quantile``."""
        command = "sweep" if argv[0] == "--quantile" else "fit"
        base = [command, "--data", "d.csv", "--target", "y",
                "--out", str(tmp_path / "s.json")]
        if argv[0] != "--lambda-z":
            base += ["--lambda-z", "0.1"]
        with pytest.raises(SystemExit) as exc:
            main(base + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "fit", "sweep"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        argv = (["--n", "10", "--m", "2"] if command == "generate" else
                ["--data", "d.csv", "--target", "y", "--lambda-z", "0.1"])
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--seed", "-1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestBadCsv:
    @pytest.mark.parametrize("argv, text, named", [
        (["fit", "--task", "classification", "--target", "cls"],
         "a,b,cls\n0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,1.5\n",
         '1.5 at row 3, column "cls" is not an integer id'),
        (["fit", "--target", "y", "--label-column", "lab"],
         "a,y,lab\n0.1,1,0\n0.2,2,1\n0.3,3,0.5\n",
         '0.5 at row 3, column "lab" is not an integer id'),
        (["fit", "--target", "y"], "a,a,y\n0.1,0.2,1\n0.3,0.4,2\n",
         'column "a" appears twice'),
        (["add", "--solution", "{sol}"],
         "x1,x2,x3,x4,x1,y\n1,2,3,4,5,6\n", 'column "x1" appears twice'),
    ], ids=["class-id", "label-column", "fit-duplicate-header",
            "add-duplicate-header"])
    def test_bad_csv_is_data_error_naming_it(self, workspace, tmp_path,
                                             capsys, argv, text, named):
        _, _, sol_path = workspace
        data = tmp_path / "d.csv"
        data.write_text(text)
        argv = [a.format(sol=sol_path) for a in argv]
        if argv[0] == "fit":
            argv += ["--lambda-z", "0.1"]
        rc = main(argv + ["--data", str(data), "--out",
                          str(tmp_path / "out")])
        assert rc == 3
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["d.csv"]

    @pytest.mark.parametrize("command", ["fit", "add"])
    def test_non_utf8_csv_is_data_error_naming_it(self, workspace, tmp_path,
                                                  capsys, command):
        _, gen, sol_path = workspace
        data = tmp_path / "d.csv"
        data.write_bytes((gen / "data.csv").read_bytes() + b"\xff,1\n")
        argv = (["fit", "--target", "y", "--lambda-z", "0.1"]
                if command == "fit" else ["add", "--solution", str(sol_path)])
        rc = main(argv + ["--data", str(data), "--out",
                          str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and str(data) in err
        assert os.listdir(tmp_path) == ["d.csv"]

    @pytest.mark.parametrize("command", ["fit", "add"])
    def test_cell_beyond_the_csv_field_limit_is_data_error(
            self, workspace, tmp_path, capsys, command):
        _, gen, sol_path = workspace
        data = tmp_path / "d.csv"
        data.write_text((gen / "data.csv").read_text()
                        + "1" * (csv.field_size_limit() + 1) + ",1,1,1,1\n")
        argv = (["fit", "--target", "y", "--lambda-z", "0.1"]
                if command == "fit" else ["add", "--solution", str(sol_path)])
        rc = main(argv + ["--data", str(data), "--out",
                          str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and str(data) in err
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_byte_order_mark_is_not_part_of_a_column_name(self, workspace,
                                                          tmp_path):
        """A training file saved with a leading byte-order mark adds onto
        the solution fitted from the file without it."""
        _, gen, sol_path = workspace
        data = tmp_path / "d.csv"
        data.write_bytes(b"\xef\xbb\xbf" + (gen / "data.csv").read_bytes())
        rc = main(["add", "--solution", str(sol_path), "--data", str(data),
                   "--out", str(tmp_path / "added.csv")])
        assert rc == 0


class TestSolutionNames:
    @pytest.mark.parametrize("command", ["metrics", "export", "add"])
    @pytest.mark.parametrize("key, corrupt", [
        ("task", lambda doc: {**doc, "task": 5}),
        ("task", lambda doc: {**doc, "task": None}),
        ("target_names", lambda doc: {**doc, "target_names": [None]}),
        ("column_names", lambda doc: {
            **doc, "column_names": [["x1"]] + doc["column_names"][1:]}),
    ], ids=["task-number", "task-null", "target-name-null",
            "column-name-list"])
    def test_non_string_name_is_data_error(self, workspace, tmp_path, capsys,
                                           command, key, corrupt):
        """A solution whose task or a name is not a string is refused on
        loading, naming the key, by every command that reads it."""
        _, gen, sol_path = workspace
        bad = tmp_path / "sol.json"
        bad.write_text(json.dumps(corrupt(json.loads(sol_path.read_text()))))
        argv = [command, "--solution", str(bad), "--out",
                str(tmp_path / "out")]
        if command == "add":
            argv += ["--data", str(gen / "data.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and repr(key) in err


class TestSolutionSettings:
    @pytest.mark.parametrize("command", ["metrics", "export", "add"])
    @pytest.mark.parametrize("key", ["lambda_z", "lambda_lasso"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_penalty_is_data_error(self, workspace, tmp_path,
                                            capsys, command, key, value):
        """A penalty saved as ``Infinity`` fails to load, naming its key, in
        every command that reads the file: it goes through the same rule
        as ``Hyperparams``."""
        _, gen, sol_path = workspace
        bad = tmp_path / "sol.json"
        bad.write_text(json.dumps({**json.loads(sol_path.read_text()),
                                   key: value}))
        argv = [command, "--solution", str(bad), "--out",
                str(tmp_path / "out")]
        if command == "add":
            argv += ["--data", str(gen / "data.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and repr(key) in err


def write_classification_csv(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3)) + rng.integers(0, 2, n)[:, None] * 2.0
    logits = X @ np.array([1.0, -0.8, 0.5])
    p1 = 1.0 / (1.0 + np.exp(-logits))
    rows = ["a,b,c,p1,p2"]
    for i in range(n):
        cells = [X[i, 0], X[i, 1], X[i, 2], p1[i], 1 - p1[i]]
        rows.append(",".join(repr(float(v)) for v in cells))
    path.write_text("\n".join(rows) + "\n")


def fit_class_ids(data, sol_path, ids=(0, 1, 2)) -> int:
    """Write 30 rows of two covariates and a class id, taking ``ids`` in
    turn, to ``data`` and fit them as a classification; returns the exit
    code."""
    rng = np.random.default_rng(1)
    rows = ["a,b,cls"]
    for i in range(30):
        rows.append(f"{repr(rng.standard_normal())},"
                    f"{repr(rng.standard_normal())},{ids[i % len(ids)]}")
    data.write_text("\n".join(rows) + "\n")
    return main(["fit", "--data", str(data), "--target", "cls", "--task",
                 "classification", "--lambda-z", "0.1", "--seed", "1",
                 "--out", str(sol_path)])


class TestClassificationPipeline:
    def test_fit_metrics_add_round_trip(self, tmp_path):
        data = tmp_path / "cls.csv"
        write_classification_csv(data)
        sol_path = tmp_path / "sol.json"
        rc = main(["fit", "--data", str(data), "--target", "p1", "--target",
                   "p2", "--task", "classification", "--lambda-z", "0.05",
                   "--seed", "3", "--out", str(sol_path)])
        assert rc == 0
        sol = Solution.load(sol_path)
        assert sol.task.n_classes == 2
        assert sol.B.shape == (40, 4)  # (p-1) * (3 features + intercept)
        assert main(["metrics", "--solution", str(sol_path), "--k", "5",
                     "--out", str(tmp_path / "r.json")]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert 0.0 <= doc["coverage_full"] <= 1.0
        assert main(["add", "--solution", str(sol_path), "--data", str(data),
                     "--out", str(tmp_path / "a.csv")]) == 0
        with open(tmp_path / "a.csv") as fh:
            header = next(csv.reader(fh))
        assert "p1:intercept" in header

    def test_one_hot_target_expansion(self, tmp_path):
        data = tmp_path / "hard.csv"
        sol_path = tmp_path / "sol.json"
        rc = fit_class_ids(data, sol_path)
        assert rc == 0
        sol = Solution.load(sol_path)
        assert sol.Y.shape == (30, 3)
        assert sol.target_names == ("cls=0", "cls=1", "cls=2")

    def test_one_hot_add_reads_the_class_id_column(self, tmp_path, capsys):
        data = tmp_path / "hard.csv"
        sol_path = tmp_path / "sol.json"
        assert fit_class_ids(data, sol_path) == 0
        lines = data.read_text().splitlines()
        first = tmp_path / "first.csv"
        first.write_text("\n".join(lines[:2]) + "\n")
        for path, n in ((first, 1), (data, 30)):
            out = tmp_path / f"added{n}.csv"
            assert main(["add", "--solution", str(sol_path), "--data",
                         str(path), "--out", str(out)]) == 0
            with open(out) as fh:
                assert len(list(csv.reader(fh))) == 1 + n
        unknown = tmp_path / "unknown.csv"
        unknown.write_text(lines[0] + "\n0.5,0.5,7\n")
        assert main(["add", "--solution", str(sol_path), "--data",
                     str(unknown), "--out", str(tmp_path / "u.csv")]) == 3
        assert 'class id 7 in column "cls"' in capsys.readouterr().err

    def test_large_class_ids_are_named_exactly(self, tmp_path, capsys):
        """Ids 1000000 and 1000001 are two classes, named by their exact
        ids.  A solution saved when id 1000000 was named ``cls=1e+06``
        still reads that id on ``add``, and refuses id 1000001."""
        data, sol_path = tmp_path / "ids.csv", tmp_path / "sol.json"
        assert fit_class_ids(data, sol_path, ids=(1000000, 1000001)) == 0
        assert Solution.load(sol_path).target_names == ("cls=1000000",
                                                        "cls=1000001")
        assert fit_class_ids(data, sol_path, ids=(0, 1000000)) == 0
        doc = json.loads(sol_path.read_text())
        assert doc["target_names"] == ["cls=0", "cls=1000000"]
        sol_path.write_text(json.dumps(
            {**doc, "target_names": ["cls=0", "cls=1e+06"]}))
        header = data.read_text().splitlines()[0]
        for cls, rc in ((1000000, 0), (1000001, 3)):
            new = tmp_path / f"new{cls}.csv"
            new.write_text(f"{header}\n0.5,0.5,{cls}\n")
            assert main(["add", "--solution", str(sol_path), "--data",
                         str(new), "--out", str(tmp_path / f"a{cls}.csv")]) \
                == rc
        assert 'class id 1000001 in column "cls" is not a class' \
            in capsys.readouterr().err

    def test_probability_columns_named_like_class_ids(self, tmp_path):
        """Targets ``y=a``, ``y=b`` that the file has are read as columns
        by ``add`` too, not as the expansion of a class-id column y."""
        data = tmp_path / "cls.csv"
        write_classification_csv(data)
        text = data.read_text()
        data.write_text(text.replace("p1,p2", "y=a,y=b", 1))
        sol_path = tmp_path / "sol.json"
        assert main(["fit", "--data", str(data), "--target", "y=a",
                     "--target", "y=b", "--task", "classification",
                     "--lambda-z", "0.05", "--seed", "3",
                     "--max-outer-iters", "0", "--out", str(sol_path)]) == 0
        assert Solution.load(sol_path).target_names == ("y=a", "y=b")
        out = tmp_path / "a.csv"
        assert main(["add", "--solution", str(sol_path), "--data", str(data),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 41

    def test_binary_logit_fit(self, tmp_path):
        data = tmp_path / "cls.csv"
        write_classification_csv(data)
        sol_path = tmp_path / "sol.json"
        rc = main(["fit", "--data", str(data), "--target", "p1", "--task",
                   "binary-logit", "--lambda-z", "0.1", "--seed", "3",
                   "--out", str(sol_path)])
        assert rc == 0
        sol = Solution.load(sol_path)
        assert sol.task.kind == "binary-logit"
        # p2 stays behind as a covariate unless the caller drops it
        assert sol.B.shape[1] == 5


class TestEndToEndDeterminism:
    def test_identical_seed_bit_identical_outputs(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            main(["generate", "--n", "30", "--m", "3", "--seed", "11",
                  "--out", str(d)])
            sol = d / "sol.json"
            main(["fit", "--data", str(d / "data.csv"), "--target", "y",
                  "--lambda-z", "0.1", "--seed", "11", "--out", str(sol)])
            svg = d / "p.svg"
            main(["plot", "--solution", str(sol), "--out", str(svg)])
            blobs.append((sol.read_bytes(), svg.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_same_thread_count_same_bytes(self, threads, tmp_path):
        """Two CLI fits in fresh processes under one SLISEMAP_THREADS write
        the same solution bytes.  Fits under different thread counts may
        differ (at n = 400 they do), so none are compared across counts."""
        gen = tmp_path / "gen"
        main(["generate", "--n", "60", "--m", "4", "--seed", "2",
              "--out", str(gen)])
        env = {k: v for k, v in os.environ.items()
               if k not in slisemap.BLAS_THREAD_VARIABLES}
        env["SLISEMAP_THREADS"] = threads
        src = os.path.dirname(os.path.dirname(solver.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        blobs = []
        for run in ("a", "b"):
            sol = tmp_path / f"{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "slisemap.cli", "fit", "--data",
                 str(gen / "data.csv"), "--target", "y", "--lambda-z", "0.1",
                 "--seed", "2", "--out", str(sol)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append(sol.read_bytes())
        assert blobs[0] == blobs[1]


class TestOutputDigestsTool:
    def test_cli_line_runs(self):
        """``tools/output_digests.py``'s CLI pipeline still runs and hashes
        every file it writes, so a CLI change cannot break the tool."""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c",
             "import output_digests; print(output_digests.cli_line())"],
            cwd=root / "tools", capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()[::2]
        assert names == ["added.csv", "export.csv", "gen/data.csv",
                         "gen/labels.csv", "gen/true_coefs.csv", "models.svg",
                         "plot.svg", "report.csv", "report.json", "sol.json",
                         "sweep.csv"]


@pytest.mark.parametrize("tool", ["output_digests", "eval_overhead",
                                  "add_quality"])
def test_tool_runs_blas_on_one_thread(tool):
    """Imported under other BLAS thread settings, a tool has every one of
    the package's BLAS thread variables at "1" when numpy is first
    imported, which is when OpenBLAS reads them."""
    spy = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append([os.environ.get(v) for v in "
        f"{slisemap.BLAS_THREAD_VARIABLES!r}])\n"
        "sys.meta_path.insert(0, Spy())\n"
        f"import {tool}\n"
        "print(seen)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", SLISEMAP_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", spy], env=env,
                          cwd=Path(__file__).resolve().parent.parent
                          / "tools", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == \
        str([["1"] * len(slisemap.BLAS_THREAD_VARIABLES)])


class TestEvalOverheadTool:
    def test_prints_every_case(self):
        tool = Path(__file__).resolve().parent.parent / "tools" \
            / "eval_overhead.py"
        proc = subprocess.run([sys.executable, str(tool), "--repeats", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = [line.rsplit(None, 1) for line in proc.stdout.splitlines()[1:]]
        assert [name for name, _ in rows] == [
            "reg200 full k=200", "reg200 added k=1", "reg200 added k=10",
            "clf200 full k=150", "clf200 added k=1", "clf200 added k=10",
            "two_loop fit (200 rows)", "two_loop single add (1 row)"]
        assert all(float(us) > 0 for _, us in rows)


class TestCodeLinesTool:
    @staticmethod
    def run(*args):
        tool = Path(__file__).resolve().parent.parent / "tools" \
            / "code_lines.py"
        proc = subprocess.run([sys.executable, str(tool), *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return [(name, int(n)) for name, n in map(str.split,
                                                  proc.stdout.splitlines())]

    def test_total_is_the_sum_of_the_modules(self):
        rows = self.run()
        package = Path(slisemap.__file__).parent
        assert [name for name, _ in rows[:-1]] == sorted(
            p.name for p in package.glob("*.py"))
        assert rows[-1] == ("total", sum(n for _, n in rows[:-1]))

    def test_counts_neither_comments_nor_docstrings(self, tmp_path):
        (tmp_path / "a.py").write_text(
            '"""Module\ndocstring."""\n\n'
            '# a comment\n'
            'def f():\n'
            '    """Function docstring."""\n'
            '    return """two\nlines"""  # code\n\n\n'
            'class C:\n'
            '    """Class\n\n    docstring."""\n'
            '    x = 1\n')
        (tmp_path / "b.py").write_text("x = (1,\n     2)\n")
        assert self.run(str(tmp_path)) == [("a.py", 5), ("b.py", 2),
                                           ("total", 7)]


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g"
        proc = subprocess.run(
            [sys.executable, "-m", "slisemap.cli", "generate", "--n", "10",
             "--m", "2", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "data.csv").exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "slisemap.cli", "fit"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_thread_cap_set_before_numpy_import(self):
        """SLISEMAP_THREADS reaches the BLAS variables before numpy is
        first imported, which is when OpenBLAS reads them."""
        spy = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import slisemap.cli\n"
            "print(seen)\n")
        env = {k: v for k, v in os.environ.items()
               if k not in slisemap.BLAS_THREAD_VARIABLES}
        env["SLISEMAP_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", spy], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['1']"
