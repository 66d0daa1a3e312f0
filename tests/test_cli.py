"""End-to-end tests of the command-line interface.

Every command runs in-process through ``cli.main`` so exit codes and
artifacts can be asserted directly.
"""

import json
import warnings

import numpy as np
import pytest
import scipy.io

from scalebo import cli, glm
from scalebo.problems import synthetic_powerlaw, target_for_optimum


def write_config(path, **overrides):
    doc = {
        "seed": 11,
        "problem": {
            "kind": "synthetic-powerlaw",
            "a": -0.58,
            "ln_b": 0.0,
            "eps2": 0.25,
            "beta_opt": 101.0,
        },
        "bo": {
            "beta_min": 10.0,
            "beta_max": 1000.0,
            "n0": 40,
            "batch_size": 10,
            "max_iterations": 25,
        },
        "baseline": {"method": "golden", "mc_samples": 200, "tol": 0.05, "max_iter": 40},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=1))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "run.json")


class TestOptimize:
    def test_writes_artifacts_and_lands_in_optimal_region(self, tmp_path, config_path):
        out = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path),
                         "--threads", "1", "--out", str(out)]) == 0
        estimate = json.loads((out / "estimate.json").read_text())
        # 10% optimal region of the calibrated problem (frozen from the
        # closed-form region around beta* = 101).
        assert 77.2 <= estimate["beta_hat"] <= 138.9
        assert estimate["evaluations"] <= 290
        assert estimate["wall_clock_seconds"] > 0
        for name in ("trace.json", "trace.csv", "run.json"):
            assert (out / name).exists()
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["method"] == "surrogate-bo"
        assert len(run_doc["problem_hash"]) == 64

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert cli.main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        path = write_config(tmp_path / "run.json", extra_section={"x": 1})
        assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["optimize", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2

    def test_repeat_run_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli.main(["optimize", "--config", str(config_path),
                             "--threads", "2", "--out", str(out)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path, config_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(out1)]) == 0
        assert cli.main(["optimize", "--config", str(config_path), "--seed", "99",
                         "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


class TestBaseline:
    def test_golden_run_artifacts(self, tmp_path, config_path):
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(config_path),
                         "--threads", "1", "--out", str(out)]) == 0
        estimate = json.loads((out / "estimate.json").read_text())
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["method"] == "golden-section"
        assert run_doc["baseline"]["mc_samples"] == 200
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "iteration,beta,s,source"
        assert len(rows) - 1 == estimate["evaluations"]
        assert all(line.endswith("mc-probe") for line in rows[1:])

    def test_parabolic_dispatch(self, tmp_path):
        path = write_config(
            tmp_path / "run.json",
            baseline={"method": "parabolic", "mc_samples": 100, "tol": 0.05, "max_iter": 40},
        )
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["method"] == "parabolic"

    def test_repeat_run_is_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert cli.main(["baseline", "--config", str(config_path),
                             "--threads", "3", "--out", str(out)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "probes.csv").read_bytes() == (out2 / "probes.csv").read_bytes()


class TestCompare:
    def test_ratio_table(self, tmp_path, config_path, capsys):
        bo, base = tmp_path / "bo", tmp_path / "base"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        assert cli.main(["baseline", "--config", str(config_path), "--out", str(base)]) == 0
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(bo), str(base), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "ratio" in printed
        doc = json.loads((out / "comparison.json").read_text())
        expected = round(
            doc["baseline"]["evaluations"] / doc["surrogate"]["evaluations"], 1
        )
        assert doc["ratios"]["data_points"] == expected

    def test_identical_runs_have_unit_ratio(self, tmp_path, config_path, capsys):
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(bo), str(bo), "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["ratios"]["data_points"] == 1.0

    def test_mismatched_problems_exit_2(self, tmp_path, config_path, capsys):
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        other_cfg = write_config(
            tmp_path / "other.json",
            problem={"kind": "synthetic-powerlaw", "a": -0.3, "ln_b": 0.0,
                     "eps2": 0.1, "beta_opt": 50.0},
        )
        base = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(other_cfg), "--out", str(base)]) == 0
        assert cli.main(["compare", str(bo), str(base)]) == 2
        assert "different problems" in capsys.readouterr().err


class TestDiagnose:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        rng = np.random.default_rng(0)
        prob = synthetic_powerlaw(-0.5, 0.0, 0.16, target_for_optimum(-0.5, 0.0, 0.16, 80.0))
        betas, ss = [], []
        for beta in (20.0, 60.0, 180.0):
            for _ in range(1200):
                betas.append(beta)
                ss.append(prob.evaluate_statistic(beta, rng))
        data, _ = glm.ingest(zip(betas, ss))
        path = tmp_path / "data.csv"
        glm.save_csv(data, path)
        return path

    def test_writes_report(self, tmp_path, dataset_path, capsys):
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(dataset_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_beta"]) == 3
        assert (out / "groups.csv").exists()
        assert (out / "histogram.csv").exists()
        assert "family ranking" in capsys.readouterr().out

    def test_malformed_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert cli.main(["diagnose", "--data", str(bad), "--out", str(tmp_path / "d")]) == 2

    def test_fit_file_uses_the_trace_fit_format(self, tmp_path, dataset_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(glm.fit(glm.load_csv(dataset_path)[0]).to_json_dict()))
        own, given = tmp_path / "own", tmp_path / "given"
        assert cli.main(["diagnose", "--data", str(dataset_path), "--out", str(own)]) == 0
        assert cli.main(["diagnose", "--data", str(dataset_path), "--fit", str(fit_path),
                         "--out", str(given)]) == 0
        assert (own / "report.json").read_bytes() == (given / "report.json").read_bytes()

    @pytest.mark.parametrize("text", ['{"coef_hat": [1.0, 0.0]}', "[1, 2]", "{not json"])
    def test_malformed_fit_exits_2(self, tmp_path, dataset_path, text):
        bad = tmp_path / "fit.json"
        bad.write_text(text)
        assert cli.main(["diagnose", "--data", str(dataset_path), "--fit", str(bad),
                         "--out", str(tmp_path / "d")]) == 2

    def test_single_row_groups_write_nothing_to_stderr(self, tmp_path, dataset_path, capsys):
        data, _ = glm.load_csv(dataset_path)
        sparse = tmp_path / "sparse.csv"
        glm.save_csv(data.with_observations([5.0, 7.0], [1.0, 2.0]), sparse)
        out = tmp_path / "diag"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["diagnose", "--data", str(sparse), "--min-per-beta", "1",
                             "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        first = json.loads((out / "report.json").read_text())["per_beta"][0]
        assert first["count"] == 1 and first["std"] is None

    def test_repeat_run_is_byte_identical(self, tmp_path, dataset_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert cli.main(["diagnose", "--data", str(dataset_path), "--out", str(out)]) == 0
        assert (out1 / "groups.csv").read_bytes() == (out2 / "groups.csv").read_bytes()
        assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()


class TestStandinProblemDispatch:
    def test_optimize_on_structural_standin(self, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            problem={"kind": "srom-standin"},
            bo={"beta_min": 3e7, "beta_max": 8e7, "n0": 12,
                "batch_size": 4, "max_iterations": 2},
        )
        out = tmp_path / "standin"
        assert cli.main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        estimate = json.loads((out / "estimate.json").read_text())
        assert 3e7 <= estimate["beta_hat"] <= 8e7


class TestFixtureExport:
    def test_writes_matrix_market_files(self, tmp_path, capsys):
        out = tmp_path / "fixture"
        assert cli.main(["fixture", "export", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.mtx"))
        assert names == ["K.mtx", "V.mtx", "f_E.mtx", "f_H.mtx"]
        v = np.asarray(scipy.io.mmread(out / "V.mtx"))
        assert v.shape == (1000, 8)
