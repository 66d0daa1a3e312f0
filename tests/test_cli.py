"""End-to-end tests of the command-line interface.

Every command runs in-process through ``cli.main`` so exit codes and
artifacts can be asserted directly.
"""

import json
import re
import warnings

import numpy as np
import pytest
import scipy.io

import oracles
from oracles import strict_json
from scalebo import baselines, cli, config, driver, glm, jsonio, problems
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
        # Each input once: the seed is bo.seed's, and no hash restates the problem.
        assert list(run_doc) == ["schema", "method", "problem", "bo", "baseline",
                                 "stop_reason", "flag"]
        assert (run_doc["schema"], run_doc["method"]) == ("scalebo-run/2", "surrogate-bo")
        assert run_doc["bo"]["seed"] == 11

    def test_optimum_below_bounds_is_flagged(self, tmp_path, capsys):
        # The calibrated optimum (101) lies below [200, 1000].  The config
        # also sets the deprecated stop_rel_tol, which must still parse.
        path = write_config(tmp_path / "run.json", bo={
            "beta_min": 200.0, "beta_max": 1000.0, "n0": 40, "batch_size": 10,
            "max_iterations": 25, "stop_rel_tol": 0.004,
        })
        out = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(path), "--threads", "1",
                         "--out", str(out)]) == 0
        estimate = json.loads((out / "estimate.json").read_text())
        assert estimate["beta_hat"] == 200.0
        assert estimate["flag"] == "boundary-min"
        run_doc = json.loads((out / "run.json").read_text())
        assert (run_doc["stop_reason"], run_doc["flag"]) == ("converged", "boundary-min")
        assert json.loads((out / "trace.json").read_text())["flag"] == "boundary-min"
        assert "stop: converged, flag: boundary-min" in capsys.readouterr().out

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


class TestDegenerateProblems:
    """Problems whose objective has no interior optimum run to a trace."""

    small_bo = {"beta_min": 10.0, "beta_max": 1000.0, "n0": 10, "max_iterations": 2}

    def optimize(self, tmp_path, problem):
        path = write_config(tmp_path / "run.json", problem=problem, bo=self.small_bo)
        out = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
        return out

    def test_constant_statistic_at_its_target_has_no_estimate(self, tmp_path):
        # s = 1 = s0 at every beta: an exact fit whose plug-in objective is
        # constant, so no beta is better than another.
        out = self.optimize(tmp_path, {"kind": "synthetic-powerlaw", "a": 0.0, "ln_b": 0.0,
                                       "eps2": 0.0, "s0": 1.0})
        estimate = strict_json(out / "estimate.json")
        assert estimate["beta_hat"] is None
        assert estimate["flag"] == "unidentified"
        assert estimate["evaluations"] == 10
        assert strict_json(out / "run.json")["stop_reason"] == "degenerate-fit"
        doc = strict_json(out / "trace.json")
        assert driver.trace_to_json_dict(driver.load_trace(out / "trace.json")) == doc

    @pytest.mark.parametrize("a", [1e-11, -1e-11])
    def test_tiny_slope_runs(self, tmp_path, a):
        out = self.optimize(tmp_path, {"kind": "synthetic-powerlaw", "a": a, "ln_b": 0.0,
                                       "eps2": 0.25, "s0": 2.0})
        estimate = strict_json(out / "estimate.json")
        assert 10.0 <= estimate["beta_hat"] <= 1000.0


    def test_estimate_counts_rounds_as_records(self, tmp_path, config_path):
        # rounds counts the initial design, then each Thompson batch.
        out = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
        estimate = strict_json(out / "estimate.json")
        records = strict_json(out / "trace.json")["iterations"]
        assert estimate["rounds"] == len(records) == 1 + sum(
            rec["source"] == "thompson" for rec in records)
        cmp = tmp_path / "cmp"
        assert cli.main(["compare", str(out), str(out), "--out", str(cmp)]) == 0
        assert strict_json(cmp / "comparison.json")["surrogate"]["rounds"] == len(records)


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

    def test_estimate_counts_rounds_as_probes(self, tmp_path, config_path):
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(config_path), "--out", str(out)]) == 0
        estimate = strict_json(out / "estimate.json")
        probes = (out / "probes.csv").read_text().splitlines()[1:]
        assert estimate["rounds"] == len(probes) == estimate["evaluations"] // 200

    def test_parabolic_dispatch(self, tmp_path):
        path = write_config(
            tmp_path / "run.json",
            baseline={"method": "parabolic", "mc_samples": 100, "tol": 0.05, "max_iter": 40},
        )
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["method"] == "parabolic"

    @pytest.mark.parametrize("method,stop_reason", [("golden", "bracket"),
                                                   ("parabolic", "converged")])
    def test_run_json_names_the_stop_reason(self, tmp_path, method, stop_reason):
        # A noise-free statistic reaches each label by construction, whatever
        # the streams: every probe's standard error is 0, so the noise floor
        # cannot fire, and the objective is the same at every seed.
        path = write_config(
            tmp_path / "run.json", seed=1,
            problem={"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.0,
                     "beta_opt": 101.0},
            baseline={"method": method, "mc_samples": 1000, "tol": 0.04, "max_iter": 60},
        )
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(path), "--threads", "1",
                         "--out", str(out)]) == 0
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["stop_reason"] == stop_reason
        # The stop rules are the code's: run.json restates none of them.
        assert list(run_doc) == ["schema", "method", "problem", "bo", "baseline", "stop_reason"]

    @pytest.mark.parametrize("method", ["golden", "parabolic"])
    def test_spent_budget_writes_all_artifacts(self, tmp_path, method):
        path = write_config(
            tmp_path / "run.json", seed=1,
            baseline={"method": method, "mc_samples": 1000, "tol": 0.04, "max_iter": 5},
        )
        out = tmp_path / "base"
        assert cli.main(["baseline", "--config", str(path), "--threads", "1",
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "estimate.json", "probes.csv", "run.json", "trace.csv"]
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["stop_reason"] == "budget"
        assert json.loads((out / "estimate.json").read_text())["evaluations"] == 5 * 1000
        assert len((out / "probes.csv").read_text().splitlines()) == 1 + 5

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

    def test_small_ratio_shows_two_significant_digits(self, tmp_path, capsys):
        # One decimal would print both ratios as 0.0; comparison.json keeps it.
        problem = {"kind": "srom-standin"}
        runs = {"bo": ("bo", 400, 0.5), "base": ("golden", 12, 0.02)}
        for name, (method, evaluations, wall) in runs.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "run.json").write_text(
                json.dumps({"method": method, "problem": problem}))
            (tmp_path / name / "estimate.json").write_text(
                json.dumps({"evaluations": evaluations, "wall_clock_seconds": wall}))
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(tmp_path / "bo"), str(tmp_path / "base"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "metric              bo     golden  ratio",
            "data_points         400    12      0.030",
            "wall_clock_seconds  0.500  0.020   0.040",
            "note: ratio = baseline / surrogate, rounded to one decimal, "
            "or to two significant digits where one decimal reads 0.0.",
        ]
        assert strict_json(out / "comparison.json")["ratios"] == {
            "data_points": 0.0, "wall_clock_seconds": 0.0}

    def test_missing_run_json_exits_2(self, tmp_path, config_path, capsys):
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(bo), str(empty), "--out", str(out)]) == 2
        assert "cannot read run directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,edit", [
        ("run.json", lambda doc: "{not json"),
        ("run.json", lambda doc: "[]"),
        ("run.json", lambda doc: json.dumps({k: v for k, v in doc.items() if k != "problem"})),
        ("run.json", lambda doc: json.dumps({k: v for k, v in doc.items() if k != "method"})),
        ("estimate.json",
         lambda doc: json.dumps({k: v for k, v in doc.items() if k != "evaluations"})),
        ("estimate.json",
         lambda doc: json.dumps({k: v for k, v in doc.items() if k != "wall_clock_seconds"})),
        ("run.json", lambda doc: json.dumps({**doc, "problem": "synthetic-powerlaw"})),
        ("run.json", lambda doc: json.dumps({**doc, "problem": [doc["problem"]]})),
        ("run.json", lambda doc: json.dumps({**doc, "method": None})),
        ("estimate.json", lambda doc: json.dumps({**doc, "evaluations": 0})),
        ("estimate.json", lambda doc: json.dumps({**doc, "evaluations": "12"})),
        ("estimate.json", lambda doc: json.dumps({**doc, "evaluations": 12.0})),
        ("estimate.json", lambda doc: json.dumps({**doc, "evaluations": True})),
        ("estimate.json", lambda doc: json.dumps({**doc, "wall_clock_seconds": -1.0})),
        ("estimate.json", lambda doc: json.dumps({**doc, "wall_clock_seconds": "1.0"})),
        ("estimate.json", lambda doc: json.dumps({**doc, "wall_clock_seconds": True})),
        ("estimate.json", lambda doc: json.dumps({**doc, "wall_clock_seconds": float("nan")})),
        ("estimate.json", lambda doc: json.dumps({**doc, "evaluations": 10**400})),
        ("estimate.json", lambda doc: json.dumps({**doc, "wall_clock_seconds": 10**400})),
        ("estimate.json", lambda doc: json.dumps({**doc, "flag": "boundary"})),
        ("estimate.json", lambda doc: json.dumps({**doc, "flag": False})),
    ], ids=["not-json", "not-an-object", "no-problem", "no-method", "no-evaluations",
            "no-wall-clock", "problem-a-string", "problem-a-list", "method-not-string",
            "zero-evaluations",
            "string-evaluations", "float-evaluations", "bool-evaluations", "negative-wall-clock",
            "string-wall-clock", "bool-wall-clock", "nan-wall-clock", "huge-evaluations",
            "huge-wall-clock", "unknown-flag", "bool-flag"])
    def test_malformed_run_dir_exits_2(self, tmp_path, config_path, capsys, name, edit):
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        broken = tmp_path / "broken"
        broken.mkdir()
        for artifact in ("run.json", "estimate.json"):
            text = (bo / artifact).read_text()
            (broken / artifact).write_text(edit(json.loads(text)) if artifact == name else text)
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(bo), str(broken), "--out", str(out)]) == 2
        assert f"malformed {broken / name}" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_huge_value_is_shortened(self, tmp_path, config_path, capsys):
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        doc = json.loads((bo / "estimate.json").read_text())
        (bo / "estimate.json").write_text(json.dumps({**doc, "wall_clock_seconds": 10**400}))
        assert cli.main(["compare", str(bo), str(bo)]) == 2
        err = capsys.readouterr().err
        assert "wall_clock_seconds" in err and "..." in err and "0" * 100 not in err

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
        assert capsys.readouterr().err == (
            "error: runs solve different problems: they differ in a, beta_opt, eps2\n")

    def test_problems_of_two_kinds_name_every_key(self, tmp_path, config_path, capsys):
        # A key that one section lacks differs too.
        bo = tmp_path / "bo"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        run_doc = json.loads((bo / "run.json").read_text())
        other = tmp_path / "other"
        other.mkdir()
        (other / "estimate.json").write_bytes((bo / "estimate.json").read_bytes())
        (other / "run.json").write_text(json.dumps({**run_doc, "problem": {
            "kind": "gamma-noise", "a": -0.58, "ln_b": 0.0, "s0": 0.1, "shape": 4.0}}))
        assert cli.main(["compare", str(bo), str(other)]) == 2
        assert capsys.readouterr().err.endswith(
            "they differ in beta_opt, eps2, kind, s0, shape\n")

    def test_earlier_run_schema_compares(self, tmp_path, config_path):
        # A scalebo-run/1 run.json also held the seed, the problem's hash and
        # the baseline's stop rules in words; compare reads its problem.
        bo, base = tmp_path / "bo", tmp_path / "base"
        assert cli.main(["optimize", "--config", str(config_path), "--out", str(bo)]) == 0
        assert cli.main(["baseline", "--config", str(config_path), "--out", str(base)]) == 0
        run_doc = json.loads((base / "run.json").read_text())
        (base / "run.json").write_text(json.dumps({
            **run_doc, "schema": "scalebo-run/1", "seed": 11, "problem_hash": "0" * 64,
            "bracketing": "ln-beta golden bracket", "stopping": "bracket | budget"}))
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(bo), str(base), "--out", str(out)]) == 0
        assert strict_json(out / "comparison.json")["problem"] == run_doc["problem"]

    def test_spellings_of_one_problem_compare(self, tmp_path):
        # ln_b written as 0 or 0.0, the default shape left out or written.
        problem = {"kind": "gamma-noise", "a": -0.58, "s0": 0.1}
        bo = {"beta_min": 10.0, "beta_max": 1000.0, "n0": 10, "max_iterations": 2}
        one = write_config(tmp_path / "one.json", problem={**problem, "ln_b": 0}, bo=bo,
                           baseline={"mc_samples": 64})
        two = write_config(tmp_path / "two.json", problem={**problem, "ln_b": 0.0, "shape": 4.0},
                           bo=bo, baseline={"mc_samples": 64})
        bo_dir, base_dir = tmp_path / "bo", tmp_path / "base"
        assert cli.main(["optimize", "--config", str(one), "--out", str(bo_dir)]) == 0
        assert cli.main(["baseline", "--config", str(two), "--out", str(base_dir)]) == 0
        assert cli.main(["compare", str(bo_dir), str(base_dir)]) == 0

    @pytest.mark.parametrize("problem,flagged", [
        ({"kind": "synthetic-powerlaw", "a": 0.0, "ln_b": 0.0, "eps2": 0.0, "s0": 1.0},
         "unidentified"),
        ({"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.25, "beta_opt": 101.0},
         None),
    ], ids=["constant-statistic", "calibrated"])
    def test_flagged_answer_is_noted(self, tmp_path, capsys, problem, flagged):
        # The constant statistic at its target has no optimum: optimize ends
        # unidentified with no estimate, while golden section still reports
        # one, which it cannot tell from a found optimum.
        path = write_config(tmp_path / "run.json", seed=1, problem=problem,
                            baseline={"mc_samples": 64})
        bo, base, out = tmp_path / "bo", tmp_path / "base", tmp_path / "cmp"
        assert cli.main(["optimize", "--config", str(path), "--out", str(bo)]) == 0
        assert cli.main(["baseline", "--config", str(path), "--out", str(base)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", str(bo), str(base), "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if "flag" in line]
        assert strict_json(out / "comparison.json")["surrogate"]["flag"] == flagged
        if flagged is None:
            assert notes == []
        else:
            assert notes == [f"note: the surrogate answer is flagged {flagged}; "
                             "the baseline cannot detect a flag."]
            assert strict_json(bo / "estimate.json")["beta_hat"] is None
            assert strict_json(base / "estimate.json")["beta_hat"] is not None


@pytest.mark.parametrize("command", ["optimize", "baseline"])
class TestRunArguments:
    def test_negative_config_seed_exits_2_before_writing(self, tmp_path, command, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json", seed=-3)
        assert cli.main([command, "--config", str(path), "--threads", "1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_exits_2_before_writing(self, tmp_path, config_path,
                                                            command, capsys):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config_path), "--seed", "-1",
                         "--threads", "1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_does_not_excuse_a_bad_config_seed(self, tmp_path, command, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json", seed=-1)
        assert cli.main([command, "--config", str(path), "--seed", "3", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, tmp_path, config_path, command, threads, capsys):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config_path), "--threads", threads,
                         "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_default_to_one(self, tmp_path, config_path, command):
        # A run without --threads writes the run.json of --threads 1, and
        # run.json names no thread count: nothing reads it.
        written = []
        for flags in ([], ["--threads", "1"]):
            out = tmp_path / f"out{len(written)}"
            assert cli.main([command, "--config", str(config_path), *flags,
                             "--out", str(out)]) == 0
            written.append((out / "run.json").read_bytes())
        assert written[0] == written[1]
        assert "threads" not in json.loads(written[0])

    def test_stop_rel_tol_is_checked_but_not_written(self, tmp_path, command):
        # The deprecated key parses, and no artifact names it: no stop rule reads it.
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        path = write_config(tmp_path / "run.json", bo={**doc["bo"], "stop_rel_tol": 0.004})
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        assert "stop_rel_tol" not in json.loads((out / "run.json").read_text())["bo"]
        if command == "optimize":
            assert "stop_rel_tol" not in json.loads((out / "trace.json").read_text())["config"]

    def test_problem_is_built_once(self, tmp_path, config_path, command, monkeypatch):
        built, build = [], config.build_problem
        monkeypatch.setattr(config, "build_problem",
                            lambda section: built.append(section) or build(section))
        assert cli.main([command, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    def test_seed_override_builds_one_bo_config(self, tmp_path, config_path, command,
                                                monkeypatch):
        # --seed stands for the config's seed in the one parse, so BoConfig's
        # checks run once per command.
        builds, check = [], driver.BoConfig.__post_init__
        monkeypatch.setattr(driver.BoConfig, "__post_init__",
                            lambda bo, stop_rel_tol: builds.append(bo.seed)
                            or check(bo, stop_rel_tol))
        assert cli.main([command, "--config", str(config_path), "--seed", "5",
                         "--out", str(tmp_path / "out")]) == 0
        assert builds == [5]

    def test_overflowing_statistic_exits_3(self, tmp_path, command, capsys):
        # exp(709 + ln beta + z) is beyond float range for beta >= 10 unless
        # z < -1.5: a sized draw fails as a scalar draw does, naming beta.
        path = write_config(tmp_path / "run.json", problem={
            "kind": "synthetic-powerlaw", "a": 1.0, "ln_b": 709.0, "eps2": 1.0, "s0": 1.0})
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert re.search(r"^error: statistic evaluation failed at beta=[\d.]+.*: math range error$",
                         capsys.readouterr().err, re.MULTILINE)

    def test_overflowing_objective_exits_3(self, tmp_path, command, capsys):
        # Every draw is finite, but near e^400 its squared error is not: the
        # baseline's probe names beta, where optimize's fit works in logs.
        path = write_config(tmp_path / "run.json", seed=1, problem={
            "kind": "synthetic-powerlaw", "a": 1.0, "ln_b": 400, "eps2": 1.0, "beta_opt": 100.0},
            baseline={"mc_samples": 64})
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        if command == "optimize":
            assert code == 0
            assert json.loads((out / "estimate.json").read_text())["beta_hat"] > 90
        else:
            assert code == 3
            assert re.search(r"^error: Monte-Carlo objective at beta=[\d.]+ is not a finite number",
                             capsys.readouterr().err, re.MULTILINE)
            assert list(out.iterdir()) == []

    def test_config_out_key_exits_2_before_writing(self, tmp_path, command, capsys,
                                                   monkeypatch):
        # optimize and baseline read one config, so a directory named there
        # let baseline overwrite optimize's files: --out alone names it.
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "run.json", out="shared")
        assert cli.main([command, "--config", str(path)]) == 2
        assert "'out'" in capsys.readouterr().err
        assert not (tmp_path / "shared").exists()
        assert not (tmp_path / f"{command}-run").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("bo", "integer_beta", "false"),
        ("bo", "max_iterations", True),
        ("bo", "n0", 40.5),
        ("bo", "batch_size", 2.5),
        ("bo", "stop_window", 2.5),
        ("baseline", "max_iter", 10.5),
        ("baseline", "mc_samples", 50.5),
        ("baseline", "tol", True),
    ])
    def test_mistyped_setting_exits_2_before_writing(self, tmp_path, command, section, key,
                                                      value, capsys):
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json", **{section: {**doc[section], key: value}})
        assert cli.main([command, "--config", str(path), "--threads", "1", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("bo", "beta_max", 10**400), ("bo", "stop_rel_tol", -10**300), ("bo", "n0", "x" * 500),
        ("problem", "a", 10**400), ("baseline", "tol", -10**300),
    ], ids=["bo-beta_max-10**400", "bo-stop_rel_tol--10**300", "bo-n0-500-chars",
            "problem-a-10**400", "baseline-tol--10**300"])
    def test_refused_value_is_shortened(self, tmp_path, command, section, key, value, capsys):
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        path = write_config(tmp_path / "run.json",
                            **{**doc, section: {**doc.get(section, {}), key: value}})
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err and "..." in err and len(err) < 300

    @pytest.mark.parametrize("section,key,value", [
        ("bo", "beta_min", True),
        ("bo", "beta_max", False),
        ("bo", "stop_rel_tol", True),
        ("problem", "a", True),
        ("problem", "ln_b", False),
        ("problem", "eps2", "0.25"),
        ("problem", "beta_opt", True),
        ("gamma-noise", "shape", True),
        ("gamma-noise", "s0", False),
        # Python's json reads the NaN and Infinity that json.dumps writes.
        ("problem", "a", float("nan")),
        ("problem", "eps2", float("nan")),
        ("problem", "beta_opt", float("inf")),
        ("gamma-noise", "shape", float("nan")),
        ("baseline", "tol", float("nan")),
        ("baseline", "tol", float("inf")),
        ("bo", "stop_rel_tol", float("inf")),
        # An integer beyond float range is no number either.
        pytest.param("bo", "beta_max", 10**400, id="bo-beta_max-10**400"),
        pytest.param("bo", "stop_rel_tol", 10**400, id="bo-stop_rel_tol-10**400"),
    ])
    def test_non_number_setting_exits_2_before_writing(self, tmp_path, command, section, key,
                                                       value, capsys):
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        if section == "gamma-noise":
            doc["problem"] = {"kind": "gamma-noise", "a": -0.5, "ln_b": 0.2, "shape": 4.0,
                              "s0": 0.3}
            section = "problem"
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json",
                            **{**doc, section: {**doc[section], key: value}})
        assert cli.main([command, "--config", str(path), "--threads", "1", "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", [{"beta_opt": -5}, {"beta_opt": 0},
                                         {"beta_opt": 1e300, "ln_b": 800, "a": 0.58},
                                         {"beta_opt": 1e300, "ln_b": -600}],
                             ids=["negative", "zero", "target-overflows", "target-underflows"])
    def test_bad_beta_opt_exits_2_before_writing(self, tmp_path, command, problem, capsys):
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json", problem={**doc["problem"], **problem})
        assert cli.main([command, "--config", str(path), "--threads", "1", "--out", str(out)]) == 2
        assert "beta_opt" in capsys.readouterr().err
        assert not out.exists()

    # exp(800) overflows, and exp(-800) underflows to 0.0: b is no positive float.
    @pytest.mark.parametrize("problem", [
        {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 800, "eps2": 0.25, "s0": 1.0},
        {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": -800, "eps2": 0.25, "s0": 1.0},
        {"kind": "gamma-noise", "a": -0.5, "ln_b": 800, "s0": 0.3},
    ], ids=["powerlaw-overflows", "powerlaw-underflows", "gamma-overflows"])
    def test_scale_that_is_no_positive_float_exits_2_before_writing(self, tmp_path, command,
                                                                   problem, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.json", problem=problem)
        assert cli.main([command, "--config", str(path), "--threads", "1", "--out", str(out)]) == 2
        assert "ln_b" in capsys.readouterr().err
        assert not out.exists()


class TestProblemDomain:
    @pytest.mark.parametrize("command", ["optimize", "baseline"])
    @pytest.mark.parametrize("beta_min", [0.5, 1.0])
    def test_bounds_outside_the_kind_domain_exit_2_before_writing(self, tmp_path, command,
                                                                 beta_min, capsys):
        # The heteroscedastic kind is defined for beta > 1 only.
        out = tmp_path / "out"
        path = write_config(
            tmp_path / "run.json",
            problem={"kind": "heteroscedastic", "a": -0.5, "ln_b": 0.0, "s0": 0.3},
            bo={"beta_min": beta_min, "beta_max": 1000.0, "n0": 10, "max_iterations": 2},
        )
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "beta_min must be > 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture()
def dataset_path(tmp_path):
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


class TestDiagnose:
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

    # Too few usable rows to fit, or a single beta: the dataset is a usage
    # error of --fit self, named with its path, and nothing is written.
    @pytest.mark.parametrize("body, message", [
        ("", "need at least 3 rows, got 0"),
        ("10.0,-1.0\n20.0,nan\n40.0,0.0\n80.0,inf\n", "need at least 3 rows, got 0"),
        ("10.0,1.0\n10.0,2.0\n10.0,3.0\n", "design matrix is rank deficient"),
    ], ids=["header-only", "all-rejected", "one-beta"])
    def test_unfittable_dataset_exits_2_before_writing(self, tmp_path, body, message, capsys):
        path = tmp_path / "data.csv"
        path.write_text("beta,s\n" + body)
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(path), "--out", str(out)]) == 2
        assert f"error: cannot fit dataset {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--min-per-beta", "--window"])
    def test_non_positive_count_exits_2_before_writing(self, tmp_path, dataset_path, flag,
                                                       capsys):
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(dataset_path), flag, "0",
                         "--out", str(out)]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--beta", "40"], "no retained group at beta = 40"),
        (["--min-per-beta", "5000"], "no beta group has 5000 residuals"),
    ])
    def test_no_selected_group_exits_2_before_writing(self, tmp_path, dataset_path, args,
                                                      message, capsys):
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(dataset_path), *args,
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fit_file_uses_the_trace_fit_format(self, tmp_path, dataset_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(jsonio.dumps(glm.fit(glm.load_csv(dataset_path)[0])))
        own, given = tmp_path / "own", tmp_path / "given"
        assert cli.main(["diagnose", "--data", str(dataset_path), "--out", str(own)]) == 0
        assert cli.main(["diagnose", "--data", str(dataset_path), "--fit", str(fit_path),
                         "--out", str(given)]) == 0
        assert (own / "report.json").read_bytes() == (given / "report.json").read_bytes()

    def test_fit_file_with_an_unknown_key_exits_2(self, tmp_path, dataset_path, capsys):
        doc = json.loads(jsonio.dumps(glm.fit(glm.load_csv(dataset_path)[0])))
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps({**doc, "coef_hatt": [9, 9]}))
        out = tmp_path / "d"
        assert cli.main(["diagnose", "--data", str(dataset_path), "--fit", str(bad),
                         "--out", str(out)]) == 2
        assert "coef_hatt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"coef_hat": [1.0, 0.0]}', "[1, 2]", "{not json", *(
        json.dumps({"coef_hat": [-0.5, 0.0], "s2": 0.16, "v_theta": [[1e-3, 0.0], [0.0, 1e-2]],
                    "dof": 3598, **bad})
        for bad in ({"dof": True}, {"dof": 30.7}, {"dof": 0}, {"s2": "0.25"}, {"s2": -0.25},
                    {"s2": None}, {"coef_hat": [-0.5, 0.0, 1.0]}, {"coef_hat": [True, 0.0]},
                    {"coef_hat": [None, 0.0]}, {"v_theta": [[1e-3]]},
                    {"v_theta": [[1e-3, "0"], [0.0, 1e-2]]}, {"s2": 10**400},
                    {"coef_hat": [10**400, 0.0]}))])
    def test_malformed_fit_exits_2(self, tmp_path, dataset_path, text):
        bad = tmp_path / "fit.json"
        bad.write_text(text)
        out = tmp_path / "d"
        assert cli.main(["diagnose", "--data", str(dataset_path), "--fit", str(bad),
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_single_row_groups_write_nothing_to_stderr(self, tmp_path, dataset_path, capsys):
        data, _ = glm.load_csv(dataset_path)
        sparse = tmp_path / "sparse.csv"
        glm.save_csv(glm.LogDataset(np.append(data.beta, [5.0, 7.0]),
                                    np.append(data.s, [1.0, 2.0])), sparse)
        out = tmp_path / "diag"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["diagnose", "--data", str(sparse), "--min-per-beta", "1",
                             "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        first = json.loads((out / "report.json").read_text())["per_beta"][0]
        assert first["count"] == 1 and first["std"] is None

    def test_rounding_level_spread_reports_no_families(self, tmp_path, capsys):
        # s = beta^-0.5 exp(1e-9 z): the residual spread is at the rounding
        # level, where no family can be fitted.
        rng = np.random.default_rng(0)
        beta = np.repeat([10.0, 100.0, 1000.0], 1200)
        s = beta ** -0.5 * np.exp(1e-9 * rng.standard_normal(beta.size))
        path = tmp_path / "tiny.csv"
        glm.save_csv(glm.ingest(zip(beta, s))[0], path)
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["families"] is None
        assert len(report["per_beta"]) == 3
        assert not (out / "histogram.csv").exists()
        assert "family ranking" not in capsys.readouterr().out

    def test_outlier_on_a_tight_slice_caps_the_histogram(self, tmp_path):
        # One 5x outlier among 1,200 values with 1e-4 log-noise: the
        # Freedman-Diaconis width would give about 160,000 bins, and at
        # 1e-9 noise an allocation of 120 GiB.
        rng = np.random.default_rng(0)
        beta = np.repeat([20.0, 60.0, 180.0], 1200)
        s = beta ** -0.5 * np.exp(1e-4 * rng.standard_normal(beta.size))
        s[0] *= 5.0
        path = tmp_path / "outlier.csv"
        glm.save_csv(glm.ingest(zip(beta, s))[0], path)
        out = tmp_path / "diag"
        assert cli.main(["diagnose", "--data", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fit_beta"] == 20.0
        rows = (out / "histogram.csv").read_text().splitlines()[1:]
        assert len(rows) <= 1200
        assert sum(int(row.split(",")[2]) for row in rows) == 1200

    def test_repeat_run_is_byte_identical(self, tmp_path, dataset_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert cli.main(["diagnose", "--data", str(dataset_path), "--out", str(out)]) == 0
        assert (out1 / "groups.csv").read_bytes() == (out2 / "groups.csv").read_bytes()
        assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()

    @pytest.mark.parametrize("problem", [
        problems.gamma_noise(a=-0.5, ln_b=0.2, s0=0.3, shape=4.0),
        synthetic_powerlaw(-0.58, 0.0, 0.25, beta_opt=101.0),
        problems.heteroscedastic(a=-0.5, ln_b=0.0, s0=0.3),
        problems.shifted_lognormal(a=-0.5, ln_b=0.0, eps2=0.16, s0=0.3, shift=0.2),
    ], ids=lambda problem: problem.label)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_artifacts_match_the_oracle_run(self, tmp_path, monkeypatch, capsys, problem, seed):
        # 3 x 1,200 rows, as the benchmark's diagnose datasets.
        rng = np.random.default_rng(seed)
        beta = np.repeat([20.0, 60.0, 180.0], 1200)
        s = np.concatenate([problem.evaluate_statistic(b, rng, 1200) for b in (20.0, 60.0, 180.0)])
        path = tmp_path / "data.csv"
        glm.save_csv(glm.ingest(zip(beta, s))[0], path)
        outs = tmp_path / "new", tmp_path / "oracle"
        assert cli.main(["diagnose", "--data", str(path), "--out", str(outs[0])]) == 0
        oracles.install_diagnose(monkeypatch)
        assert cli.main(["diagnose", "--data", str(path), "--out", str(outs[1])]) == 0
        for name in ("report.json", "groups.csv", "histogram.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestDispatch:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_patched_command_runs_after_the_parser_is_cached(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "missing")
        assert cli.main(["compare", missing, missing]) == 2   # the real command ran
        calls = []

        def fake_compare(args):
            calls.append((args.bo_dir, args.baseline_dir))
            return 0

        monkeypatch.setattr(cli, "cmd_compare", fake_compare)
        assert cli.main(["compare", "bo", "base"]) == 0
        assert calls == [("bo", "base")]

    @pytest.mark.parametrize("method,name", [("golden", "golden_section"),
                                             ("parabolic", "parabolic_interpolation")])
    def test_patched_baseline_optimizer_runs(self, tmp_path, monkeypatch, method, name):
        path = write_config(
            tmp_path / "run.json",
            baseline={"method": method, "mc_samples": 100, "tol": 0.05, "max_iter": 40},
        )
        calls = []
        real = getattr(baselines, name)

        def traced(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, name, traced)
        assert cli.main(["baseline", "--config", str(path), "--threads", "1",
                         "--out", str(tmp_path / "base")]) == 0
        assert calls == [name]

    def test_optimize_writes_through_the_named_trace_writers(self, tmp_path, config_path,
                                                             monkeypatch):
        # The benchmark's traced pass times driver.save_trace and
        # driver.trace_to_csv by replacing them: a command that wrote its
        # trace another way would read 0 ms there.
        calls = []

        def counting(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in ("save_trace", "trace_to_csv"):
            monkeypatch.setattr(driver, name, counting(name, getattr(driver, name)))
        for seed in ("1", "2"):
            assert cli.main(["optimize", "--config", str(config_path), "--seed", seed,
                             "--out", str(tmp_path / seed)]) == 0
        assert calls == ["save_trace", "trace_to_csv"] * 2


class TestUnusableOut:
    """An ``--out`` that names a file is a usage error, raised before any
    command writes or prints anything."""

    @pytest.fixture()
    def argv(self, request, tmp_path, config_path, dataset_path):
        command = request.param
        if command == "compare":
            for run, name in (("optimize", "bo"), ("baseline", "base")):
                assert cli.main([run, "--config", str(config_path),
                                 "--out", str(tmp_path / name)]) == 0
            return ["compare", str(tmp_path / "bo"), str(tmp_path / "base")]
        return {
            "optimize": ["optimize", "--config", str(config_path)],
            "baseline": ["baseline", "--config", str(config_path)],
            "diagnose": ["diagnose", "--data", str(dataset_path)],
            "fixture": ["fixture", "export"],
        }[command]

    @pytest.mark.parametrize("argv", ["optimize", "baseline", "diagnose", "compare", "fixture"],
                             indirect=True)
    def test_out_naming_a_file_exits_2(self, tmp_path, argv, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(taken)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: --out {taken}: cannot make the output directory")
        assert taken.read_text() == "kept\n"


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
