"""Tests for the batch optimization loop and its trace."""

import dataclasses
import json
import math

import numpy as np
import pytest

from scalebo import acquisition, driver, glm, problems
from scalebo.driver import BoConfig
from scalebo.errors import DegenerateExponent, EvaluationFailure


def calibrated_problem(beta_opt=101.0, a=-0.58, ln_b=0.0, eps2=0.25):
    s0 = problems.target_for_optimum(a, ln_b, eps2, beta_opt)
    return problems.synthetic_powerlaw(a, ln_b, eps2, s0)


def config_for(problem, **overrides):
    defaults = dict(beta_min=10.0, beta_max=1000.0, s0=problem.s0, seed=0)
    defaults.update(overrides)
    return BoConfig(**defaults)


def strict_json(path):
    """Parse ``path`` refusing the non-standard NaN/Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def scrub_clocks(trace):
    """Trace dict with wall-clock fields removed (they never reproduce)."""
    doc = driver.trace_to_json_dict(trace)
    doc.pop("wall_clock_seconds")
    for item in doc["iterations"]:
        item.pop("wall_clock")
    return doc


class TestBoConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(beta_min=-1.0),
            dict(beta_min=10.0, beta_max=5.0),
            dict(s0=0.0),
            dict(n0=3),
            dict(batch_size=0),
            dict(max_iterations=0),
            dict(stop_rel_tol=0.0),
            dict(stop_window=0),
            dict(beta_min=2.2, beta_max=2.8, integer_beta=True),
        ],
    )
    def test_invalid_settings(self, overrides):
        settings = dict(beta_min=10.0, beta_max=1000.0, s0=1.0)
        settings.update(overrides)
        with pytest.raises(ValueError):
            BoConfig(**settings)


class TestInitialDesign:
    def test_three_point_log_grid(self):
        design = driver.log_grid(1.0, math.e**2, 3)
        np.testing.assert_allclose(design, [1.0, math.e, math.e**2], rtol=1e-14)

    def test_geometric_progression(self):
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=1.0, n0=40)
        design = driver.initial_design(config)
        assert design.size == 40
        ratios = design[1:] / design[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert design[0] == 10.0 and design[-1] == 1000.0

    def test_integer_rounding_keeps_duplicates(self):
        config = BoConfig(beta_min=2.0, beta_max=300.0, s0=1.0, n0=40, integer_beta=True)
        design = driver.initial_design(config)
        assert design.size == 40
        assert np.all(design == np.rint(design))
        assert np.all((design >= 2.0) & (design <= 300.0))


class TestPointEstimate:
    def test_reference_case(self):
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5, math.log(2.0)]),
            s2=0.1,
            v_theta=np.eye(2),
            dof=10,
        )
        assert driver.point_estimate(fit, 0.5) == pytest.approx(16.0 * math.exp(0.3), rel=1e-12)

    def test_noise_free_line(self):
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5, math.log(2.0)]),
            s2=0.0,
            v_theta=np.eye(2),
            dof=10,
        )
        assert driver.point_estimate(fit, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_exponent_is_degenerate(self):
        fit = glm.GlmFit(coef_hat=np.array([0.0, 1.0]), s2=0.1, v_theta=np.eye(2), dof=10)
        with pytest.raises(DegenerateExponent):
            driver.point_estimate(fit, 1.0)


class TestRun:
    def test_budget_accounting_single_iteration(self):
        prob = calibrated_problem()
        trace = driver.run(config_for(prob, n0=12, batch_size=5, max_iterations=1), prob)
        assert trace.total_evaluations == 17
        assert [rec.cumulative_evaluations for rec in trace.iterations] == [12, 17]
        assert trace.iterations[0].source == "init"
        assert trace.iterations[1].source == "thompson"
        assert len(trace.iterations[1].betas) == 5

    def test_cumulative_count_invariant(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=10, batch_size=4, max_iterations=6, stop_rel_tol=1e-9)
        trace = driver.run(config, prob)
        for t, rec in enumerate(trace.iterations):
            assert rec.cumulative_evaluations == 10 + 4 * t
            assert len(rec.betas) == (10 if t == 0 else 4)

    def test_noise_free_problem_stops_after_one_batch(self):
        prob = problems.synthetic_powerlaw(-0.5, math.log(2.0), 0.0, 0.5)
        config = BoConfig(beta_min=1.0, beta_max=100.0, s0=0.5, n0=10, batch_size=3,
                          max_iterations=10, seed=1)
        trace = driver.run(config, prob)
        assert trace.stop_reason == "degenerate-fit"
        assert trace.total_evaluations == 13
        assert trace.final_estimate == pytest.approx(prob.truth.beta_opt, rel=1e-6)

    def test_fixed_seed_reproduces_trace(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=16, batch_size=4, max_iterations=4, seed=33)
        first = driver.run(config, prob)
        second = driver.run(config, prob)
        assert scrub_clocks(first) == scrub_clocks(second)

    def test_thread_count_does_not_change_results(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=16, batch_size=6, max_iterations=3, seed=9)
        serial = driver.run(config, prob, threads=1)
        parallel = driver.run(config, prob, threads=4)
        assert scrub_clocks(serial) == scrub_clocks(parallel)

    def test_estimates_stay_in_bounds_and_converge(self):
        region = acquisition.optimal_region(
            acquisition.SurrogateObjective(a=-0.58, b=1.0, eps2=0.25,
                                           s0=problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)),
            0.10,
        )
        hits, converged = 0, 0
        for seed in range(6):
            prob = calibrated_problem()
            trace = driver.run(config_for(prob, max_iterations=25, seed=seed), prob)
            assert 10.0 <= trace.final_estimate <= 1000.0
            hits += region[0] <= trace.final_estimate <= region[1]
            converged += trace.stop_reason == "converged"
        assert hits == 6
        assert converged >= 1

    def test_posterior_width_contracts(self):
        # Median (over seeds) credible width of the optimizer posterior must
        # not grow along iterations, allowing 2% float/noise slack, and must
        # contract substantially overall.
        widths = []
        for seed in range(20):
            prob = calibrated_problem()
            config = config_for(prob, max_iterations=12, seed=seed, stop_rel_tol=1e-12)
            trace = driver.run(config, prob)
            widths.append([rec.posterior.width for rec in trace.iterations])
        med = np.median(np.array(widths), axis=0)
        assert np.all(med[1:] <= med[:-1] * 1.02)
        assert med[-1] < 0.6 * med[0]

    def test_simulator_failure_carries_iteration_context(self):
        calls = {"n": 0}

        def flaky(beta, rng):
            calls["n"] += 1
            if calls["n"] > 12:
                raise RuntimeError("solver blew up")
            return math.exp(-0.5 * math.log(beta) + 0.1 * rng.standard_normal())

        prob = problems.ObjectiveProblem(flaky, s0=0.3)
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=0.3, n0=12, batch_size=4,
                          max_iterations=3, seed=0)
        with pytest.raises(EvaluationFailure) as err:
            driver.run(config, prob)
        assert err.value.iteration == 1
        assert err.value.beta is not None

    def test_zero_statistics_are_rejected_and_counted(self):
        inner = calibrated_problem()

        def sometimes_zero(beta, rng):
            value = inner.evaluate_statistic(beta, rng)
            return 0.0 if beta > 900.0 else value

        prob = problems.ObjectiveProblem(sometimes_zero, s0=inner.s0)
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=inner.s0, n0=20,
                          batch_size=4, max_iterations=2, seed=3)
        trace = driver.run(config, prob)
        assert trace.rejected_total >= 1
        assert trace.iterations[0].rejected >= 1
        # Evaluation cost still counts rejected draws.
        assert trace.total_evaluations == 20 + 4 * (len(trace.iterations) - 1)

    def test_integer_mode_rounds_proposals_and_estimate(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=20, batch_size=5, max_iterations=3, seed=2,
                            integer_beta=True)
        trace = driver.run(config, prob)
        for rec in trace.iterations:
            assert all(b == float(int(b)) for b in rec.betas)
        assert trace.final_estimate == float(int(trace.final_estimate))
        assert 10.0 <= trace.final_estimate <= 1000.0


class TestTraceSerialization:
    @pytest.fixture()
    def trace(self):
        prob = calibrated_problem()
        return driver.run(config_for(prob, n0=12, batch_size=4, max_iterations=3, seed=5), prob)

    def test_json_round_trip(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        driver.save_trace(trace, path)
        loaded = driver.load_trace(path)
        assert driver.trace_to_json_dict(loaded) == driver.trace_to_json_dict(trace)
        assert loaded.config == trace.config

    def test_csv_rows_cover_every_observation(self, tmp_path, trace):
        path = tmp_path / "trace.csv"
        driver.trace_to_csv(trace, path)
        rows = driver.load_trace_csv(path)
        assert len(rows) == trace.total_evaluations
        assert {row[3] for row in rows} == {"init", "thompson"}
        for rec in trace.iterations:
            got = [(b, s) for it, b, s, _ in rows if it == rec.index]
            assert got == list(zip(rec.betas, rec.s_values))

    def test_csv_schema_guard(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            driver.load_trace_csv(path)

    def test_unsupported_schema_rejected(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        driver.save_trace(dataclasses.replace(trace, schema="bo-trace/999"), path)
        with pytest.raises(ValueError):
            driver.load_trace(path)

    def test_rejected_statistics_are_null_and_round_trip(self, tmp_path):
        inner = calibrated_problem()

        def sometimes_nan(beta, rng):
            value = inner.evaluate_statistic(beta, rng)
            return math.nan if rng.random() < 0.2 else value

        prob = problems.ObjectiveProblem(sometimes_nan, s0=inner.s0)
        trace = driver.run(config_for(prob, n0=20, batch_size=5, max_iterations=3, seed=3), prob)
        assert trace.rejected_total > 0
        path = tmp_path / "trace.json"
        driver.save_trace(trace, path)
        doc = strict_json(path)
        loaded = driver.load_trace(path)
        assert driver.trace_to_json_dict(loaded) == doc
        nulls = sum(s is None for item in doc["iterations"] for s in item["s_values"])
        assert nulls == trace.rejected_total
        for rec, item in zip(loaded.iterations, doc["iterations"]):
            assert [math.isnan(s) for s in rec.s_values] == [s is None for s in item["s_values"]]

    def test_bare_nan_tokens_still_load(self, tmp_path, trace):
        doc = driver.trace_to_json_dict(trace)
        doc["iterations"][0]["s_values"][0] = math.nan
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, indent=2))   # NaN written as a bare token
        loaded = driver.load_trace(path)
        assert math.isnan(loaded.iterations[0].s_values[0])
        assert loaded.iterations[0].s_values[1:] == trace.iterations[0].s_values[1:]


class TestPosteriorSummary:
    @pytest.mark.parametrize(
        "fit",
        [
            glm.GlmFit(coef_hat=np.array([-0.58, 0.0]), s2=0.25,
                       v_theta=np.array([[0.02, -0.05], [-0.05, 0.2]]), dof=30),
            # Exponent draws of about 1e-12: most are degenerate and skipped,
            # the rest clamp onto a bound.
            glm.GlmFit(coef_hat=np.array([0.0, 0.0]), s2=1.0,
                       v_theta=np.diag([1e-24, 1.0]), dof=30),
        ],
    )
    def test_matches_per_draw_loop(self, fit):
        # Same arithmetic as the array path, except numpy's exp against
        # math's and the quantile interpolation: a fixed multiple of eps.
        rtol = 256 * np.finfo(float).eps
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=0.1)
        summary = driver._posterior_summary(fit, config, np.random.default_rng(8))
        values = []
        for a, ln_b, eps2 in zip(*glm.sample_posterior(fit, driver.SUMMARY_DRAWS,
                                                       np.random.default_rng(8))):
            if abs(a) < acquisition.EXPONENT_TOL:
                continue
            ln_star = (math.log(config.s0) - ln_b - 1.5 * eps2) / a
            if ln_star < math.log(config.beta_min):
                values.append(config.beta_min)
            elif ln_star > math.log(config.beta_max):
                values.append(config.beta_max)
            else:
                values.append(math.exp(ln_star))
        assert 0 < len(values)
        assert summary.draws == len(values)
        want = np.quantile(values, [0.025, 0.5, 0.975])
        got = [summary.q025, summary.q500, summary.q975]
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_sorted_quantiles_equal_numpy_quantile(self):
        # Sizes 1..500, continuous values and values with ties on the
        # clamp bounds, as the summary sees them.
        rng = np.random.default_rng(12)
        probs = [0.025, 0.5, 0.975]
        for n in range(1, 501):
            values = np.exp(rng.uniform(np.log(5.0), np.log(2000.0), n))
            for sample in (values, np.clip(values, 10.0, 1000.0)):
                got = driver._linear_quantiles(sample, probs)
                np.testing.assert_array_equal(got, np.quantile(sample, probs))
