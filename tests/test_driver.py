"""Tests for the batch optimization loop and its trace."""

import csv
import dataclasses
import itertools
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from oracles import calibrated_problem, fit_from, scrub_clocks, strict_json
from scalebo import acquisition, baselines, driver, glm, jsonio, posterior, problems
from scalebo.driver import BoConfig
from scalebo.errors import EvaluationFailure, RankDeficient, SurrogateOverflow


def config_for(problem, **overrides):
    defaults = dict(beta_min=10.0, beta_max=1000.0, s0=problem.s0, seed=0)
    defaults.update(overrides)
    return BoConfig(**defaults)


def sometimes_nan(inner, share):
    """``inner`` with a share of its statistics replaced by NaN (rejected rows)."""

    def statistic(beta, rng):
        value = inner.evaluate_statistic(beta, rng)
        return math.nan if rng.random() < share else value

    return problems.ObjectiveProblem(statistic, s0=inner.s0)


# Small runs over random seeds: [200, 1000] puts the calibrated optimum
# (101) below the bounds, so boundary flags occur among the examples.
small_runs = dict(
    seed=st.integers(0, 2**32 - 1),
    beta_min=st.sampled_from([10.0, 200.0]),
    n0=st.integers(6, 16),
    batch_size=st.integers(1, 6),
    max_iterations=st.integers(1, 6),
    stop_window=st.integers(1, 3),
)


def budget_of(config):
    """The most evaluations a run of ``config`` may spend."""
    return config.n0 + config.max_iterations * config.batch_size


def assert_batches_within_budget(trace, config):
    """Every Thompson batch holds at least ``batch_size`` proposals, bar a
    last batch that the budget trims, and the run stays within its budget,
    which a ``budget`` stop has spent."""
    sizes = [len(rec.betas) for rec in trace.iterations]
    assert sizes[0] == config.n0
    assert all(size >= config.batch_size for size in sizes[1:-1])
    if trace.stop_reason == "budget" or (len(sizes) > 1 and sizes[-1] < config.batch_size):
        assert trace.total_evaluations == budget_of(config)
    assert trace.total_evaluations == sum(sizes) <= budget_of(config)


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
            dict(seed=-1),
            dict(n0=40.5),
            dict(batch_size=2.5),
            dict(max_iterations=True),
            dict(stop_window=2.5),
            dict(seed=1.0),
            dict(integer_beta="false"),
            dict(integer_beta=1),
            dict(beta_min=True),
            dict(beta_max=np.bool_(True), beta_min=0.5),
            dict(s0=True),
            dict(stop_rel_tol=True),
            dict(beta_min="10"),
            dict(beta_min=9.6, beta_max=10.4, integer_beta=True),
            dict(stop_rel_tol=float("inf")),
        ],
    )
    def test_invalid_settings(self, overrides):
        settings = dict(beta_min=10.0, beta_max=1000.0, s0=1.0)
        settings.update(overrides)
        with pytest.raises(ValueError):
            BoConfig(**settings)

    @pytest.mark.parametrize("make, name", [
        (lambda v: BoConfig(beta_min=10.0, beta_max=1000.0, s0=1.0, stop_rel_tol=v),
         "stop_rel_tol"),
        (lambda v: baselines.McObjective(problem=calibrated_problem(), threads=v), "threads"),
    ], ids=["BoConfig.stop_rel_tol", "McObjective.threads"])
    def test_deprecated_settings_are_checked_but_not_kept(self, make, name):
        kept = make(3)
        assert name not in vars(kept)
        assert name not in {field.name for field in dataclasses.fields(kept)}
        for refused in (0, True, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be .*, got {refused!r}$"):
                make(refused)

    def test_numpy_integers_and_bools_accepted(self):
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=1.0, n0=np.int64(12),
                          batch_size=np.int32(4), seed=np.uint8(3), integer_beta=np.bool_(True))
        assert driver.initial_design(config).size == 12


class TestInitialDesign:
    def test_five_point_log_grid(self):
        config = BoConfig(beta_min=1.0, beta_max=math.e**4, s0=1.0, n0=5)
        design = driver.initial_design(config)
        np.testing.assert_allclose(design, [1.0, math.e, math.e**2, math.e**3, math.e**4],
                                   rtol=1e-14)

    def test_geometric_progression(self):
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=1.0, n0=40)
        design = driver.initial_design(config)
        assert design.size == 40
        ratios = design[1:] / design[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert design[0] == 10.0 and design[-1] == 1000.0

    def test_integer_rounding_keeps_duplicates(self):
        # Bare rounding took the non-integer bounds' endpoints to 10 and 1000.
        for beta_min, beta_max in ((2.0, 300.0), (10.4, 999.6)):
            config = BoConfig(beta_min=beta_min, beta_max=beta_max, s0=1.0, n0=40,
                              integer_beta=True)
            design = driver.initial_design(config)
            assert design.size == 40
            assert np.all(design == np.rint(design))
            assert np.all((design >= beta_min) & (design <= beta_max))


class TestPointEstimate:
    """The run's plug-in estimate, with bounds wide enough not to bind."""

    bounds = (1e-3, 1e6)

    def test_reference_case(self):
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5, math.log(2.0)]),
            s2=0.1,
            v_theta=np.eye(2),
            dof=10,
        )
        estimate = posterior.point_estimate(fit, 0.5, self.bounds)
        assert estimate == pytest.approx(16.0 * math.exp(0.3), rel=1e-12)

    def test_noise_free_line(self):
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5, math.log(2.0)]),
            s2=0.0,
            v_theta=np.eye(2),
            dof=10,
        )
        assert posterior.point_estimate(fit, 2.0, self.bounds) == pytest.approx(1.0, rel=1e-12)

    def test_zero_exponent_is_degenerate(self):
        # ln beta* = (0 - 1 - 0.15) / +-0 = -+inf: the bound the sign of a picks.
        for a_hat, bound in ((0.0, self.bounds[0]), (-0.0, self.bounds[1])):
            fit = glm.GlmFit(coef_hat=np.array([a_hat, 1.0]), s2=0.1, v_theta=np.eye(2), dof=10)
            assert posterior.point_estimate(fit, 1.0, self.bounds) == bound
        # A constant plug-in objective, 0 / 0: every beta is a minimizer.
        fit = glm.GlmFit(coef_hat=np.array([0.0, 0.0]), s2=0.0, v_theta=np.eye(2), dof=10)
        assert math.isnan(posterior.point_estimate(fit, 1.0, self.bounds))


class TestRun:
    @pytest.mark.parametrize("threads", [0, -1, 2.0, "2", True, None])
    def test_threads_must_be_an_integer_at_least_one(self, threads):
        prob = calibrated_problem()
        with pytest.raises(ValueError, match=f"got {threads!r}"):
            driver.run(config_for(prob, max_iterations=1), prob, threads=threads)

    def test_a_config_target_other_than_the_problems_is_refused_before_any_draw(self):
        calls = []
        prob = problems.ObjectiveProblem(lambda beta, rng: calls.append(beta) or 1.0, s0=0.5)
        with pytest.raises(ValueError, match="^config s0 1.0 is not the problem's target s0 0.5$"):
            driver.run(config_for(prob, s0=2 * prob.s0), prob)
        assert calls == []

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
        config = config_for(prob, n0=10, batch_size=4, max_iterations=6, stop_window=7)
        trace = driver.run(config, prob)
        sizes = [len(rec.betas) for rec in trace.iterations]
        assert [rec.cumulative_evaluations for rec in trace.iterations] == \
            list(itertools.accumulate(sizes))
        assert_batches_within_budget(trace, config)

    def test_noise_free_problem_stops_at_the_initial_fit(self):
        prob = problems.synthetic_powerlaw(-0.5, math.log(2.0), 0.0, 0.5)
        config = BoConfig(beta_min=1.0, beta_max=100.0, s0=0.5, n0=10, batch_size=3,
                          max_iterations=10, seed=1)
        trace = driver.run(config, prob)
        assert trace.stop_reason == "degenerate-fit"
        assert trace.total_evaluations == 10
        assert len(trace.iterations) == 1
        assert trace.final_estimate == pytest.approx(acquisition.argmin_closed_form(prob.truth)[0],
                                                     rel=1e-6)

    def test_noise_free_flat_problem_stops_unidentified_on_a_bound(self):
        # s = 1 at every beta against s0 = 2: an exact fit with a_hat = 0.
        prob = problems.synthetic_powerlaw(0.0, 0.0, 0.0, 2.0)
        trace = driver.run(config_for(prob, n0=10), prob)
        assert (trace.stop_reason, trace.flag) == ("degenerate-fit", "unidentified")
        assert trace.total_evaluations == 10
        assert trace.final_estimate in (10.0, 1000.0)

    def test_flat_problem_of_tiny_noise_runs_as_at_moderate_noise(self):
        # At eps2 = 1e-18 the posterior of a is about 1e-9 wide, and draws
        # with |a| < 1e-12 propose a bound like any other far optimizer.
        # Each run stops where the same seed stops at eps2 = 1e-14.
        def outcomes(eps2):
            prob = problems.synthetic_powerlaw(0.0, 0.0, eps2, 2.0)
            traces = [driver.run(config_for(prob, n0=40, seed=seed), prob) for seed in range(40)]
            return [(t.stop_reason, t.flag, t.total_evaluations) for t in traces]

        assert outcomes(1e-18) == outcomes(1e-14)

    def test_fixed_seed_reproduces_trace(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=16, batch_size=4, max_iterations=4, seed=33)
        first = driver.run(config, prob)
        second = driver.run(config, prob)
        assert scrub_clocks(first) == scrub_clocks(second)

    def test_thread_count_does_not_change_results(self):
        # threads is accepted and read by nothing: statistics are serial.
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
        # contract substantially overall.  Runs end on their evaluation
        # budget after differing numbers of records; the first 7 are
        # compared, and a run that spent its budget in fewer keeps its last
        # width.  The last-to-first ratio of the medians is about 0.48 with
        # a spread of about 0.02 over disjoint sets of 200 seeds (0.06 over
        # sets of 20), so 200 seeds hold the bound whatever the streams.
        widths = []
        prob = calibrated_problem()
        for seed in range(200):
            config = config_for(prob, max_iterations=12, seed=seed, stop_window=13)
            trace = driver.run(config, prob)
            width = [rec.posterior.q975 - rec.posterior.q025 for rec in trace.iterations[:7]]
            widths.append(width + width[-1:] * (7 - len(width)))
        med = np.median(np.array(widths), axis=0)
        assert np.all(med[1:] <= med[:-1] * 1.02)
        assert med[-1] < 0.6 * med[0]

    def test_flat_problem_is_never_falsely_converged(self):
        # a = 0: f is the same at every beta.  The drift rule called such
        # runs converged at 10 or 1000 with a beta* interval of [10, 1000].
        # A run may stop as converged only where its posterior says a != 0
        # and has collapsed onto a bound; otherwise it runs to its budget
        # and names a as unidentified.
        prob = problems.synthetic_powerlaw(0.0, 0.0, 0.25, 1.0)
        outcomes = []
        for seed in range(3):
            trace = driver.run(config_for(prob, seed=seed), prob)
            last = trace.iterations[-1].posterior
            outcomes.append((trace.stop_reason, trace.flag))
            assert trace.flag is not None
            if trace.flag == "unidentified":
                assert not last.a_identified
                assert trace.stop_reason == "budget"
                assert trace.total_evaluations == 40 + 25 * 10
            else:
                assert last.a_identified
                assert last.q025 == last.q975 == trace.final_estimate
        assert ("budget", "unidentified") in outcomes

    def test_optimum_below_bounds_converges_on_the_bound(self):
        # The calibrated optimum (101) lies below [200, 1000]: the beta*
        # interval collapses onto 200, and the flag names the bound.
        prob = calibrated_problem()
        for seed in range(3):
            trace = driver.run(config_for(prob, beta_min=200.0, seed=seed), prob)
            assert trace.stop_reason == "converged"
            assert trace.final_estimate == 200.0
            assert trace.flag == "boundary-min"
            assert trace.total_evaluations <= 70

    def test_calibrated_runs_take_few_rounds(self):
        # Batches sized from the shortfall cut a calibrated C4 run from a
        # median of 7 records (10 proposals per batch) to 4, at about the
        # same evaluation count and hit rate.
        prob = calibrated_problem()
        region = acquisition.optimal_region_from(-0.58, 0.0, 0.25, prob.s0, 0.10)
        traces = [driver.run(config_for(prob, seed=seed), prob) for seed in range(50)]
        assert statistics.median(len(t.iterations) for t in traces) <= 5
        assert statistics.median(t.total_evaluations for t in traces) <= 115
        assert sum(region[0] <= t.final_estimate <= region[1] for t in traces) >= 47

    @settings(max_examples=25, deadline=None)
    @given(**small_runs)
    def test_batches_are_at_least_batch_size_within_the_budget(
        self, seed, beta_min, n0, batch_size, max_iterations, stop_window
    ):
        prob = calibrated_problem()
        config = config_for(prob, seed=seed, beta_min=beta_min, n0=n0, batch_size=batch_size,
                            max_iterations=max_iterations, stop_window=stop_window)
        trace = driver.run(config, prob)
        assert len(trace.iterations) <= max_iterations + 1
        assert_batches_within_budget(trace, config)

    @settings(max_examples=25, deadline=None)
    @given(**small_runs)
    def test_stopped_run_is_a_prefix_of_the_unstopped_run(
        self, seed, beta_min, n0, batch_size, max_iterations, stop_window
    ):
        prob = calibrated_problem()
        config = config_for(prob, seed=seed, beta_min=beta_min, n0=n0, batch_size=batch_size,
                            max_iterations=max_iterations, stop_window=stop_window)
        stopped = scrub_clocks(driver.run(config, prob))["iterations"]
        unstopped = driver.run(dataclasses.replace(config, stop_window=max_iterations + 1), prob)
        assert stopped == scrub_clocks(unstopped)["iterations"][:len(stopped)]

    @settings(max_examples=15, deadline=None)
    @given(**small_runs)
    def test_thread_count_never_changes_the_trace(
        self, seed, beta_min, n0, batch_size, max_iterations, stop_window
    ):
        prob = calibrated_problem()
        config = config_for(prob, seed=seed, beta_min=beta_min, n0=n0, batch_size=batch_size,
                            max_iterations=max_iterations, stop_window=stop_window)
        assert scrub_clocks(driver.run(config, prob, threads=1)) == \
            scrub_clocks(driver.run(config, prob, threads=3))

    @pytest.mark.parametrize("sized", [True, False], ids=["sized-kind", "size-less-callable"])
    def test_record_t_reads_child_t_of_the_evaluation_stream(self, sized):
        # Record t's statistics are scalar calls, in proposal order, on one
        # generator: child t of SeedSequence(seed).spawn(3)[1].  So a
        # record's draws depend only on the seed and t.
        prob = calibrated_problem()
        if not sized:
            inner = prob.evaluate_statistic
            prob = dataclasses.replace(prob, evaluate_statistic=lambda beta, rng: inner(beta, rng))
            assert not prob._takes_size
        seed = 21
        config = config_for(prob, stop_window=26, seed=seed)
        trace = driver.run(config, prob)
        assert len(trace.iterations) >= 3
        for t, rec in enumerate(trace.iterations):
            child = np.random.SeedSequence(seed).spawn(3)[1].spawn(t + 1)[t]
            rng = np.random.default_rng(child)
            assert rec.s_values == [prob.evaluate_statistic(beta, rng) for beta in rec.betas]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_simulator_failure_carries_iteration_context(self, threads):
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=0.3, n0=12, batch_size=4,
                          max_iterations=3, seed=0)
        design = set(driver.initial_design(config).tolist())

        def flaky(beta, rng):  # fails at every Thompson proposal
            if beta not in design:
                raise RuntimeError("solver blew up")
            return math.exp(-0.5 * math.log(beta) + 0.1 * rng.standard_normal())

        prob = problems.ObjectiveProblem(flaky, s0=0.3)
        with pytest.raises(EvaluationFailure, match=r"\(iteration 1\): solver blew up") as err:
            driver.run(config, prob, threads=threads)
        assert err.value.iteration == 1
        assert err.value.beta is not None

    def test_clustered_bounds_raise_rank_deficient(self):
        # An even design over [1e8, 1e8 (1 + 3e-7)] passes the rank test,
        # but V_theta has no Cholesky factor in floating point.  The fit
        # refuses it, rather than leave the sampler to fail inside the run.
        prob = calibrated_problem()
        config = config_for(prob, beta_min=1e8, beta_max=1e8 * (1 + 3e-7),
                            n0=12, batch_size=4, max_iterations=3)
        with pytest.raises(RankDeficient, match="clustered"):
            driver.run(config, prob)

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
        assert trace.total_evaluations == sum(len(rec.betas) for rec in trace.iterations)

    def test_integer_mode_rounds_proposals_and_estimate(self):
        prob = calibrated_problem()
        config = config_for(prob, n0=20, batch_size=5, max_iterations=3, seed=2,
                            integer_beta=True)
        trace = driver.run(config, prob)
        for rec in trace.iterations:
            assert all(b == float(int(b)) for b in rec.betas)
        assert trace.final_estimate == float(int(trace.final_estimate))
        assert 10.0 <= trace.final_estimate <= 1000.0

    @pytest.mark.parametrize("beta,expected", [(10.5, 11.0), (10.7, 11.0), (20.5, 20.0), (99.4, 20.0)])
    def test_integer_rounding_clamps_to_floats(self, beta, expected):
        # Rounding 10.5 to even gives 10, below the bounds; the clamp must
        # still hand back a float, which the trace CSV writes as "11.0".
        config = config_for(calibrated_problem(), beta_min=10.5, beta_max=20.5, integer_beta=True)
        rounded = problems.round_into_bounds(beta, config.bounds)
        assert type(rounded) is float
        assert rounded == expected


class TestDecide:
    """``decide`` on hand-built records, with no run.  The plug-in optimum
    of every fit lies at beta* = 100 within bounds [10, 1000] (see
    ``test_posterior.TestStopReading``), and the budget is 40 + 25 * 10."""

    config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=math.exp(-0.5 * math.log(100.0) + 0.375))

    def record(self, reading, evaluations):
        lo, hi = acquisition.optimal_region_from(-0.5, 0.0, 0.25, self.config.s0,
                                                 posterior.STOP_REGION_REL, self.config.bounds)
        mid = math.sqrt(lo * hi)
        gap = math.log(mid / lo)
        s2, dof, p_a_positive, quantiles = {
            "exact": (0.0, 30, 0.0, (lo, mid, hi)),
            "settled": (0.25, 30, 0.0, (lo, mid, hi)),
            "unidentified": (0.25, 30, 0.5, (lo, mid, hi)),
            "median-on-an-edge": (0.25, 30, 0.0, (mid, hi, hi * 1.5)),
            # room 1/2 with n = dof + 2 = 33 rows: a shortfall of 3 n = 99.
            "shortfall-99": (0.25, 31, 0.0, (mid * math.exp(-2 * gap), mid,
                                             mid * math.exp(1.5 * gap))),
        }[reading]
        fit = glm.GlmFit(coef_hat=np.array([-0.5, 0.0]), s2=s2,
                         v_theta=np.array([[0.01, 0.0], [0.0, 1.0]]), dof=dof)
        summary = posterior.PosteriorSummary(*quantiles, p_a_positive=p_a_positive)
        return driver.IterationRecord(index=0, source="init", betas=[], s_values=[], rejected=0,
                                      fit=fit, beta_hat=100.0, posterior=summary,
                                      cumulative_evaluations=evaluations, wall_clock=0.0)

    @pytest.mark.parametrize("reading,streak,evaluations,want", [
        ("exact", 0, 40, (0, "degenerate-fit", 0)),
        ("unidentified", 0, 40, (0, None, 10)),
        ("median-on-an-edge", 0, 40, (0, None, 250)),
        ("shortfall-99", 0, 40, (0, None, 50)),
        ("shortfall-99", 0, 270, (0, None, 20)),
        ("unidentified", 0, 285, (0, None, 5)),
        ("unidentified", 0, 290, (0, "budget", 0)),
        ("unidentified", 1, 50, (0, None, 10)),
        ("settled", 0, 40, (1, None, 10)),
        ("settled", 1, 50, (2, "converged", 0)),
        ("settled", 1, 290, (2, "converged", 0)),
    ], ids=["degenerate-fit-at-record-0", "unidentified-gives-batch_size",
            "infinite-shortfall-gives-the-rest-of-the-budget", "half-shortfall-rounds-up",
            "half-shortfall-cut-to-the-rest", "batch_size-cut-to-the-rest",
            "exactly-on-the-budget-stops", "unsettled-resets-the-streak",
            "settled-extends-the-streak", "window-of-settled-records-converges",
            "convergence-comes-before-the-budget"])
    def test_table(self, reading, streak, evaluations, want):
        assert driver.decide(self.config, self.record(reading, evaluations), streak) == want

    @pytest.mark.parametrize("window,want", [(4, "converged"), (5, "budget")])
    def test_only_a_window_above_the_most_records_turns_the_stop_off(self, window, want):
        # max_iterations = 3 batches of batch_size after the initial design:
        # at most 4 records, so only a window of 5 or more turns the stop off.
        config = dataclasses.replace(self.config, max_iterations=3, stop_window=window)
        streak, reasons = 0, []
        for t in range(4):
            streak, reason, _ = driver.decide(config, self.record("settled", 40 + 10 * t),
                                              streak)
            reasons.append(reason)
        assert reasons == [None, None, None, want]


# name -> the law of a replayed run in bounds [10, 1000], log-centre 100.
REPLAY_LAWS = {
    "calibrated": lambda: calibrated_problem(),
    "off-centre": lambda: calibrated_problem(beta_opt=20.0),
    "optimum-below-the-bounds": lambda: calibrated_problem(beta_opt=3.0),
    "eps2-4": lambda: calibrated_problem(eps2=4.0),
    "flat": lambda: problems.synthetic_powerlaw(0.0, 0.0, 0.25, 1.0),
    "gamma-k2": lambda: problems.gamma_noise(a=-0.5, ln_b=0.2, shape=2.0, s0=0.3),
}


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(sorted(REPLAY_LAWS)), run_seed=st.integers(0, 2**32 - 1),
       n0=st.integers(6, 48), batch_size=st.integers(1, 12), max_iterations=st.integers(1, 12),
       stop_window=st.integers(1, 6))
def test_folding_decide_over_a_saved_trace_replays_its_decisions(
    tmp_path_factory, law, run_seed, n0, batch_size, max_iterations, stop_window
):
    # Every record but the last goes on with the next record's batch size;
    # the last gives the trace's stop reason.
    prob = REPLAY_LAWS[law]()
    config = config_for(prob, seed=run_seed, n0=n0, batch_size=batch_size,
                        max_iterations=max_iterations, stop_window=stop_window)
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    driver.save_trace(driver.run(config, prob), path)
    trace = driver.load_trace(path)
    streak, records = 0, trace.iterations
    for record, after in zip(records, records[1:] + [None]):
        streak, reason, size = driver.decide(trace.config, record, streak)
        assert (reason, size) == ((None, len(after.betas)) if after else (trace.stop_reason, 0))


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

    def test_writers_write_the_current_values(self, tmp_path, trace):
        # A record's lists are plain lists: a second save after a caller
        # changed one writes the new value to both files.
        json_path, csv_path = tmp_path / "trace.json", tmp_path / "trace.csv"
        driver.save_trace(trace, json_path)
        driver.trace_to_csv(trace, csv_path)
        trace.iterations[0].s_values[0] = 12.5
        trace.iterations[0].betas[1] = 77.25
        driver.save_trace(trace, json_path)
        driver.trace_to_csv(trace, csv_path)
        first = driver.load_trace(json_path).iterations[0]
        assert first.s_values[0] == 12.5 and first.betas[1] == 77.25
        rows = driver.load_trace_csv(csv_path)
        assert rows[0][2] == 12.5 and rows[1][1] == 77.25

    def test_strict_parse_is_the_dict_of_the_trace_and_of_its_load(self, tmp_path, trace):
        # perfbench's check of every optimize run, on statistics that hold
        # NaN, +inf and -inf: the file writes each as null, and its strict
        # parse is the trace's dict before and after load_trace.
        first = trace.iterations[0]
        broken = dataclasses.replace(trace, iterations=[
            dataclasses.replace(first, s_values=[math.nan, math.inf, -math.inf,
                                                 *first.s_values[3:]]),
            *trace.iterations[1:]])
        path = tmp_path / "trace.json"
        driver.save_trace(broken, path)
        doc = strict_json(path)
        assert doc["iterations"][0]["s_values"][:3] == [None, None, None]
        assert doc == driver.trace_to_json_dict(broken)
        assert doc == driver.trace_to_json_dict(driver.load_trace(path))

    def test_csv_bytes_match_csv_writer_reference(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, 101.0, 1 / 3]
        # One-row blocks, many-row blocks of one beta (as the baseline
        # writes, one per probe), blocks of one beta per row (as
        # trace_to_csv writes, one per record), and empty blocks.
        blocks = [(i, b, [s], source) for i, (b, s) in enumerate(zip(values, reversed(values)))
                  for source in ("init", "mc-probe")]
        blocks += [(len(values) + i, b, values[i:] + values[:i], "mc-probe")
                   for i, b in enumerate(values)]
        blocks += [(50, values, values[::-1], "thompson"), (51, tuple(values[:3]), values[4:7], "init"),
                   (52, [10, 20.5], [1.5, 2.5], "init")]
        blocks += [(99, 1.0, [], "mc-probe"), (100, [], [], "thompson")]
        # A list's value is written by repr (block 52's int beta as 10), a
        # scalar float by repr(float(v)).
        rows = [(i, repr(b) if isinstance(beta, (list, tuple)) else repr(float(b)), repr(s), source)
                for i, beta, s_values, source in blocks
                for b, s in zip(beta if isinstance(beta, (list, tuple)) else [beta] * len(s_values),
                                s_values)]
        assert (52, "10", "1.5", "init") in rows
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(driver.TRACE_CSV_HEADER)
            writer.writerows(rows)
        path = tmp_path / "trace.csv"
        jsonio.write_csv(path, driver.TRACE_CSV_HEADER, blocks)
        assert path.read_bytes() == reference.read_bytes()
        loaded = driver.load_trace_csv(path)
        assert [(i, repr(b), repr(s), src) for i, b, s, src in loaded] == \
            [(i, repr(float(b)), s, src) for i, b, s, src in rows]

    def test_csv_schema_guard(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            driver.load_trace_csv(path)
        # A short row and a non-number field name the file and the line.
        for body, line in (("0,10.0,1.0,init\n1,20.0\n", 3), ("0,abc,1.0,init\n", 2)):
            path.write_text("iteration,beta,s,source\n" + body)
            with pytest.raises(ValueError, match=f"junk.csv: line {line}: "):
                driver.load_trace_csv(path)

    def test_unsupported_schema_rejected(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        driver.save_trace(dataclasses.replace(trace, schema="bo-trace/999"), path)
        with pytest.raises(ValueError):
            driver.load_trace(path)

    def test_rejected_statistics_are_null_and_round_trip(self, tmp_path):
        prob = sometimes_nan(calibrated_problem(), 0.2)
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

    def test_no_estimate_is_null_and_reads_as_nan(self, tmp_path):
        # s = 1 = s0 at every beta: the plug-in objective is constant.
        prob = problems.synthetic_powerlaw(0.0, 0.0, 0.0, 1.0)
        trace = driver.run(config_for(prob, n0=10), prob)
        path = tmp_path / "trace.json"
        driver.save_trace(trace, path)
        doc = strict_json(path)
        assert doc["final_estimate"] is None and doc["iterations"][0]["beta_hat"] is None
        quantiles = ("q025", "q500", "q975")
        assert [doc["iterations"][0]["posterior"][q] for q in quantiles] == [None] * 3
        loaded = driver.load_trace(path)
        summary = loaded.iterations[0].posterior
        assert math.isnan(loaded.final_estimate) and math.isnan(loaded.iterations[0].beta_hat)
        assert all(math.isnan(getattr(summary, q)) for q in quantiles)
        assert driver.trace_to_json_dict(loaded) == doc

    def test_bare_nan_tokens_are_refused(self, tmp_path, trace):
        # save_trace writes a NaN as null; a bare NaN token is no trace's.
        doc = driver.trace_to_json_dict(trace)
        doc["iterations"][0]["s_values"][0] = math.nan
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, indent=2))   # NaN written as a bare token
        with pytest.raises(ValueError, match=r"old.json: iterations.0.s_values.0: expected float"):
            driver.load_trace(path)


    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(final_estimate=10**400),
        lambda doc: doc["iterations"][0].update(beta_hat=True),
        lambda doc: doc["iterations"][0]["posterior"].update(q025="x"),
        lambda doc: doc["iterations"][0]["betas"].__setitem__(1, "x"),
        lambda doc: doc.update(wall_clock_seconds="x"),
        lambda doc: doc["iterations"][0]["s_values"].__setitem__(0, math.inf),
    ], ids=["final_estimate-10**400", "beta_hat-true", "q025-x", "betas-x", "wall_clock_seconds-x",
            "s_values-Infinity"])
    def test_non_number_raises_naming_the_file(self, tmp_path, trace, corrupt):
        doc = driver.trace_to_json_dict(trace)
        corrupt(doc)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="trace.json"):
            driver.load_trace(path)

    # Counts and strings are read by their field types too.
    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(total_evaluations="x"),
        lambda doc: doc.update(rejected_total=-1.5),
        lambda doc: doc["iterations"][0].update(cumulative_evaluations=True),
        lambda doc: doc["iterations"][0].update(index="x"),
        lambda doc: doc["iterations"][0]["fit"].update(dof=2.5),
        lambda doc: doc.update(stop_reason=7),
        lambda doc: doc["iterations"][-1].update(source=7),
        lambda doc: doc.update(flag=7),
        lambda doc: doc.update(problem_label=None),
        lambda doc: doc.update(iterations={}),
    ], ids=["total_evaluations-x", "rejected_total-1.5", "cumulative_evaluations-true",
            "index-x", "dof-2.5", "stop_reason-7", "source-7", "flag-7", "problem_label-null",
            "iterations-object"])
    def test_mistyped_field_raises_naming_the_file(self, tmp_path, trace, corrupt):
        doc = driver.trace_to_json_dict(trace)
        corrupt(doc)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="trace.json"):
            driver.load_trace(path)

    @pytest.mark.parametrize("doc", [[], "bo-trace/1", None], ids=["array", "string", "null"])
    def test_non_object_raises_naming_the_file(self, tmp_path, doc):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="trace.json"):
            driver.load_trace(path)

    def test_bo_trace_1_files_are_refused(self, tmp_path, trace):
        # A bo-trace/1 file, as the earlier writer laid it out: its schema,
        # and a draws count in each posterior summary.  It is refused by
        # name; re-running its config writes a bo-trace/2 trace.
        doc = {**driver.trace_to_json_dict(trace), "schema": "bo-trace/1"}
        for item in doc["iterations"]:
            item["posterior"] = {**item["posterior"], "draws": posterior.SUMMARY_DRAWS}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as refusal:
            driver.load_trace(path)
        assert str(refusal.value) == f"{path}: unsupported trace schema 'bo-trace/1'"

    def test_written_records_hold_no_draws_count(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        driver.save_trace(trace, path)
        doc = strict_json(path)
        assert doc["schema"] == "bo-trace/2"
        assert all("draws" not in item["posterior"] for item in doc["iterations"])

    def test_json_keys_are_the_dataclass_fields_in_order(self, trace):
        def names(cls):
            return [field.name for field in dataclasses.fields(cls)]

        doc = driver.trace_to_json_dict(trace)
        assert list(doc) == names(driver.BoTrace)
        assert list(doc["config"]) == names(BoConfig)
        for item in doc["iterations"]:
            assert list(item) == names(driver.IterationRecord)
            assert list(item["fit"]) == names(glm.GlmFit)
            assert list(item["posterior"]) == names(posterior.PosteriorSummary)

    @pytest.mark.parametrize("where", ["top", "record", "config", "fit"])
    def test_unknown_key_raises(self, tmp_path, trace, where):
        doc = driver.trace_to_json_dict(trace)
        {"top": doc, "record": doc["iterations"][-1], "config": doc["config"],
         "fit": doc["iterations"][-1]["fit"]}[where]["extra"] = 1
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TypeError, match="extra"):
            driver.load_trace(path)

    # A dataclass's own checks refuse these; the refusal names the file
    # and the field.
    @pytest.mark.parametrize("corrupt, where, error", [
        (lambda doc: doc["config"].update(beta_min=2000.0), "config: ", ValueError),
        (lambda doc: doc["iterations"][-1]["fit"]["coef_hat"].append(0.0),
         r"iterations\.\d+\.fit: ", ValueError),
        (lambda doc: doc["iterations"][-1].update(extra=1), r"iterations\.\d+: ", TypeError),
    ], ids=["beta_min-above-beta_max", "coef_hat-3-entries", "unknown-key"])
    def test_dataclass_refusal_names_the_file(self, tmp_path, trace, corrupt, where, error):
        doc = driver.trace_to_json_dict(trace)
        corrupt(doc)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=r"trace\.json: " + where):
            driver.load_trace(path)

    @pytest.mark.parametrize("override", [{"integer_beta": np.True_}, {"n0": np.int64(10)}])
    def test_numpy_scalars_in_the_config_round_trip(self, tmp_path, override):
        prob = calibrated_problem()
        config = config_for(prob, beta_min=10.5, beta_max=200.5, batch_size=4, max_iterations=2,
                            **override)
        trace = driver.run(config, prob)
        path = tmp_path / "trace.json"
        driver.save_trace(trace, path)
        doc = strict_json(path)
        loaded = driver.load_trace(path)
        assert driver.trace_to_json_dict(loaded) == doc
        assert loaded.config == trace.config

    # At least 12 initial rows, so that a 20% rejection still leaves a fit.
    @settings(max_examples=25, deadline=None)
    @given(**{**small_runs, "n0": st.integers(12, 16)}, nan_share=st.sampled_from([0.0, 0.2]))
    def test_round_trip_is_exact(self, tmp_path_factory, seed, beta_min, n0, batch_size,
                                 max_iterations, stop_window, nan_share):
        prob = sometimes_nan(calibrated_problem(), nan_share)
        config = config_for(prob, seed=seed, beta_min=beta_min, n0=n0, batch_size=batch_size,
                            max_iterations=max_iterations, stop_window=stop_window)
        trace = driver.run(config, prob)
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        driver.save_trace(trace, path)
        doc = strict_json(path)
        assert doc["flag"] == trace.flag
        assert driver.trace_to_json_dict(driver.load_trace(path)) == driver.trace_to_json_dict(trace) == doc


class TestPosteriorSummary:
    @pytest.mark.parametrize(
        "fit",
        [
            glm.GlmFit(coef_hat=np.array([-0.58, 0.0]), s2=0.25,
                       v_theta=np.array([[0.02, -0.05], [-0.05, 0.2]]), dof=30),
            # Exponent draws of about 1e-12: every draw clamps onto a bound.
            glm.GlmFit(coef_hat=np.array([0.0, 0.0]), s2=1.0,
                       v_theta=np.diag([1e-24, 1.0]), dof=30),
        ],
    )
    def test_matches_per_draw_loop(self, fit):
        # Same arithmetic as the array path, except numpy's exp against
        # math's and the quantile interpolation: a fixed multiple of eps.
        rtol = 256 * np.finfo(float).eps
        config = BoConfig(beta_min=10.0, beta_max=1000.0, s0=0.1)
        summary = posterior.summarize(fit, config.s0, config.bounds, np.random.default_rng(8))
        values = []
        for a, ln_b, eps2 in zip(*glm.sample_posterior(fit, posterior.SUMMARY_DRAWS,
                                                       np.random.default_rng(8))):
            ln_star = (math.log(config.s0) - ln_b - 1.5 * eps2) / a
            if ln_star < math.log(config.beta_min):
                values.append(config.beta_min)
            elif ln_star > math.log(config.beta_max):
                values.append(config.beta_max)
            else:
                values.append(math.exp(ln_star))
        assert len(values) == posterior.SUMMARY_DRAWS
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
                got = oracles.linear_quantiles(sample, probs)
                np.testing.assert_array_equal(got, np.quantile(sample, probs))


# ---------------------------------------------------------------------------
# The record's float and order-statistic paths against their array oracles


# Slopes include +-0 and |a| of 1e-12 and below, with a spread of a (l00)
# down to 1e-13, so some or all draws' ln beta* are huge or infinite;
# narrow bounds far from beta* clamp every draw.
record_fits = dict(
    a=st.sampled_from([0.0, -0.0, 1e-12, -5e-13]) | st.floats(-3.0, 3.0),
    ln_b=st.floats(-5.0, 5.0),
    s2=st.sampled_from([0.0]) | st.floats(1e-4, 4.0),
    root=st.tuples(st.sampled_from([1e-13, 1e-12, 1e-6, 0.05, 1.0]),
                   st.floats(-3.0, 3.0), st.floats(0.01, 3.0)),
    dof=st.integers(1, 200),
    ln_s0=st.floats(-10.0, 10.0),
    beta_min=st.sampled_from([1e-3, 1.0, 10.0, 3e7]),
    ratio=st.sampled_from([1.5, 100.0, 1e4]),
)


def same(x, y):
    """``x == y`` with NaN equal to NaN: a float's repr is its exact value."""
    return repr(x) == repr(y)


class TestRecordOracles:
    @settings(max_examples=300, deadline=None)
    @given(**record_fits, seed=st.integers(0, 2**32 - 1))
    def test_summary_equals_array_oracle(self, a, ln_b, s2, root, dof, ln_s0, beta_min,
                                         ratio, seed):
        fit = fit_from(a, ln_b, s2, root, dof)
        config = BoConfig(beta_min=beta_min, beta_max=beta_min * ratio, s0=math.exp(ln_s0))
        where = (config.s0, config.bounds)
        new = posterior.summarize(fit, *where, np.random.default_rng(seed))
        old = oracles.posterior_summary(fit, *where, np.random.default_rng(seed))
        assert same(new, old)

    def test_summary_oracle_covers_degenerate_and_clamped_draws(self):
        where = (0.1, (10.0, 15.0))   # s0, bounds
        # Exponent draws of about 1e-12, and of about 1e-30: each ln beta*
        # is beyond +-1e11 and clamps onto the bound its sign picks.
        for l00 in (1e-12, 1e-30):
            flat = fit_from(0.0, 0.0, 1.0, (l00, 0.0, 1.0), 30)
            summary = posterior.summarize(flat, *where, np.random.default_rng(3))
            assert (summary.q025, summary.q975) == where[1]
            assert summary == oracles.posterior_summary(flat, *where, np.random.default_rng(3))
        # beta* far above the bounds: every draw clamps onto beta_max.
        clamped = fit_from(-0.5, 0.0, 0.01, (0.01, 0.0, 0.01), 30)
        summary = posterior.summarize(clamped, *where, np.random.default_rng(3))
        assert summary.q025 == summary.q975 == 15.0
        assert summary == oracles.posterior_summary(clamped, *where, np.random.default_rng(3))

    @settings(max_examples=300, deadline=None)
    @given(**record_fits, seed=st.integers(0, 2**32 - 1))
    def test_point_estimate_and_region_equal_array_oracles(self, a, ln_b, s2, root, dof, ln_s0,
                                                           beta_min, ratio, seed):
        fit = fit_from(a, ln_b, s2, root, dof)
        config = BoConfig(beta_min=beta_min, beta_max=beta_min * ratio, s0=math.exp(ln_s0))
        where = (config.s0, config.bounds)
        assert same(posterior.point_estimate(fit, *where), oracles.point_estimate(fit, *where))
        region = (fit.a_hat, fit.ln_b_hat, fit.s2, config.s0, posterior.STOP_REGION_REL,
                  config.bounds)
        summary = oracles.posterior_summary(fit, *where, np.random.default_rng(seed))
        settled = (lambda *args: posterior.stop_reading(*args)[0], oracles.settled)
        if math.isfinite(acquisition.log_argmin_float(fit.a_hat, fit.ln_b_hat, fit.s2, config.s0)):
            assert same(acquisition.optimal_region_from(*region),
                        oracles.optimal_region_from(*region))
            assert same(*(fn(fit, summary, *where) for fn in settled))
            return
        # ln beta* is +-inf (a_hat = +-0, or below 1e-307): no region, and
        # settled reads one only where a is identified, which a_hat = +-0 never is.
        for fn in (acquisition.optimal_region_from, oracles.optimal_region_from):
            with pytest.raises(SurrogateOverflow):
                fn(*region)
        if summary.a_identified:
            for fn in settled:
                with pytest.raises(SurrogateOverflow):
                    fn(fit, summary, *where)
        else:
            assert [fn(fit, summary, *where) for fn in settled] == [False, False]

    @settings(max_examples=300, deadline=None)
    @given(**record_fits, seed=st.integers(0, 2**32 - 1))
    def test_stop_reading_equals_array_oracle(self, a, ln_b, s2, root, dof, ln_s0, beta_min,
                                              ratio, seed):
        fit = fit_from(a, ln_b, s2, root, dof)
        config = BoConfig(beta_min=beta_min, beta_max=beta_min * ratio, s0=math.exp(ln_s0))
        where = (config.s0, config.bounds)
        summary = posterior.summarize(fit, *where, np.random.default_rng(seed))
        try:
            want = oracles.stop_reading(fit, summary, *where)
        except SurrogateOverflow:
            with pytest.raises(SurrogateOverflow):
                posterior.stop_reading(fit, summary, *where)
            return
        settled, shortfall = posterior.stop_reading(fit, summary, *where)
        assert settled is want[0]
        assert shortfall == pytest.approx(want[1], rel=1e-12)

    @pytest.mark.parametrize("name", ["calibrated", "gamma-noise", "srom", "integer_beta"])
    def test_whole_runs_equal_oracle_runs(self, name, monkeypatch):
        if name == "srom":
            problem, bounds = problems.srom_standin(), (3e7, 8e7)
        elif name == "gamma-noise":
            problem = problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)
            bounds = (10.0, 1000.0)
        else:
            problem, bounds = calibrated_problem(), (10.0, 1000.0)
        configs = [BoConfig(beta_min=bounds[0], beta_max=bounds[1], s0=problem.s0, seed=seed,
                            n0=20, batch_size=10, max_iterations=25,
                            integer_beta=name == "integer_beta")
                   for seed in range(4 if name == "srom" else 12)]
        new = [scrub_clocks(driver.run(config, problem)) for config in configs]
        oracles.install(monkeypatch)
        old = [scrub_clocks(driver.run(config, problem)) for config in configs]
        assert {doc["stop_reason"] for doc in old} >= {"converged"}
        assert new == old
