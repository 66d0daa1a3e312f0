"""Tests for the Monte-Carlo 1-D optimization baselines."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalebo import acquisition, baselines, problems
from scalebo.baselines import GOLDEN, McObjective
from scalebo.errors import EvaluationFailure, SurrogateOverflow

# np.exp and math.exp may differ by one ulp, so draws of the exp-based kinds
# agree across the sized and scalar paths to this relative tolerance.
SIZED_RTOL = 2 * np.finfo(float).eps


def noiseless_problem(beta_opt=101.0, a=-0.58):
    s0 = problems.target_for_optimum(a, 0.0, 0.0, beta_opt)
    return problems.synthetic_powerlaw(a, 0.0, 0.0, s0)


def calibrated_problem():
    s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
    return problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)


def recording(problem, log):
    """``problem`` with its statistic wrapped to append ``(size, rng
    state)`` to ``log`` before each call; the signature is kept."""

    @functools.wraps(problem.evaluate_statistic)
    def statistic(beta, rng, size=None):
        log.append((size, rng.bit_generator.state))
        return problem.evaluate_statistic(beta, rng, size=size)

    return dataclasses.replace(problem, evaluate_statistic=statistic)


def quadratic_problem(vertex_u=2.0, floor=0.5):
    """Deterministic statistic whose MC objective is an exact parabola in ln beta."""

    def statistic(beta, rng):
        u = math.log(beta)
        return 1.0 + math.sqrt((u - vertex_u) ** 2 + floor)

    return problems.ObjectiveProblem(statistic, s0=1.0)


class TestMoments:
    # Sizes up to three probes' worth of draws, magnitudes from 1e-150 to
    # 1e150, and constant arrays.
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
        lo=st.integers(-150, 150),
        decades=st.integers(0, 300),
        constant=st.booleans(),
    )
    def test_same_bits_as_mean_and_std(self, n, seed, lo, decades, constant):
        rng = np.random.default_rng(seed)
        hi = min(lo + decades, 150)
        g = 10.0 ** rng.uniform(lo, hi, n)
        if constant:
            g[:] = g[0]
        assert baselines._moments(g.copy()) == oracles.probe_moments(g)

    @pytest.mark.parametrize("mc_samples", [1, 2, 300, 1000])
    def test_probe_reports_the_moments_of_its_squared_errors(self, mc_samples):
        prob = calibrated_problem()
        stats = McObjective(problem=prob, mc_samples=mc_samples, seed=6).probe(64.0)
        assert (stats.mean, stats.se) == oracles.probe_moments((stats.s_draws - prob.s0) ** 2)


class TestMcObjective:
    def test_deterministic_problem_is_exact(self):
        prob = noiseless_problem()
        obj = McObjective(problem=prob, mc_samples=7, seed=0)
        value = obj.probe(50.0).mean
        expected = (50.0**-0.58 - prob.s0) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_cache_prevents_recounting(self):
        obj = McObjective(problem=calibrated_problem(), mc_samples=100, seed=1)
        first = obj.probe(80.0).mean
        used = obj.evaluations_used
        second = obj.probe(80.0).mean
        assert second == first
        assert obj.evaluations_used == used == 100

    def test_audited_cost_is_exact(self):
        obj = McObjective(problem=calibrated_problem(), mc_samples=250, seed=2)
        for beta in (20.0, 40.0, 20.0, 333.0, 40.0):
            obj.probe(beta)
        assert obj.evaluations_used == 250 * 3
        assert len(obj.probes) == 3

    def test_matches_analytic_objective_at_optimum(self):
        # The analytic induced objective is the oracle for the MC mean.
        prob = calibrated_problem()
        truth = prob.truth
        obj = McObjective(problem=prob, mc_samples=1_000_000, seed=3)
        stats = obj.probe(truth.beta_opt)
        analytic = acquisition.evaluate(
            acquisition.SurrogateObjective(a=truth.a, b=truth.b, eps2=truth.eps2, s0=prob.s0),
            truth.beta_opt,
        )
        assert abs(stats.mean - analytic) <= 3.0 * stats.se

    @pytest.mark.parametrize("statistic", [
        problems.synthetic_powerlaw(1.0, 400.0, 1.0, beta_opt=100.0).evaluate_statistic,
        lambda beta, rng: 1e200 * (1.0 + rng.random()),   # finite draws, squares beyond float
        lambda beta, rng: math.nan,
        lambda beta, rng: math.inf,
    ], ids=["ln_b-400", "huge-draws", "nan-draws", "inf-draws"])
    def test_probe_refuses_a_mean_or_error_that_is_no_number(self, statistic):
        # Whether the draws or only their squared errors leave float range,
        # the probe names beta, raises no numpy warning (pytest makes one an
        # error), and caches and counts nothing.
        obj = McObjective(problem=problems.ObjectiveProblem(statistic, s0=1.0), mc_samples=64)
        with pytest.raises(SurrogateOverflow,
                           match=r"^Monte-Carlo objective at beta=58\.07 is not a finite number"):
            obj.probe(58.07)
        assert obj.probes == [] and obj.evaluations_used == 0

    @pytest.mark.parametrize("threads", [0, -1, 2.0, "2", True, None])
    def test_threads_must_be_an_integer_at_least_one(self, threads):
        with pytest.raises(ValueError, match=f"got {threads!r}"):
            McObjective(problem=calibrated_problem(), threads=threads)

    def test_thread_count_does_not_change_draws(self):
        # threads is accepted and read by nothing: draws are serial.
        serial = McObjective(problem=calibrated_problem(), mc_samples=500, seed=4, threads=1)
        threaded = McObjective(problem=calibrated_problem(), mc_samples=500, seed=4, threads=4)
        np.testing.assert_array_equal(
            serial.probe(64.0).s_draws, threaded.probe(64.0).s_draws
        )

    @settings(max_examples=40, deadline=None)
    @given(mc_samples=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1))
    def test_probes_read_one_stream_in_order(self, mc_samples, seed):
        # One sized call per probe, each on the next draws of one generator
        # on the baseline's seed branch; a repeated beta draws nothing.
        prob = calibrated_problem()
        log = []
        obj = McObjective(problem=recording(prob, log), mc_samples=mc_samples, seed=seed)
        betas = [64.0, 20.0, 64.0, 500.0]
        draws = [obj.probe(beta).s_draws for beta in betas]
        assert [size for size, _ in log] == [mc_samples] * 3
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
        reference = [prob.evaluate_statistic(beta, rng, size=mc_samples)
                     for beta in (64.0, 20.0, 500.0)]
        for got, want in zip([draws[0], draws[1], draws[3]], reference):
            np.testing.assert_array_equal(got, want)
        assert draws[2] is draws[0]

    def test_a_size_less_statistic_reads_the_stream_per_draw(self):
        # A callable without size is called once per draw, in order, on the
        # same one generator.
        prob = calibrated_problem()
        obj = McObjective(problem=scalar_only(prob), mc_samples=7, seed=3)
        got = [obj.probe(beta).s_draws for beta in (30.0, 300.0)]
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(3,)))
        want = [[prob.evaluate_statistic(beta, rng) for _ in range(7)] for beta in (30.0, 300.0)]
        np.testing.assert_array_equal(got, want)

    def test_streams_are_not_bo_streams(self):
        # driver.run draws from children 0-2 of SeedSequence(seed): the
        # acquisition stream, the parent of the evaluation streams and the
        # summary stream.  No baseline probe starts from any of those
        # states, nor from a state an evaluation read.
        import scalebo

        seed, log = 11, []
        prob = recording(calibrated_problem(), log)
        config = scalebo.BoConfig(beta_min=10.0, beta_max=1000.0, s0=prob.s0, n0=10,
                                  max_iterations=1, seed=seed)
        scalebo.run(config, prob)
        bo = [state for _, state in log]
        bo += [np.random.default_rng(child).bit_generator.state
               for child in np.random.SeedSequence(seed).spawn(3)]
        log.clear()
        obj = McObjective(problem=prob, mc_samples=100, seed=seed)
        for beta in (50.0, 60.0, 70.0):
            obj.probe(beta)
        assert len(log) == 3
        assert [state in bo for _, state in log] == [False] * 3


def gamma_noise_problem():
    return problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)


def scalar_only(problem):
    """``problem`` with a statistic callable that takes no ``size``."""

    def statistic(beta, rng):
        return problem.evaluate_statistic(beta, rng)

    return dataclasses.replace(problem, evaluate_statistic=statistic)


class TestSizedStatistic:
    @pytest.mark.parametrize("make", [calibrated_problem, gamma_noise_problem])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_sized_and_scalar_paths_agree(self, make, threads):
        prob = make()
        sized = McObjective(problem=prob, mc_samples=300, seed=9, threads=threads)
        scalar = McObjective(problem=scalar_only(prob), mc_samples=300, seed=9, threads=threads)
        for beta in (20.0, 64.0, 20.0, 500.0):
            sized.probe(beta)
            scalar.probe(beta)
        assert sized.evaluations_used == scalar.evaluations_used == 900
        assert [p.beta for p in sized.probes] == [p.beta for p in scalar.probes] == [20.0, 64.0, 500.0]
        for p, q in zip(sized.probes, scalar.probes):
            assert p.order == q.order
            np.testing.assert_allclose(p.s_draws, q.s_draws, rtol=SIZED_RTOL, atol=0.0)

    def test_one_call_per_probe_through_a_wrapper(self):
        prob = calibrated_problem()
        sizes = []

        @functools.wraps(prob.evaluate_statistic)
        def counted(*args, **kwargs):
            sizes.append(kwargs.get("size"))
            return prob.evaluate_statistic(*args, **kwargs)

        obj = McObjective(problem=dataclasses.replace(prob, evaluate_statistic=counted),
                          mc_samples=1068, seed=9)
        obj.probe(64.0)
        obj.probe(80.0)
        assert sizes == [1068, 1068]
        assert obj.evaluations_used == 2 * 1068

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "output",
        [lambda size: np.ones(3), lambda size: 1.0, lambda size: np.ones((size, 1))],
        ids=["short", "scalar", "column"],
    )
    def test_wrong_shape_raises_naming_beta(self, output, threads):
        def statistic(beta, rng, size=None):
            return 1.0 if size is None else output(size)

        obj = McObjective(problem=problems.ObjectiveProblem(statistic, s0=1.0),
                          mc_samples=200, threads=threads)
        with pytest.raises(EvaluationFailure, match="beta=42") as err:
            obj.probe(42.0)
        assert err.value.beta == 42.0
        assert obj.evaluations_used == 0


class TestGoldenSection:
    def test_noiseless_unimodal_converges(self):
        prob = noiseless_problem()
        obj = McObjective(problem=prob, mc_samples=3, seed=0)
        result = baselines.golden_section(obj, (10.0, 1000.0), tol=0.01)
        assert result.beta_hat == pytest.approx(101.0, rel=0.01)
        assert result.stop_reason == "bracket"

    def test_bracket_shrinks_by_golden_ratio(self):
        obj = McObjective(problem=noiseless_problem(), mc_samples=1, seed=0)
        steps = baselines._golden_steps(lambda u: obj.probe(math.exp(u)).mean,
                                        math.log(10.0), math.log(1000.0))
        widths = [hi - lo for lo, hi in itertools.islice(steps, 12)]
        assert widths[0] == pytest.approx(math.log(100.0), rel=1e-12)
        for prev, cur in zip(widths, widths[1:]):
            assert cur / prev == pytest.approx(GOLDEN, rel=1e-9)

    def test_noisy_run_costs_about_a_dozen_probes(self):
        # With 1000 draws per probe, total cost lands at the order of
        # 12,000 evaluations (within +-50%).
        obj = McObjective(problem=calibrated_problem(), mc_samples=1000, seed=5)
        result = baselines.golden_section(obj, (10.0, 1000.0), tol=0.04)
        assert 6000 <= result.evaluations_used <= 18_000
        assert result.evaluations_used == 1000 * len(result.probes)

    def test_budget_exhaustion_stops(self):
        obj = McObjective(problem=noiseless_problem(), mc_samples=1, seed=6)
        result = baselines.golden_section(obj, (10.0, 1000.0), tol=1e-9, max_iter=5)
        assert result.stop_reason == "budget"
        assert len(result.probes) == 5
        best = min(result.probes, key=lambda p: p.mean)
        assert (result.beta_hat, result.f_hat) == (best.beta, best.mean)

    def test_integer_mode_probes_integers(self):
        obj = McObjective(problem=calibrated_problem(), mc_samples=50, seed=7)
        result = baselines.golden_section(obj, (10.0, 1000.0), tol=0.05, integer_beta=True)
        assert all(p.beta == float(int(p.beta)) for p in result.probes)

    def test_agrees_with_surrogate_optimizer_on_shared_region(self):
        # Both estimators must land in the same 10% optimal region of the
        # calibrated problem (numeric equality is not expected).
        import scalebo

        prob = calibrated_problem()
        truth = prob.truth
        region = acquisition.optimal_region(
            acquisition.SurrogateObjective(a=truth.a, b=truth.b, eps2=truth.eps2, s0=prob.s0),
            0.10,
        )
        config = scalebo.BoConfig(beta_min=10.0, beta_max=1000.0, s0=prob.s0, seed=0)
        bo_estimate = scalebo.run(config, prob).final_estimate
        obj = McObjective(problem=prob, mc_samples=1000, seed=1000)
        gs_estimate = baselines.golden_section(obj, (10.0, 1000.0), tol=0.04).beta_hat
        assert region[0] <= bo_estimate <= region[1]
        assert region[0] <= gs_estimate <= region[1]


class TestParabolicInterpolation:
    def test_exact_parabola_converges_in_few_steps(self):
        obj = McObjective(problem=quadratic_problem(vertex_u=2.0), mc_samples=1, seed=0)
        result = baselines.parabolic_interpolation(obj, (1.0, math.e**5), tol=1e-6)
        assert result.stop_reason == "converged"
        assert math.log(result.beta_hat) == pytest.approx(2.0, abs=1e-6)
        # three bracketing probes plus at most three parabolic steps
        assert len(result.probes) <= 6

    def test_agrees_with_golden_section_on_noiseless_problem(self):
        prob = noiseless_problem()
        golden = baselines.golden_section(
            McObjective(problem=prob, mc_samples=1, seed=1), (10.0, 1000.0), tol=0.01
        )
        parab = baselines.parabolic_interpolation(
            McObjective(problem=prob, mc_samples=1, seed=1), (10.0, 1000.0), tol=0.01
        )
        assert parab.beta_hat == pytest.approx(golden.beta_hat, rel=0.02)

    def test_probes_never_leave_current_bracket(self):
        obj = McObjective(problem=calibrated_problem(), mc_samples=200, seed=8)
        probed = []

        def probe(u):
            probed.append(u)
            return obj.probe(math.exp(u)).mean

        bracket = (math.log(10.0), math.log(1000.0))
        steps = baselines._parabolic_steps(probe, *bracket, tol=0.02)
        checked = 0
        while bracket[1] - bracket[0] > 0.02:
            first = len(probed)
            following = next(steps, None)
            assert all(bracket[0] <= u <= bracket[1] for u in probed[first:])
            checked += len(probed) - first
            if following is None:
                break
            bracket = following
        assert checked >= 6

    def test_budget_exhaustion_stops(self):
        obj = McObjective(problem=noiseless_problem(), mc_samples=1, seed=6)
        result = baselines.parabolic_interpolation(obj, (10.0, 1000.0), tol=1e-9, max_iter=5)
        assert result.stop_reason == "budget"
        assert len(result.probes) == 5


class TestSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(["golden_section", "parabolic_interpolation"]),
        slope=st.sampled_from([-0.58, 0.0]),
        tol=st.floats(min_value=1e-6, max_value=2.0),
        max_iter=st.integers(min_value=3, max_value=40),
        mc_samples=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_run_stops_with_a_named_reason(self, method, slope, tol, max_iter,
                                                 mc_samples, seed):
        # Parabolic interpolation probes a triple before its first stop
        # check, so its runs spend at least three probes whatever max_iter.
        prob = problems.synthetic_powerlaw(slope, 0.0, 0.25, 1.0)
        obj = McObjective(problem=prob, mc_samples=mc_samples, seed=seed)
        result = getattr(baselines, method)(obj, (10.0, 1000.0), tol=tol, max_iter=max_iter)
        assert result.stop_reason in {"bracket", "noise-floor", "budget", "converged"}
        assert not (method == "golden_section" and result.stop_reason == "converged")
        assert len(result.probes) <= max(max_iter, 3)
        if result.stop_reason == "budget":
            assert len(result.probes) == max_iter
        assert result.evaluations_used == mc_samples * len(result.probes)
        assert min(p.mean for p in result.probes) == result.f_hat
