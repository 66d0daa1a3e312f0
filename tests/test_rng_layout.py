"""The rng streams are numpy's own SeedSequence children, in a fixed layout.

``driver.run`` draws record t's statistics, in proposal order, from one
generator: ``default_rng`` of child t of ``SeedSequence(seed).spawn(3)[1]``.
``McObjective`` draws every probe, in order, from one generator on
``SeedSequence(seed, spawn_key=(3,))``.  These tests replay whole runs of
each built-in kind on streams built here from numpy alone, at more than one
(ignored) thread count; they catch any change of stream.
"""

import numpy as np
import pytest

from scalebo import baselines, driver, problems
from scalebo.driver import BoConfig


def calibrated_problem():
    s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
    return problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)


def gamma_noise_problem():
    return problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)


@pytest.fixture(scope="module")
def srom_problem():
    return problems.srom_standin()


def trace_doc(trace):
    """Trace dict without its wall-clock fields."""
    doc = driver.trace_to_json_dict(trace)
    doc.pop("wall_clock_seconds")
    for item in doc["iterations"]:
        item.pop("wall_clock")
    return doc


def record_stream(seed, t):
    """Record t's generator, built from numpy's SeedSequence alone."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1].spawn(t + 1)[t])


def baseline_stream(seed):
    """A baseline run's one generator, built from numpy's SeedSequence alone."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))


def assert_search_replays(problem, mc_samples, bounds, tol, seed):
    """A golden-section run at 1 and 3 threads reads, probe by probe in
    evaluation order, the next draws of the one baseline generator: one
    sized call for a kind that takes ``size``, else one scalar call per
    draw."""
    results = []
    for threads in (1, 3):
        objective = baselines.McObjective(problem=problem, mc_samples=mc_samples, seed=seed,
                                          threads=threads)
        results.append(baselines.golden_section(objective, bounds, tol=tol))
    rng = baseline_stream(seed)
    for p in results[0].probes:
        if problem._takes_size:
            want = problem.evaluate_statistic(p.beta, rng, size=mc_samples)
        else:
            want = [problem.evaluate_statistic(p.beta, rng) for _ in range(mc_samples)]
        assert p.s_draws.tobytes() == np.asarray(want, dtype=float).tobytes()
    assert [p.order for p in results[0].probes] == list(range(len(results[0].probes)))
    for p, q in zip(results[0].probes, results[1].probes, strict=True):
        assert (p.beta, p.order, p.s_draws.tobytes()) == (q.beta, q.order, q.s_draws.tobytes())


class TestIdentity:
    def test_negative_seed_raises_value_error(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError, match="seed"):
            baselines.McObjective(problem=calibrated_problem(), seed=-1)
        with pytest.raises(ValueError, match="seed"):
            BoConfig(beta_min=10.0, beta_max=1000.0, s0=0.3, seed=-1)


class TestReferenceRuns:
    @pytest.mark.parametrize("name", ["calibrated", "gamma-noise", "srom"])
    def test_driver_run(self, name, srom_problem):
        if name == "srom":
            problem, bounds = srom_problem, (3e7, 8e7)
        else:
            problem = calibrated_problem() if name == "calibrated" else gamma_noise_problem()
            bounds = (10.0, 1000.0)
        config = BoConfig(beta_min=bounds[0], beta_max=bounds[1], s0=problem.s0, seed=17,
                          n0=20, batch_size=10, max_iterations=6)
        traces = [driver.run(config, problem, threads=t) for t in (1, 3)]
        assert traces[0].total_evaluations > config.n0
        for t, rec in enumerate(traces[0].iterations):
            rng = record_stream(config.seed, t)
            assert rec.s_values == [problem.evaluate_statistic(beta, rng) for beta in rec.betas]
        assert trace_doc(traces[0]) == trace_doc(traces[1])

    def test_golden_section_sized_calibrated(self):
        assert calibrated_problem()._takes_size
        assert_search_replays(calibrated_problem(), 1000, (10.0, 1000.0), 0.04, 23)

    def test_golden_section_sized_gamma_noise(self):
        assert gamma_noise_problem()._takes_size
        assert_search_replays(gamma_noise_problem(), 1000, (10.0, 1000.0), 0.04, 23)

    def test_golden_section_scalar_srom(self, srom_problem):
        assert not srom_problem._takes_size
        assert_search_replays(srom_problem, 100, (3e7, 8e7), 0.3, 29)
