"""The BO record's array pass has the bits of the per-call forms it replaced.

A Thompson batch's statistics come from one ``batch`` call of a built-in
kind, its proposals from one array clamp, and each record's posterior
draws, fit and rows from in-place array steps.  Each property below checks
one of these against its earlier form in :mod:`oracles`, bit for bit, on
this process's own numpy dispatch and BLAS kernels: the manifest's digests
are made under baseline loops only, and cannot see a change that holds
there alone.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import fit_from
from scalebo import acquisition, driver, glm, problems
from scalebo.errors import EvaluationFailure

# Each built-in kind that takes ``batch``, built from hypothesis draws of
# its law's parameters.
KINDS = {
    "synthetic-powerlaw": st.builds(
        lambda a, ln_b, eps2: problems.synthetic_powerlaw(a, ln_b, eps2, s0=1.0),
        st.floats(-2.0, 2.0), st.floats(-5.0, 5.0), st.floats(0.0, 4.0)),
    "gamma-noise": st.builds(
        lambda a, ln_b, shape: problems.gamma_noise(a, ln_b, s0=1.0, shape=shape),
        st.floats(-2.0, 2.0), st.floats(-5.0, 5.0), st.floats(0.1, 50.0)),
    "heteroscedastic": st.builds(
        lambda a, ln_b, base, slope: problems.heteroscedastic(a, ln_b, 1.0, base, slope),
        st.floats(-2.0, 2.0), st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
    "shifted-lognormal": st.builds(
        lambda a, ln_b, eps2, shift: problems.shifted_lognormal(a, ln_b, eps2, 1.0, shift),
        st.floats(-2.0, 2.0), st.floats(-5.0, 5.0), st.floats(0.0, 4.0),
        st.sampled_from([0.0, 0, 1]) | st.floats(0.0, 10.0)),
}

# One problem of each kind, with C4's gamma-noise law where it has one.
EXAMPLES = {
    "synthetic-powerlaw": problems.synthetic_powerlaw(-0.58, 0.0, 0.25, beta_opt=101.0),
    "gamma-noise": problems.gamma_noise(-0.5, 0.2, 0.3, shape=4.0),
    "heteroscedastic": problems.heteroscedastic(-0.5, 0.2, 0.3),
    "shifted-lognormal": problems.shifted_lognormal(-0.58, 0.0, 0.25, 0.2, shift=0.01),
}

# Betas of C4's bounds [10, 1000], as floats and as integers, with the
# bounds themselves and integers inside them.
BETAS = st.lists(st.sampled_from([10, 1000, 10.0, 1000.0]) | st.integers(10, 1000)
                 | st.floats(10.0, 1000.0), max_size=40)


def hexes(values):
    return [float(v).hex() for v in values]


def calls_of(problem):
    """``problem`` behind a ``functools.wraps`` wrapper that logs each
    call's keywords, as a tracing wrapper would."""
    calls, statistic = [], problem.evaluate_statistic

    @functools.wraps(statistic)
    def logged(beta, rng, **keywords):
        calls.append(sorted(keywords))
        return statistic(beta, rng, **keywords)

    return problems.ObjectiveProblem(logged, s0=problem.s0), calls


class TestBatchStatistic:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), betas=BETAS, seed=st.integers(0, 2**32 - 1))
    def test_a_batch_has_the_bits_of_one_scalar_call_per_beta(self, kind, data, betas, seed):
        problem = data.draw(KINDS[kind])
        assert problem._takes_batch
        batch_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = problems.draw_statistics(problem, betas, batch_rng)
        want = oracles.draw_per_beta(problem, betas, loop_rng)
        assert all(type(value) is float for value in got)
        assert hexes(got) == hexes(want)
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_wrapped_statistic_keeps_its_batch_form(self, kind):
        problem = EXAMPLES[kind]
        logged, calls = calls_of(problem)
        assert logged._takes_batch and logged._takes_size
        betas = [20.0, 333.0, 20, 999.5]
        got = problems.draw_statistics(logged, betas, np.random.default_rng(3), iteration=2)
        assert calls == [["batch"]]
        assert hexes(got) == hexes(oracles.draw_per_beta(problem, betas,
                                                         np.random.default_rng(3)))

    @pytest.mark.parametrize("form", ["size-only", "no-keywords", "kwargs-unwrapped"])
    def test_a_wrapper_that_cannot_pass_batch_gets_scalar_calls(self, form):
        # Through functools.wraps a wrapper shows the signature of the
        # statistic it wraps, batch included, but one naming only size, or
        # no keyword, cannot pass batch on; a **kwargs callable wrapping
        # nothing does not say what it forwards.  Each gets one scalar
        # call per beta, in a driver record too, with the same bits.
        problem = EXAMPLES["synthetic-powerlaw"]
        statistic, calls = problem.evaluate_statistic, []
        if form == "size-only":
            @functools.wraps(statistic)
            def wrapper(beta, rng, size=None):
                calls.append(size)
                return statistic(beta, rng, size=size)
        elif form == "no-keywords":
            @functools.wraps(statistic)
            def wrapper(beta, rng):
                calls.append(None)
                return statistic(beta, rng)
        else:
            def wrapper(beta, rng, **keywords):
                calls.append(keywords.get("size"))
                return statistic(beta, rng, **keywords)
        wrapped = problems.ObjectiveProblem(wrapper, s0=problem.s0)
        assert not wrapped._takes_batch
        assert wrapped._takes_size is (form == "size-only")
        config = driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=problem.s0, seed=4)
        got, want = driver.run(config, wrapped), driver.run(config, problem)
        assert calls == [None] * got.total_evaluations
        assert [hexes(record.s_values) for record in got.iterations] \
            == [hexes(record.s_values) for record in want.iterations]
        assert got.final_estimate.hex() == want.final_estimate.hex()

    @pytest.mark.parametrize("kind, betas, bad, message", [
        ("synthetic-powerlaw", [20.0, 1000.0, 30.0], 1000.0, "math range error"),
        ("shifted-lognormal", [20.0, 1000.0, 30.0], 1000.0, "math range error"),
        ("heteroscedastic", [20.0, 1000.0, 30.0], 1000.0, "math range error"),
        ("heteroscedastic", [20.0, 0.5, 30.0], 0.5, "heteroscedastic kind is defined for beta > 1"),
        ("gamma-noise", [20.0, -3.0, 30.0], -3.0, "beta must be a finite number > 0"),
        ("synthetic-powerlaw", [20.0, math.nan], math.nan, "beta must be a finite number > 0"),
    ])
    def test_a_failing_beta_of_a_batch_is_named(self, kind, betas, bad, message):
        # exp(704 + ln beta + sigma z) is beyond float range at beta = 1000
        # unless z is about -1 or below, and at beta = 20 only for z above
        # about 2.8: with seed 1 the second draw fails, and the first not.
        problem = {
            "synthetic-powerlaw": lambda: problems.synthetic_powerlaw(1.0, 704.0, 1.0, s0=1.0),
            "shifted-lognormal": lambda: problems.shifted_lognormal(1.0, 704.0, 1.0, 1.0, 0.5),
            "heteroscedastic": lambda: problems.heteroscedastic(1.0, 704.0, 1.0),
            "gamma-noise": lambda: problems.gamma_noise(1.0, 0.0, 1.0),
        }[kind]()
        logged, calls = calls_of(problem)
        with pytest.raises(EvaluationFailure, match=f"at beta={bad:g} \\(iteration 7\\): "
                                                    f"{message}") as err:
            problems.draw_statistics(logged, betas, np.random.default_rng(1), iteration=7)
        assert calls == [["batch"]]
        assert err.value.iteration == 7
        assert repr(err.value.beta) == repr(bad)
        # One scalar call per beta fails at the same beta, with the same message.
        per_beta = problems.ObjectiveProblem(
            lambda beta, rng: problem.evaluate_statistic(beta, rng), s0=1.0)
        with pytest.raises(EvaluationFailure) as scalar_err:
            problems.draw_statistics(per_beta, betas, np.random.default_rng(1), iteration=7)
        assert str(scalar_err.value) == str(err.value)

    def test_a_batch_that_returns_too_few_values_is_a_failure(self):
        def statistic(beta, rng, batch=None):
            if batch is None:
                return 1.0
            batch.extend([1.0] * (len(beta) - 1))

        problem = problems.ObjectiveProblem(statistic, s0=1.0)
        with pytest.raises(EvaluationFailure, match="at beta=30: batch of 3 betas returned 2"):
            problems.draw_statistics(problem, [10.0, 20.0, 30.0], np.random.default_rng(0))

    def test_a_driver_record_is_one_batch_call(self):
        problem, calls = calls_of(problems.synthetic_powerlaw(-0.58, 0.0, 0.25, beta_opt=101.0))
        config = driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=problem.s0, seed=3)
        trace = driver.run(config, problem)
        assert calls == [["batch"]] * len(trace.iterations)


# Log bounds snapped onto, a few ulps either side, and values far outside.
def near(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


BOUNDS = (st.tuples(st.integers(1, 1000), st.integers(1, 10**6)).map(lambda p: (p[0], p[0] + p[1]))
          | st.tuples(st.floats(1e-3, 1e3), st.floats(1.0 + 1e-9, 1e4)).map(
              lambda p: (p[0], p[0] * p[1])))


class TestArrayClamp:
    @settings(max_examples=400, deadline=None)
    @given(bounds=BOUNDS, data=st.data())
    def test_the_array_clamp_has_the_bits_of_the_scalar_clamp(self, bounds, data):
        ln_lo, ln_hi = math.log(bounds[0]), math.log(bounds[1])
        entry = (st.sampled_from([-math.inf, math.inf, math.nan, 0.0, -0.0])
                 | st.floats(allow_nan=False)
                 | st.floats(ln_lo - 1.0, ln_hi + 1.0)
                 | st.tuples(st.sampled_from([ln_lo, ln_hi]), st.integers(-3, 3)).map(
                     lambda p: near(*p)))
        ln_beta = data.draw(st.lists(entry, max_size=30))
        array = np.array(ln_beta, dtype=float)
        got, clamped = acquisition.clamp_log_array(array, bounds)
        assert hexes(got) == hexes([acquisition.clamp_log_float(x, bounds) for x in ln_beta])
        assert clamped == sum(x < ln_lo or x > ln_hi for x in ln_beta)
        assert hexes(array) == hexes(ln_beta)   # the input is left as it was

    @settings(max_examples=200, deadline=None)
    @given(a_hat=st.sampled_from([0.0, 1e-13]) | st.floats(-5.0, 5.0),
           ln_b=st.floats(-30.0, 30.0), s2=st.floats(1e-4, 4.0),
           root=st.tuples(st.sampled_from([1e-13, 1e-3, 0.05, 1.0]), st.floats(-3.0, 3.0),
                          st.floats(0.01, 3.0)),
           dof=st.integers(1, 200), s0=st.floats(1e-3, 1e3), bounds=BOUNDS,
           size=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_a_thompson_batch_has_the_bits_of_the_per_proposal_clamp(
            self, a_hat, ln_b, s2, root, dof, s0, bounds, size, seed):
        fit = fit_from(a_hat, ln_b, s2, root, dof)
        got = acquisition.thompson_batch(fit, s0, size, bounds, np.random.default_rng(seed))
        want = oracles.thompson_batch(fit, s0, size, bounds, np.random.default_rng(seed))
        assert hexes(got.betas) == hexes(want.betas)
        assert all(type(beta) is float for beta in got.betas)
        assert got.clamped_count == want.clamped_count


class TestPosteriorArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(a_hat=st.floats(-5.0, 5.0), ln_b=st.floats(-30.0, 30.0),
           s2=st.sampled_from([1e-300, 1e-24]) | st.floats(1e-4, 4.0),
           root=st.tuples(st.sampled_from([1e-13, 1e-3, 0.05, 1.0]), st.floats(-3.0, 3.0),
                          st.floats(0.01, 3.0)),
           dof=st.integers(1, 300), count=st.sampled_from([1, 2, 500]) | st.integers(1, 600),
           seed=st.integers(0, 2**32 - 1))
    def test_posterior_draws_have_the_bits_of_the_block_form(self, a_hat, ln_b, s2, root,
                                                             dof, count, seed):
        fit = fit_from(a_hat, ln_b, s2, root, dof)
        got = glm.sample_posterior(fit, count, np.random.default_rng(seed))
        want = oracles.sample_posterior(fit, count, np.random.default_rng(seed))
        for new, old in zip(got, want, strict=True):
            assert new.shape == (count,)
            assert new.tobytes() == old.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(center=st.floats(-10.0, 20.0), spread=st.sampled_from([1e-9, 1e-3]) | st.floats(0.01, 5.0),
           n=st.integers(3, 300), a=st.floats(-3.0, 3.0), eps=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_a_fit_has_the_bits_of_the_array_form(self, center, spread, n, a, eps, seed):
        rng = np.random.default_rng(seed)
        beta = np.exp(center + spread * rng.uniform(-1.0, 1.0, n))
        s = np.exp(a * np.log(beta) + eps * rng.standard_normal(n))
        data, _ = glm.ingest(np.array((beta, s)).T)
        try:
            want = oracles.fit(data)
        except glm.RankDeficient:
            with pytest.raises(glm.RankDeficient):
                glm.fit(data)
            return
        got = glm.fit(data)
        for name in ("coef_hat", "v_theta", "cholesky"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.s2.hex(), got.dof) == (want.s2.hex(), want.dof)


class TestRowBlock:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from([0.0, -1.0, math.inf, math.nan, 5e-324]) | st.floats(1e-3, 1e6),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.floats(1e-6, 1e3)),
        max_size=30), clean=st.booleans())
    def test_a_block_of_rows_ingests_as_tuples_do(self, rows, clean):
        if clean:
            rows = [(abs(b) if 0 < abs(b) < math.inf else 2.0, abs(s) if 0 < abs(s) < math.inf
                     else 3.0) for b, s in rows]
        block = np.array(rows, dtype=float).reshape(-1, 2).T.copy()   # (2, n), as the driver's
        got, rejected = glm.ingest(block.T)
        want, want_rejected = oracles.ingest(rows)
        assert rejected == want_rejected
        assert got.beta.tobytes() == want.beta.tobytes()
        assert got.s.tobytes() == want.s.tobytes()
        assert got.beta.flags.c_contiguous and got.s.flags.c_contiguous
        if rejected == 0 and rows:   # the columns are kept, not copied
            assert np.shares_memory(got.beta, block) and np.shares_memory(got.s, block)
