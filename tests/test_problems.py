"""Tests for the synthetic simulators and the static structural fixture.

The fixture's reference distance 0.0015032718191897864 was recorded at
first build after two independent norm implementations agreed to 1e-12.
"""

import math

import numpy as np
import pytest
import scipy.io
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalebo import acquisition, config, glm, problems
from scalebo.errors import EvaluationFailure, SurrogateOverflow

MODEL_ERROR_GOLDEN = 0.0015032718191897864
EPS = np.finfo(float).eps


class TestSyntheticPowerlaw:
    def test_target_inversion_places_optimum(self):
        s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
        prob = problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)
        assert acquisition.argmin_closed_form(prob.truth)[0] == pytest.approx(101.0, rel=1e-12)

    @pytest.mark.parametrize("a, ln_b, eps2, s0", [
        (-0.58, 0.0, 0.25, 0.3), (0.7, -2.0, 0.0, 4.0), (1e-11, 700.0, 3.0, 1e-300)])
    def test_truth_is_the_surrogate_objective_of_the_law(self, a, ln_b, eps2, s0):
        truth = problems.synthetic_powerlaw(a, ln_b, eps2, s0).truth
        assert truth == acquisition.SurrogateObjective(a, math.exp(ln_b), eps2, s0)

    @pytest.mark.parametrize("kind, section", [
        ("gamma-noise", {"a": -0.5, "ln_b": 0.2, "s0": 0.3}),
        ("heteroscedastic", {"a": -0.5, "ln_b": 0.0, "s0": 0.3}),
        ("shifted-lognormal", {"a": -0.5, "ln_b": 0.1, "eps2": 0.2, "s0": 0.3}),
        ("srom-standin", {})])
    def test_other_kinds_record_no_truth(self, kind, section):
        assert config.PROBLEM_KINDS[kind](**section).truth is None

    @pytest.mark.parametrize("a, ln_b, eps2, beta_opt", [
        (-0.58, 0.0, 0.25, 101.0), (0.7, -2.0, 0.0, 3e7), (-1e-3, 5.0, 2.0, 1.5)])
    def test_beta_opt_is_the_target_it_induces(self, a, ln_b, eps2, beta_opt):
        by_opt = problems.synthetic_powerlaw(a, ln_b, eps2, beta_opt=beta_opt)
        s0 = problems.target_for_optimum(a, ln_b, eps2, beta_opt)
        assert by_opt.s0 == s0
        assert by_opt.truth == problems.synthetic_powerlaw(a, ln_b, eps2, s0).truth

    @pytest.mark.parametrize("targets", [{}, {"s0": 0.3, "beta_opt": 101.0}])
    def test_exactly_one_target(self, targets):
        with pytest.raises(ValueError, match="exactly one of 's0' or 'beta_opt'"):
            problems.synthetic_powerlaw(-0.58, 0.0, 0.25, **targets)

    @pytest.mark.parametrize("a, s0", [(0.0, 2.0), (1e-11, 2.0), (-1e-11, 2.0), (1e-3, 10.0)])
    def test_optimum_beyond_float_range_raises(self, a, s0):
        # ln beta* = (ln s0 - 0.375) / a is +-inf, about +-3e10, or 1927.
        prob = problems.synthetic_powerlaw(a, 0.0, 0.25, s0)
        with pytest.raises(SurrogateOverflow):
            acquisition.argmin_closed_form(prob.truth)

    def test_target_needs_only_a_nonzero_slope(self):
        with pytest.raises(ValueError, match="nonzero"):
            problems.target_for_optimum(0.0, 0.0, 0.25, 101.0)
        s0 = problems.target_for_optimum(1e-13, 0.0, 0.0, 101.0)
        assert s0 == math.exp(1e-13 * math.log(101.0))

    def test_noise_free_statistic_is_deterministic(self):
        prob = problems.synthetic_powerlaw(-0.5, math.log(2.0), 0.0, 0.5)
        rng = np.random.default_rng(0)
        values = {prob.evaluate_statistic(4.0, rng) for _ in range(5)}
        assert values == {1.0}

    def test_conditional_mean_identity(self):
        # E[s | beta] = b beta^a exp(eps2 / 2) for the log-normal noise.
        prob = problems.synthetic_powerlaw(-0.5, 0.0, 0.25, 1.0)
        rng = np.random.default_rng(1)
        ln_s = -0.5 * math.log(10.0) + 0.5 * rng.standard_normal(1_000_000)
        draws = np.exp(ln_s)
        expected = 10.0**-0.5 * math.exp(0.125)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3.0 * se
        sampled = np.array(
            [prob.evaluate_statistic(10.0, rng) for _ in range(200_000)]
        )
        se_s = sampled.std(ddof=1) / math.sqrt(sampled.size)
        assert abs(sampled.mean() - expected) <= 3.0 * se_s

    def test_fit_recovers_parameters_in_most_replications(self):
        # Estimates must fall within 3 standard errors of the generator
        # parameters in at least 95 of 100 replications of n = 10^4.
        a_true, lnb_true, eps2_true = -0.58, 0.3, 0.25
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(100):
            beta = np.exp(rng.uniform(math.log(10.0), math.log(1000.0), 10_000))
            s = np.exp(
                a_true * np.log(beta) + lnb_true
                + math.sqrt(eps2_true) * rng.standard_normal(10_000)
            )
            data, _ = glm.ingest(zip(beta, s))
            fit = glm.fit(data)
            sd = math.sqrt(fit.s2)
            se_a = sd * math.sqrt(fit.v_theta[0, 0])
            se_b = sd * math.sqrt(fit.v_theta[1, 1])
            se_s2 = eps2_true * math.sqrt(2.0 / fit.dof)
            hits += (
                abs(fit.a_hat - a_true) <= 3 * se_a
                and abs(fit.ln_b_hat - lnb_true) <= 3 * se_b
                and abs(fit.s2 - eps2_true) <= 3 * se_s2
            )
        assert hits >= 95

    def test_rejects_nonpositive_beta(self):
        prob = problems.synthetic_powerlaw(-0.5, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            prob.evaluate_statistic(0.0, np.random.default_rng(0))

    def test_fuzz_statistic_stays_finite_nonnegative(self):
        prob = problems.synthetic_powerlaw(-0.58, 0.0, 0.25, 0.1)
        rng = np.random.default_rng(2)
        betas = np.exp(rng.uniform(math.log(1.0), math.log(1e4), 100_000))
        values = np.array([prob.evaluate_statistic(b, rng) for b in betas])
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)


class TestSyntheticMisspecified:
    def test_gamma_noise_log_residual_is_skewed(self):
        prob = problems.gamma_noise(a=-0.5, ln_b=0.0, shape=4.0, s0=0.3)
        rng = np.random.default_rng(3)
        draws = np.array([prob.evaluate_statistic(50.0, rng) for _ in range(20_000)])
        # Oracle: ln of Gamma(4) draws is left-skewed.
        oracle = np.log(np.random.default_rng(4).gamma(4.0, 1.0, 20_000))
        assert scipy.stats.skew(oracle) < -0.1
        assert scipy.stats.skew(np.log(draws)) < -0.1

    def test_gamma_noise_preserves_power_law_mean(self):
        prob = problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)
        rng = np.random.default_rng(5)
        draws = np.array([prob.evaluate_statistic(25.0, rng) for _ in range(100_000)])
        expected = math.exp(0.2) * 25.0**-0.5
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_heteroscedastic_spread_varies_with_beta(self):
        prob = problems.heteroscedastic(a=-0.5, ln_b=0.0, s0=0.3)
        rng = np.random.default_rng(6)
        low = np.log([prob.evaluate_statistic(math.e, rng) for _ in range(20_000)])
        high = np.log([prob.evaluate_statistic(math.e**5, rng) for _ in range(20_000)])
        # eps(beta) = 0.2 + 0.1/ln(beta): 0.3 at ln beta = 1 vs 0.22 at 5.
        assert low.std() > 1.2 * high.std()
        with pytest.raises(ValueError):
            prob.evaluate_statistic(1.0, rng)

    def test_zero_shift_reduces_to_powerlaw(self):
        shifted = problems.shifted_lognormal(a=-0.5, ln_b=0.1, eps2=0.2, shift=0.0, s0=0.3)
        plain = problems.synthetic_powerlaw(-0.5, 0.1, 0.2, 0.3)
        for seed in range(5):
            x = shifted.evaluate_statistic(7.0, np.random.default_rng(seed))
            y = plain.evaluate_statistic(7.0, np.random.default_rng(seed))
            assert x == y

    @pytest.mark.parametrize(
        "kind,params,beta_lo",
        [
            ("gamma-noise", {"a": -0.5, "ln_b": 0.0, "shape": 4.0, "s0": 0.3}, 1.0),
            ("heteroscedastic", {"a": -0.5, "ln_b": 0.0, "s0": 0.3}, 1.5),
            ("shifted-lognormal",
             {"a": -0.5, "ln_b": 0.0, "eps2": 0.2, "shift": 0.05, "s0": 0.3}, 1.0),
        ],
    )
    def test_fuzz_statistic_finite_nonnegative(self, kind, params, beta_lo):
        prob = config.build_problem({"kind": kind, **params})
        rng = np.random.default_rng(8)
        betas = np.exp(rng.uniform(math.log(beta_lo), math.log(1e4), 100_000))
        values = np.array([prob.evaluate_statistic(b, rng) for b in betas])
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)


# Built-in kinds whose statistic takes numpy's ``size`` keyword.  Only
# gamma-noise is computed the same way on both paths; the others round
# through np.exp instead of math.exp, which may differ by one ulp.
SIZED_KINDS = {
    "synthetic-powerlaw": (lambda: problems.synthetic_powerlaw(-0.58, 0.1, 0.25, 0.3), 2 * EPS),
    "gamma-noise": (lambda: problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3), 0.0),
    "heteroscedastic": (lambda: problems.heteroscedastic(a=-0.5, ln_b=0.0, s0=0.3), 2 * EPS),
    "shifted-lognormal": (lambda: problems.shifted_lognormal(
        a=-0.5, ln_b=0.1, eps2=0.2, shift=0.05, s0=0.3), 2 * EPS),
}


# Each sized kind's statistic written as one expression over its draws, the
# bits its in-place transform must keep, with the parameters of SIZED_KINDS;
# ``exp`` is np.exp for a draw array, math.exp for a scalar draw.
FORMULAS = {
    "synthetic-powerlaw": lambda exp, beta, rng, size: exp(
        -0.58 * math.log(beta) + 0.1 + math.sqrt(0.25) * rng.standard_normal(size)),
    "gamma-noise": lambda exp, beta, rng, size: (
        math.exp(-0.5 * math.log(beta) + 0.2) * rng.gamma(4.0, 1.0 / 4.0, size)),
    "heteroscedastic": lambda exp, beta, rng, size: exp(
        -0.5 * math.log(beta) + 0.0 + (0.2 + 0.1 / math.log(beta)) * rng.standard_normal(size)),
    "shifted-lognormal": lambda exp, beta, rng, size: 0.05 + exp(
        -0.5 * math.log(beta) + 0.1 + math.sqrt(0.2) * rng.standard_normal(size)),
}


class TestSizedDraws:
    @pytest.mark.parametrize("kind", sorted(SIZED_KINDS))
    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(1.001, 1e8), k=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    def test_sized_draws_are_the_formulas_bits(self, kind, beta, k, seed):
        sized = SIZED_KINDS[kind][0]().evaluate_statistic(beta, np.random.default_rng(seed), size=k)
        expected = FORMULAS[kind](np.exp, beta, np.random.default_rng(seed), k)
        assert sized.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", sorted(SIZED_KINDS))
    def test_scalar_draws_go_through_math_exp(self, kind):
        # np.exp of a float is an np.float64, and may differ by one ulp.
        statistic = SIZED_KINDS[kind][0]().evaluate_statistic
        for seed, beta in enumerate((1.5, 20.0, 333.0, 4e6)):
            value = statistic(beta, np.random.default_rng(seed))
            assert type(value) is float
            assert value == FORMULAS[kind](math.exp, beta, np.random.default_rng(seed), None)

    @pytest.mark.parametrize("kind", sorted(SIZED_KINDS))
    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(1.001, 1e8),
        k=st.integers(0, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sized_draws_equal_scalar_calls(self, kind, beta, k, seed):
        make, rtol = SIZED_KINDS[kind]
        statistic = make().evaluate_statistic
        scalar_rng = np.random.default_rng(seed)
        scalar = [statistic(beta, scalar_rng) for _ in range(k)]
        assert all(type(value) is float for value in scalar)
        sized = statistic(beta, np.random.default_rng(seed), size=k)
        assert isinstance(sized, np.ndarray)
        assert sized.dtype == np.float64
        assert sized.shape == (k,)
        if rtol == 0.0:
            np.testing.assert_array_equal(sized, scalar)
        else:
            np.testing.assert_allclose(sized, scalar, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: problems.synthetic_powerlaw(1.0, 709.0, 1.0, s0=1.0),
        lambda: problems.heteroscedastic(a=1.0, ln_b=709.0, s0=1.0),
        lambda: problems.shifted_lognormal(a=1.0, ln_b=709.0, eps2=1.0, s0=1.0, shift=0.5),
    ], ids=["synthetic-powerlaw", "heteroscedastic", "shifted-lognormal"])
    def test_overflowing_draws_raise_on_both_paths(self, make):
        # exp(709 + ln 1000 + sigma z) is beyond float range unless z < -6 /
        # sigma: a scalar draw raises from math.exp, and a sized draw must
        # not return inf instead.
        problem = make()
        with pytest.raises(OverflowError, match="math range error"):
            problem.evaluate_statistic(1000.0, np.random.default_rng(0))
        with pytest.raises(OverflowError, match="math range error"):
            problem.evaluate_statistic(1000.0, np.random.default_rng(0), size=256)
        for size in (None, 256):
            with pytest.raises(EvaluationFailure, match=r"at beta=1000: math range error"):
                problems.draw_statistics(problem, [1000.0], np.random.default_rng(0), size=size)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_heteroscedastic_sized_rejects_beta_at_most_one(self, beta):
        statistic = SIZED_KINDS["heteroscedastic"][0]().evaluate_statistic
        with pytest.raises(ValueError):
            statistic(beta, np.random.default_rng(0), size=8)


def recording(problem):
    """``problem`` whose statistic logs each call's (beta, size) to ``calls``,
    taking ``size`` exactly when ``problem`` does."""
    calls, statistic = [], problem.evaluate_statistic
    if problem._takes_size:
        def logged(beta, rng, size=None):
            calls.append((beta, size))
            return statistic(beta, rng) if size is None else statistic(beta, rng, size=size)
    else:
        def logged(beta, rng):
            calls.append((beta, None))
            return statistic(beta, rng)
    return problems.ObjectiveProblem(logged, s0=problem.s0), calls


def size_less(problem):
    """``problem`` behind a callable that takes no ``size``."""
    statistic = problem.evaluate_statistic
    return problems.ObjectiveProblem(lambda beta, rng: statistic(beta, rng), s0=problem.s0)


class TestDrawStatistics:
    BETAS = [20.0, 333.0, 20.0, 4e6]

    @pytest.mark.parametrize("kind", [*sorted(SIZED_KINDS), "size-less-callable"])
    def test_scalars_are_one_call_per_beta_in_order(self, kind):
        problem = size_less(SIZED_KINDS["gamma-noise"][0]()) if kind == "size-less-callable" \
            else SIZED_KINDS[kind][0]()
        logged, calls = recording(problem)
        got = problems.draw_statistics(logged, self.BETAS, np.random.default_rng(5))
        assert calls == [(beta, None) for beta in self.BETAS]
        rng = np.random.default_rng(5)
        assert got == [problem.evaluate_statistic(beta, rng) for beta in self.BETAS]
        assert all(type(value) is float for value in got)

    @pytest.mark.parametrize("kind", sorted(SIZED_KINDS))
    def test_a_sized_kind_draws_each_beta_in_one_call(self, kind):
        problem = SIZED_KINDS[kind][0]()
        logged, calls = recording(problem)
        got = problems.draw_statistics(logged, self.BETAS, np.random.default_rng(6), size=7)
        assert calls == [(beta, 7) for beta in self.BETAS]
        rng = np.random.default_rng(6)
        for beta, draws in zip(self.BETAS, got, strict=True):
            assert draws.dtype == np.float64
            assert draws.tobytes() == problem.evaluate_statistic(beta, rng, size=7).tobytes()

    def test_a_size_less_callable_draws_k_scalar_calls_per_beta(self):
        problem = size_less(SIZED_KINDS["gamma-noise"][0]())
        logged, calls = recording(problem)
        got = problems.draw_statistics(logged, self.BETAS, np.random.default_rng(7), size=3)
        assert calls == [(beta, None) for beta in self.BETAS for _ in range(3)]
        rng = np.random.default_rng(7)
        for beta, draws in zip(self.BETAS, got, strict=True):
            assert draws.tolist() == [problem.evaluate_statistic(beta, rng) for _ in range(3)]

    def test_a_callable_without_a_signature_is_called_per_draw(self):
        class Unsigned:
            __signature__ = "none"      # inspect.signature raises TypeError

            def __call__(self, beta, rng):
                return float(rng.random())

        problem = problems.ObjectiveProblem(Unsigned(), s0=1.0)
        assert not problem._takes_size
        got, = problems.draw_statistics(problem, [5.0], np.random.default_rng(8), size=4)
        assert got.tolist() == np.random.default_rng(8).random(4).tolist()

    def test_no_betas_draw_nothing(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        for size in (None, 4):
            assert problems.draw_statistics(SIZED_KINDS["gamma-noise"][0](), [], rng,
                                            size=size) == []
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("iteration", [None, 3])
    def test_a_failure_names_beta_and_iteration(self, iteration):
        def statistic(beta, rng):
            if beta > 100:
                raise RuntimeError("solver blew up")
            return 1.0

        problem = problems.ObjectiveProblem(statistic, s0=1.0)
        context = "" if iteration is None else f" \\(iteration {iteration}\\)"
        with pytest.raises(EvaluationFailure,
                           match=f"at beta=333{context}: solver blew up$") as err:
            problems.draw_statistics(problem, self.BETAS, np.random.default_rng(0),
                                     iteration=iteration)
        assert (err.value.beta, err.value.iteration) == (333.0, iteration)
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_a_sized_call_of_the_wrong_shape_is_a_failure(self):
        problem = problems.ObjectiveProblem(
            lambda beta, rng, size=None: 1.0 if size is None else np.ones((size, 1)), s0=1.0)
        with pytest.raises(EvaluationFailure, match=r"at beta=20: size=5 returned shape \(5, 1\)"):
            problems.draw_statistics(problem, self.BETAS, np.random.default_rng(0), size=5)


@pytest.fixture(scope="module")
def fixture():
    return problems.build_static_fixture()


@pytest.fixture(scope="module")
def prob():
    return problems.srom_standin()


class TestStaticFixture:
    def test_basis_is_orthonormal(self, fixture):
        gram = fixture.basis.T @ fixture.basis
        assert np.max(np.abs(gram - np.eye(fixture.n_dof))) < 1e-10

    def test_stiffness_reconstructs_from_spectrum(self, fixture):
        recon = (fixture.basis * fixture.eigvals) @ fixture.basis.T
        rel = np.max(np.abs(recon - fixture.stiffness)) / np.max(np.abs(fixture.stiffness))
        assert rel < 1e-8

    def test_leading_eigenvalues_follow_quadratic_law(self, fixture):
        eigs = np.linalg.eigvalsh(fixture.stiffness)[:3]
        expected = 4.0 * np.pi**2 * np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(eigs, expected, rtol=1e-6)

    def test_boundary_dofs_are_eliminated(self, fixture):
        for x in (fixture.x_exp, fixture.x_hdm):
            assert abs(x[0]) <= 1e-12
            assert abs(x[-1]) <= 1e-12

    def test_two_force_vectors_disagree(self, fixture):
        assert np.linalg.norm(fixture.x_exp - fixture.x_hdm) > 0.0

    def test_model_error_two_norm_routes_and_golden_value(self, fixture):
        diff = fixture.x_exp - fixture.x_rom
        route1 = float(np.linalg.norm(diff))
        route2 = math.sqrt(math.fsum(float(v) * float(v) for v in diff))
        assert abs(route1 - route2) <= 1e-12
        assert route1 == pytest.approx(MODEL_ERROR_GOLDEN, rel=1e-6)

    def test_reduced_operator_is_leading_spectrum(self, fixture):
        reduced = fixture.rom_basis.T @ fixture.stiffness @ fixture.rom_basis
        np.testing.assert_allclose(reduced, np.diag(fixture.eigvals[:8]), atol=1e-6)


def max_rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module", params=[34, 35, 100, problems.N_DOF])
def dense_and_modal(request):
    # The closed form is written for any size N_DOF whose interior sine
    # modes 1..n-2 hold force mode 32; check it at the smallest such sizes
    # (an even and an odd one) and a middling one besides the size in use.
    # __wrapped__ skips the cache, so the cached fixture stays at N_DOF.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "N_DOF", request.param)
        return problems.build_static_fixture.__wrapped__(), problems._modal_system()


class TestModalForm:
    """The stand-in's closed-form modal data against the dense fixture."""

    def test_eigenvalues_equal(self, dense_and_modal):
        fixture, modal = dense_and_modal
        np.testing.assert_array_equal(modal["eigvals"], fixture.eigvals)

    def test_vectors_are_the_fixture_in_eigencoordinates(self, dense_and_modal):
        # Measured gaps at n = 1000: 5.3e-15 of a max of 9.02 for f_hdm,
        # 1.7e-18 of 2.29e-3 for x_rom, the rounding of Phi^T Phi v.
        fixture, modal = dense_and_modal
        assert max_rel_gap(modal["f_hdm"], fixture.basis.T @ fixture.f_hdm) < 1e-14
        assert max_rel_gap(modal["x_exp"], fixture.basis.T @ fixture.x_exp) < 1e-9
        assert max_rel_gap(modal["x_rom"], fixture.basis.T @ fixture.x_rom) < 1e-9

    def test_target_is_the_fixture_model_error(self, dense_and_modal, monkeypatch):
        fixture, _ = dense_and_modal
        monkeypatch.setattr(problems, "N_DOF", fixture.n_dof)
        s0 = problems.srom_standin().s0
        model_error = float(np.linalg.norm(fixture.x_exp - fixture.x_rom))
        assert s0 == pytest.approx(model_error, rel=1e-10, abs=0.0)

    def test_target_golden_value(self, prob):
        assert prob.s0 == pytest.approx(MODEL_ERROR_GOLDEN, rel=1e-6)


class TestClosedFormBasis:
    """The fixture's written-down Phi and solutions against the LAPACK route."""

    def test_sine_columns_are_the_qr_factor_up_to_sign(self, dense_and_modal):
        fixture, _ = dense_and_modal
        n = fixture.n_dof
        sines, q = fixture.basis[:, :n - 2], oracles.qr_sine_basis(n)[:, :n - 2]
        gap = np.minimum(np.abs(sines - q).max(axis=0), np.abs(sines + q).max(axis=0))
        assert gap.max() <= 1e-12

    def test_first_interior_entry_is_positive(self, dense_and_modal):
        fixture, _ = dense_and_modal
        assert np.all(fixture.basis[1, :fixture.n_dof - 2] > 0.0)

    def test_sine_end_rows_are_zero_and_last_columns_are_the_ends(self, dense_and_modal):
        fixture, _ = dense_and_modal
        n = fixture.n_dof
        sines = fixture.basis[:, :n - 2]
        assert np.all(sines[[0, n - 1]] == 0.0)
        # sin(k pi j/(n-1)) vanishes wherever k j is a multiple of n-1.
        nodes = np.outer(np.arange(n), np.arange(1, n - 1)) % (n - 1) == 0
        assert np.all(sines[nodes] == 0.0) and np.all(sines[~nodes] != 0.0)
        np.testing.assert_array_equal(fixture.basis[:, n - 2:], np.eye(n)[:, [n - 1, 0]])

    def test_solutions_are_the_dense_fixed_end_solves(self, dense_and_modal):
        fixture, _ = dense_and_modal
        for x, f in ((fixture.x_exp, fixture.f_exp), (fixture.x_hdm, fixture.f_hdm)):
            assert max_rel_gap(x, oracles.solve_fixed_ends(fixture.stiffness, f)) < 1e-9


class TestSromStandin:
    def test_statistic_vanishes_for_huge_beta(self, prob):
        rng = np.random.default_rng(0)
        values = [prob.evaluate_statistic(1e18, rng) for _ in range(5)]
        assert max(values) < 1e-9

    def test_approximate_power_law_in_its_window(self, prob):
        # The perturbation regime of this fixture puts the power-law window
        # at large beta (the reduced operator is noise dominated until
        # beta^-1 * tr(Lambda) drops below the retained eigenvalues).
        rng = np.random.default_rng(1)
        betas = 10.0 ** np.arange(8, 14)
        means = [
            np.mean([prob.evaluate_statistic(b, rng) for _ in range(150)]) for b in betas
        ]
        x = np.column_stack([np.log(betas), np.ones(betas.size)])
        y = np.log(means)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        pred = x @ coef
        r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
        print(f"stand-in power law: exponent {coef[0]:.3f}, R^2 {r2:.4f}")
        assert r2 >= 0.95

    def test_same_seed_reproduces_sequence(self, prob):
        first = [prob.evaluate_statistic(1e8, np.random.default_rng(42)) for _ in range(3)]
        second = [prob.evaluate_statistic(1e8, np.random.default_rng(42)) for _ in range(3)]
        assert first == second

    def test_spectral_form_matches_physical_coordinates(self, prob):
        # The implementation perturbs in the stiffness eigenbasis; rotating
        # the same Gaussian draw into physical coordinates and solving with
        # the assembled stiffness must give the same statistic.
        fixture = problems.build_static_fixture()
        beta = 1e9
        for seed in range(3):
            fast = prob.evaluate_statistic(beta, np.random.default_rng(seed))
            g_eig = np.random.default_rng(seed).standard_normal((fixture.n_dof, 8))
            g_phys = fixture.basis @ g_eig
            w, _ = np.linalg.qr(fixture.basis[:, :8] + g_phys / math.sqrt(beta))
            reduced = w.T @ fixture.stiffness @ w
            q = np.linalg.solve(reduced, w.T @ fixture.f_hdm)
            literal = float(np.linalg.norm(w @ q - fixture.x_rom))
            assert fast == pytest.approx(literal, rel=1e-8)

    @pytest.mark.parametrize("beta", [1e-2, 1.0, 1e3, 1e6, 3e7, 8e7, 1e9])
    def test_galerkin_solve_matches_orthonormalized_basis(self, prob, beta):
        # The Galerkin solution depends only on the span of the perturbed
        # basis, so solving on G + sqrt(beta) V directly must reproduce
        # the QR-orthonormalized route on the same normal draw.
        modal = problems._modal_system()
        lam, f_eig, x_rom_eig = modal["eigvals"], modal["f_hdm"], modal["x_rom"]
        n, m = lam.size, problems.ROM_DIM
        for seed in range(3):
            got = prob.evaluate_statistic(beta, np.random.default_rng(seed))
            g = np.random.default_rng(seed).standard_normal((n, m))
            w, _ = np.linalg.qr(np.eye(n, m) + g / math.sqrt(beta))
            q = np.linalg.solve((w * lam[:, None]).T @ w, w.T @ f_eig)
            want = float(np.linalg.norm(w @ q - x_rom_eig))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(ln_beta=st.floats(math.log(1e-2), math.log(1e12)), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_formula(self, prob, ln_beta, seed):
        beta = math.exp(ln_beta)
        got = prob.evaluate_statistic(beta, np.random.default_rng(seed))
        assert got == oracles.srom_statistic(beta, np.random.default_rng(seed))

    @settings(max_examples=40, deadline=None)
    @given(ln_beta=st.floats(math.log(3e7), math.log(8e7)), seed=st.integers(0, 2**32 - 1))
    def test_span_form_matches_the_scaled_basis(self, prob, ln_beta, seed):
        # G + sqrt(beta) V spans what V + G / sqrt(beta) spans, so over C6's
        # bounds the statistic keeps the scaled form's value to rounding.
        beta = math.exp(ln_beta)
        got = prob.evaluate_statistic(beta, np.random.default_rng(seed))
        want = oracles.srom_statistic_scaled(beta, np.random.default_rng(seed))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_statistic_finite_nonnegative_in_window(self, prob):
        rng = np.random.default_rng(2)
        for _ in range(50):
            beta = float(np.exp(rng.uniform(math.log(1e7), math.log(1e12))))
            s = prob.evaluate_statistic(beta, rng)
            assert math.isfinite(s) and s >= 0.0


class TestFixtureExport:
    def test_matrix_market_round_trip(self, tmp_path):
        fixture = problems.build_static_fixture()
        written = problems.export_fixture(fixture, tmp_path)
        assert sorted(p.name for p in written) == ["K.mtx", "V.mtx", "f_E.mtx", "f_H.mtx"]
        arrays = {"K": fixture.stiffness, "V": fixture.rom_basis,
                  "f_E": fixture.f_exp.reshape(-1, 1), "f_H": fixture.f_hdm.reshape(-1, 1)}
        for name, want in arrays.items():
            path = tmp_path / f"{name}.mtx"
            back = np.asarray(scipy.io.mmread(path))
            assert back.dtype == np.float64 and back.shape == want.shape
            # Equal as values; scipy's reader drops the sign of -0.0, so the
            # bits are checked on the text below.
            np.testing.assert_array_equal(back, want)
            lines = path.read_text(encoding="ascii").split("\n")
            assert lines[:3] == ["%%MatrixMarket matrix array real general", "%",
                                 f"{want.shape[0]} {want.shape[1]}"]
            assert lines[-1] == ""   # the file ends in a newline
            values = np.array([float(v) for v in lines[3:-1]]).reshape(want.shape, order="F")
            assert values.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_values_are_shortest_float_reprs(self, tmp_path):
        arr = np.array([[-0.0, 1e-300], [0.1, -2.5e16]])
        problems.write_matrix_market(tmp_path / "z.mtx", arr)
        assert (tmp_path / "z.mtx").read_text().split("\n")[3:-1] == [
            "-0.0", "0.1", "1e-300", "-2.5e+16"]
