"""Tests for the posterior readings: the Student-t tail and the exact
identification test of the exponent a."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalebo import acquisition, driver, glm, posterior, problems

dofs = st.integers(1, 1000)
t_values = (st.sampled_from([0.0, -0.0, math.inf, -math.inf])
            | st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
                        st.floats(1e-3, 1e2)))


class TestTailFunction:
    @settings(max_examples=2000, deadline=None)
    @given(t=t_values, dof=dofs)
    def test_matches_scipy(self, t, dof):
        got = posterior.t_sf(t, dof)
        assert 0.0 <= got <= 1.0
        assert abs(got - float(scipy.stats.t.sf(t, dof))) <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(t=t_values, dof=dofs)
    def test_tails_sum_to_one(self, t, dof):
        assert abs(posterior.t_sf(t, dof) + posterior.t_sf(-t, dof) - 1.0) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(t=t_values)
    def test_closed_forms_of_one_and_two_dof(self, t):
        assert posterior.t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi,
                                                     rel=0, abs=1e-15)
        two = 0.5 - math.copysign(0.5, t) if math.isinf(t) else 0.5 - t / (2 * math.sqrt(t * t + 2))
        assert posterior.t_sf(t, 2) == pytest.approx(two, rel=0, abs=1e-15)


def fit_with(a_hat, s2=0.25, v00=0.01, dof=30):
    return glm.GlmFit(coef_hat=np.array([a_hat, 0.0]), s2=s2,
                      v_theta=np.array([[v00, 0.0], [0.0, 1.0]]), dof=dof)


class TestIdentification:
    def test_draws_nothing(self):
        fit = fit_with(-0.11)
        bounds = (10.0, 1000.0)
        first = posterior.summarize(fit, 0.88, bounds, np.random.default_rng(1))
        second = posterior.summarize(fit, 0.88, bounds, np.random.default_rng(2))
        assert first.q500 != second.q500   # the quantiles do read their draws
        assert first.p_a_positive == second.p_a_positive == posterior.p_a_positive(fit)

    @pytest.mark.parametrize("dof", [1, 2, 5, 38, 288])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_flips_at_the_two_sided_critical_value(self, dof, sign):
        # a is identified exactly when |a_hat| / sqrt(s2 V00) reaches the
        # t quantile of the two-sided 95% test.
        crit = -float(scipy.stats.t.ppf(posterior.SIGN_LEVEL, dof))
        scale = math.sqrt(0.25 * 0.01)
        for rel, identified in ((1 + 1e-8, True), (1 - 1e-8, False)):
            fit = fit_with(sign * crit * scale * rel, dof=dof)
            summary = posterior.summarize(fit, 0.1, (10.0, 1000.0), np.random.default_rng(0))
            assert summary.a_identified is identified
            assert (posterior.flag(summary, (10.0, 1000.0)) == "unidentified") is not identified

    @pytest.mark.parametrize("a_hat, want", [(-0.5, 0.0), (0.5, 1.0), (0.0, 0.5), (-0.0, 0.5)])
    def test_step_at_a_hat_without_noise(self, a_hat, want):
        assert posterior.p_a_positive(fit_with(a_hat, s2=0.0)) == want

    @pytest.mark.parametrize("s0, estimate", [(2.0, 1000.0), (1.0, math.nan)])
    def test_flat_exact_fit_is_unidentified(self, s0, estimate):
        # a_hat = 0 with no width: the plug-in argmin is the bound that the
        # sign of ln s0 - ln b_hat picks, or NaN when the objective is
        # constant (s0 = b_hat); either way the sign of a is undecided.
        bounds = (10.0, 1000.0)
        fit = fit_with(0.0, s2=0.0)
        rng = np.random.default_rng(0)
        summary = posterior.summarize(fit, s0, bounds, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state   # no draws
        assert repr(summary.q025) == repr(summary.q975) == repr(estimate)
        assert posterior.flag(summary, bounds) == "unidentified"
        assert posterior.stop_reading(fit, summary, s0, bounds)[0] is False

    @pytest.mark.parametrize("a_hat, flag", [(1e-13, "boundary-max"), (-1e-13, "boundary-min")])
    def test_tiny_exponent_of_tiny_width_reads_without_raising(self, a_hat, flag):
        # Every draw's ln beta* is about ln 2 / a_hat, +-7e12: it clamps onto
        # one bound, and on the bounds the objective is flat to 1e-12, so
        # the 10% region is all of them.
        bounds = (10.0, 1000.0)
        fit = fit_with(a_hat, s2=1e-40)
        summary = posterior.summarize(fit, 2.0, bounds, np.random.default_rng(0))
        assert summary == oracles.posterior_summary(fit, 2.0, bounds, np.random.default_rng(0))
        assert summary.a_identified
        assert posterior.point_estimate(fit, 2.0, bounds) == summary.q025 == summary.q975
        assert posterior.stop_reading(fit, summary, 2.0, bounds)[0] is True
        assert posterior.flag(summary, bounds) == flag

    def test_every_record_reports_the_exact_tail(self):
        s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
        prob = problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)
        for seed in range(3):
            config = driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=s0, seed=seed)
            trace = driver.run(config, prob)
            assert all(rec.posterior.p_a_positive == posterior.p_a_positive(rec.fit)
                       for rec in trace.iterations)


class TestStopReading:
    """``(settled, shortfall)`` on hand-built fit and summary pairs: the
    plug-in optimum of ``fit_with(-0.5)`` lies at ``beta_star``."""

    bounds = (10.0, 1000.0)

    def s0_for(self, beta_star, a_hat=-0.5, s2=0.25):
        return math.exp(a_hat * math.log(beta_star) + 1.5 * s2)

    def reading(self, s0, q025, q500, q975, p_a_positive=0.0):
        summary = posterior.PosteriorSummary(q025=q025, q500=q500, q975=q975,
                                             p_a_positive=p_a_positive)
        fit = fit_with(-0.5)
        got = posterior.stop_reading(fit, summary, s0, self.bounds)
        assert posterior.stop_reading(fit, summary, s0, self.bounds)[0] is got[0]
        return got

    def region(self, s0):
        return acquisition.optimal_region_from(-0.5, 0.0, 0.25, s0, posterior.STOP_REGION_REL,
                                               self.bounds)

    def test_settled_interval_has_no_shortfall(self):
        s0 = self.s0_for(100.0)
        lo, hi = self.region(s0)
        assert 10.0 < lo < 100.0 < hi < 1000.0
        assert self.reading(s0, lo, math.sqrt(lo * hi), hi) == (True, 0.0)

    def test_unidentified_exponent_has_no_shortfall(self):
        assert self.reading(self.s0_for(100.0), 10.0, 100.0, 1000.0, 0.5) == (False, 0.0)

    @pytest.mark.parametrize("side", [0, 1])
    def test_median_outside_the_region_has_no_shortfall(self, side):
        s0 = self.s0_for(100.0)
        lo, hi = self.region(s0)
        q500 = (lo / 1.01, hi * 1.01)[side]
        assert self.reading(s0, q500 / 2, q500, q500 * 2) == (False, 0.0)

    def test_closed_form_value(self):
        # The lower half is twice its gap (room 1/2), the upper half 1.5
        # times (room 2/3): n / room^2 - n = 3 n, with n = dof + 2 = 32.
        s0 = self.s0_for(100.0)
        lo, hi = self.region(s0)
        mid = math.sqrt(lo * hi)
        gap = math.log(mid / lo)
        settled, shortfall = self.reading(s0, mid * math.exp(-2 * gap), mid,
                                          mid * math.exp(1.5 * gap))
        assert not settled
        assert shortfall == pytest.approx(96.0, rel=1e-12)

    def test_half_collapsed_onto_a_bound_never_constrains(self):
        # beta* = 5 lies below the bounds, so the region starts at 10; with
        # q025 = q500 = 10 only the upper half, three times its gap, counts.
        s0 = self.s0_for(5.0)
        lo, hi = self.region(s0)
        assert lo == 10.0 < hi < 1000.0
        settled, shortfall = self.reading(s0, 10.0, 10.0, 10.0 * (hi / 10.0) ** 3)
        assert not settled
        assert shortfall == pytest.approx(32 * 9 - 32, rel=1e-12)

    def test_median_on_an_edge_is_an_infinite_shortfall(self):
        s0 = self.s0_for(100.0)
        lo, hi = self.region(s0)
        assert self.reading(s0, math.sqrt(lo * hi), hi, hi * 1.5) == (False, math.inf)
