"""Tests for the analytic objective and the closed-form Thompson step.

The Monte-Carlo oracles draw log-normal multipliers directly; the
numerical argmin oracle is scipy's bounded scalar minimizer over ln beta,
an implementation entirely independent of the closed form it checks.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalebo import acquisition, glm
from scalebo.acquisition import SurrogateObjective
from scalebo.errors import DegenerateVariance, SurrogateOverflow


def numeric_argmin(obj, lo=1e-3, hi=1e6):
    """Independent 1-D minimizer of evaluate() over ln beta."""
    res = scipy.optimize.minimize_scalar(
        lambda u: acquisition.evaluate(obj, math.exp(u)),
        bounds=(math.log(lo), math.log(hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return math.exp(res.x)


def mc_objective(obj, beta, draws, rng):
    """Monte-Carlo estimate of E|b beta^a zeta - s0|^2, zeta ~ logN(0, eps2)."""
    zeta = np.exp(math.sqrt(obj.eps2) * rng.standard_normal(draws))
    g = (obj.b * beta**obj.a * zeta - obj.s0) ** 2
    return float(g.mean()), float(g.std(ddof=1) / math.sqrt(draws))


def random_triples(count, rng, eps2_low=0.0):
    for _ in range(count):
        sign = rng.choice([-1.0, 1.0])
        yield SurrogateObjective(
            a=float(sign * rng.uniform(0.1, 2.0)),
            b=float(rng.uniform(0.1, 10.0)),
            eps2=float(rng.uniform(eps2_low, 1.0)),
            s0=float(rng.uniform(0.1, 10.0)),
        )


class TestSurrogateObjective:
    def test_cached_coefficients(self):
        # f = c1 beta^2a + (c2 beta^a - s0)^2 with c1 = b^2 (e^2eps2 - e^eps2)
        # and c2 = b e^(eps2/2), written out term by term.
        obj = SurrogateObjective(a=-0.5, b=2.0, eps2=0.1, s0=0.5)
        c1, c2 = 4.0 * (math.exp(0.2) - math.exp(0.1)), 2.0 * math.exp(0.05)
        for beta in (0.3, 4.0, 250.0):
            want = c1 * beta**-1.0 + (c2 * beta**-0.5 - 0.5) ** 2
            assert acquisition.evaluate(obj, beta) == pytest.approx(want, rel=1e-13)

    def test_variance_coefficient_vanishes_only_without_noise(self):
        # At eps2 = 0, f is (b beta^a - s0)^2: exactly 0 where b beta^a = s0.
        # Any eps2 > 0 adds a positive variance term.
        at_target = SurrogateObjective(a=1.0, b=1.0, eps2=0.0, s0=1.0)
        assert acquisition.evaluate(at_target, 1.0) == 0.0
        at_target = SurrogateObjective(a=1.0, b=1.0, eps2=1e-300, s0=1.0)
        assert acquisition.evaluate(at_target, 1.0) == pytest.approx(1e-300, rel=1e-12)
        for eps2 in (0.0, 1e-300):
            obj = SurrogateObjective(a=0.8, b=1.5, eps2=eps2, s0=1.0)
            assert acquisition.evaluate(obj, 3.0) == pytest.approx((1.5 * 3.0**0.8 - 1.0) ** 2,
                                                                   rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=math.nan, b=1.0, eps2=0.0, s0=1.0),
            dict(a=1.0, b=0.0, eps2=0.0, s0=1.0),
            dict(a=1.0, b=1.0, eps2=-0.1, s0=1.0),
            dict(a=1.0, b=1.0, eps2=0.0, s0=0.0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SurrogateObjective(**kwargs)


class TestEvaluate:
    def test_deterministic_surrogate_hits_target(self):
        obj = SurrogateObjective(a=1.0, b=1.0, eps2=0.0, s0=1.0)
        assert acquisition.evaluate(obj, 1.0) == 0.0

    def test_matches_monte_carlo_oracle(self):
        obj = SurrogateObjective(a=-0.5, b=2.0, eps2=0.1, s0=0.5)
        mc, _ = mc_objective(obj, 4.0, 10_000_000, np.random.default_rng(0))
        assert acquisition.evaluate(obj, 4.0) == pytest.approx(mc, rel=0.005)

    def test_analytic_equals_monte_carlo_across_triples(self):
        rng = np.random.default_rng(1)
        for obj in random_triples(12, rng):
            beta = float(np.exp(rng.uniform(-2.0, 4.0)))
            mc, se = mc_objective(obj, beta, 1_000_000, rng)
            assert abs(acquisition.evaluate(obj, beta) - mc) <= 3.0 * se

    def test_variance_term_lower_bound(self):
        rng = np.random.default_rng(2)
        for obj in random_triples(20, rng):
            beta = float(np.exp(rng.uniform(-3.0, 5.0)))
            value = acquisition.evaluate(obj, beta)
            assert value >= 0.0
            mean = obj.b * math.exp(0.5 * obj.eps2) * beta**obj.a
            assert value >= (mean - obj.s0) ** 2 - 1e-12 * value

    def test_overflow_is_an_error_not_infinity(self):
        obj = SurrogateObjective(a=100.0, b=1.0, eps2=0.5, s0=1.0)
        with pytest.raises(SurrogateOverflow):
            acquisition.evaluate(obj, 1e10)
        with pytest.raises(SurrogateOverflow):
            acquisition.evaluate(obj, [1.0, 1e10])


class TestArgminClosedForm:
    def test_noise_free_unit_case(self):
        beta_star, f_star = acquisition.argmin_closed_form(
            SurrogateObjective(a=1.0, b=1.0, eps2=0.0, s0=1.0)
        )
        assert beta_star == pytest.approx(1.0, rel=1e-15)
        assert f_star == 0.0

    def test_reference_case_against_numeric_oracle(self):
        obj = SurrogateObjective(a=-0.5, b=2.0, eps2=0.1, s0=0.5)
        beta_star, f_star = acquisition.argmin_closed_form(obj)
        assert beta_star == pytest.approx(16.0 * math.exp(0.3), rel=1e-12)
        assert beta_star == pytest.approx(numeric_argmin(obj), rel=1e-6)
        assert f_star == pytest.approx(acquisition.evaluate(obj, beta_star), rel=1e-15)

    def test_positive_exponent_branch_against_grid(self):
        # Dense log grid refined by bisection on the sign of the numerical
        # derivative; exercises the a > 0 branch.
        rng = np.random.default_rng(3)
        for _ in range(100):
            obj = SurrogateObjective(
                a=0.7,
                b=float(rng.uniform(0.1, 10.0)),
                eps2=float(rng.uniform(0.0, 1.0)),
                s0=float(rng.uniform(0.1, 10.0)),
            )
            beta_star, _ = acquisition.argmin_closed_form(obj)
            grid = np.exp(np.linspace(math.log(beta_star) - 3, math.log(beta_star) + 3, 100_001))
            values = acquisition.evaluate(obj, grid)
            coarse = grid[int(np.argmin(values))]

            def slope(u):
                h = 1e-7
                return acquisition.evaluate(obj, math.exp(u + h)) - acquisition.evaluate(
                    obj, math.exp(u - h)
                )

            lo, hi = math.log(coarse) - 1e-4, math.log(coarse) + 1e-4
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if slope(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            refined = math.exp(0.5 * (lo + hi))
            assert beta_star == pytest.approx(refined, rel=1e-3)

    def test_degenerate_exponent(self):
        # ln beta* is -inf at a = 0, and -1.5e12 at a = 1e-13: no float beta*.
        for a in (0.0, 1e-13):
            obj = SurrogateObjective(a=a, b=1.0, eps2=0.1, s0=1.0)
            with pytest.raises(SurrogateOverflow):
                acquisition.argmin_closed_form(obj)
            with pytest.raises(SurrogateOverflow):
                acquisition.optimal_region(obj)

    def test_unrepresentable_argmin(self):
        with pytest.raises(SurrogateOverflow):
            acquisition.argmin_closed_form(
                SurrogateObjective(a=1e-3, b=1.0, eps2=0.0, s0=10.0)
            )

    def test_first_derivative_vanishes_at_argmin(self):
        rng = np.random.default_rng(4)
        for obj in random_triples(20, rng, eps2_low=0.01):
            beta_star, f_star = acquisition.argmin_closed_form(obj)
            h = 1e-5 * beta_star
            deriv = (
                acquisition.evaluate(obj, beta_star + h)
                - acquisition.evaluate(obj, beta_star - h)
            ) / (2 * h)
            curv_scale = (
                acquisition.evaluate(obj, beta_star + h)
                - 2 * f_star
                + acquisition.evaluate(obj, beta_star - h)
            ) / h**2
            assert abs(deriv) <= 1e-4 * max(abs(curv_scale) * beta_star, 1e-300)

    def test_monotone_on_both_sides(self):
        rng = np.random.default_rng(5)
        for obj in random_triples(10, rng, eps2_low=0.01):
            beta_star, _ = acquisition.argmin_closed_form(obj)
            left = beta_star * np.exp(np.linspace(-2.0, -1e-3, 50))
            right = beta_star * np.exp(np.linspace(1e-3, 2.0, 50))
            assert np.all(np.diff(acquisition.evaluate(obj, left)) < 0)
            assert np.all(np.diff(acquisition.evaluate(obj, right)) > 0)

    def test_argmin_invariant_under_joint_rescaling(self):
        obj = SurrogateObjective(a=-0.8, b=1.7, eps2=0.3, s0=2.2)
        beta_star, _ = acquisition.argmin_closed_form(obj)
        for c in (0.1, 3.0, 250.0):
            scaled = SurrogateObjective(a=-0.8, b=c * 1.7, eps2=0.3, s0=c * 2.2)
            scaled_star, _ = acquisition.argmin_closed_form(scaled)
            assert scaled_star == pytest.approx(beta_star, rel=1e-12)


class TestOptimalRegion:
    def test_matches_numeric_scan(self):
        obj = SurrogateObjective(a=-0.58, b=1.0, eps2=0.25, s0=0.1)
        lo, hi = acquisition.optimal_region(obj, 0.10)
        grid = np.exp(np.linspace(math.log(1.0), math.log(1e4), 2_000_001))
        values = acquisition.evaluate(obj, grid)
        inside = grid[values <= 1.1 * values.min()]
        assert lo == pytest.approx(inside.min(), rel=1e-4)
        assert hi == pytest.approx(inside.max(), rel=1e-4)

    def test_noise_free_region_is_a_point(self):
        obj = SurrogateObjective(a=-0.5, b=2.0, eps2=0.0, s0=0.5)
        lo, hi = acquisition.optimal_region(obj, 0.10)
        assert lo == hi == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize(
        "a,bounds",
        [
            (-0.58, (10.0, 1000.0)),    # interior optimum (beta* = 101 on this objective)
            (-0.58, (200.0, 1000.0)),   # optimum below the bounds
            (-0.58, (10.0, 60.0)),      # optimum above the bounds
            (0.7, (150.0, 3000.0)),     # positive exponent, optimum below
            (-0.58, (90.0, 110.0)),     # region wider than the bounds
        ],
    )
    def test_bounded_region_matches_numeric_scan(self, a, bounds):
        obj = SurrogateObjective(a=a, b=1.0, eps2=0.25, s0=0.1)
        lo, hi = acquisition.optimal_region_from(a, 0.0, 0.25, 0.1, 0.10, bounds)
        grid = np.exp(np.linspace(math.log(bounds[0]), math.log(bounds[1]), 2_000_001))
        grid[[0, -1]] = bounds
        values = acquisition.evaluate(obj, grid)
        inside = grid[values <= 1.1 * values.min()]
        assert lo == pytest.approx(inside.min(), rel=1e-5)
        assert hi == pytest.approx(inside.max(), rel=1e-5)
        # An edge on a bound is the bound itself, as clamp_log returns it.
        for edge, scan_edge, bound in ((lo, inside.min(), bounds[0]), (hi, inside.max(), bounds[1])):
            assert (edge == bound) == (scan_edge == bound)

    def test_interior_bounded_region_is_the_region_cut_to_bounds(self):
        lo, hi = acquisition.optimal_region(SurrogateObjective(a=-0.58, b=1.0, eps2=0.25, s0=0.1), 0.10)
        for bounds, want in [((10.0, 1000.0), (lo, hi)), ((10.0, 120.0), (lo, 120.0))]:
            got = acquisition.optimal_region_from(-0.58, 0.0, 0.25, 0.1, 0.10, bounds)
            assert got == pytest.approx(want, rel=1e-12)

    def test_bounded_region_beyond_float_range(self):
        # ln b far beyond exp's range (as in a fit on clustered bounds):
        # no SurrogateObjective can hold b, but the region is still defined.
        lo, hi = acquisition.optimal_region_from(-2.6e6, 4.7e7, 0.18, 0.1, 0.10, (1e8, 1e8 + 30.0))
        assert 1e8 <= lo <= hi <= 1e8 + 30.0


def fitted_model(n=10_000, a=-0.58, eps=0.5, seed=5):
    rng = np.random.default_rng(seed)
    beta = np.exp(rng.uniform(math.log(10.0), math.log(1000.0), n))
    s = np.exp(a * np.log(beta) + eps * rng.standard_normal(n))
    data, _ = glm.ingest(zip(beta, s))
    return glm.fit(data)


class TestThompsonBatch:
    def test_tight_posterior_concentrates_on_point_estimate(self):
        fit = fitted_model()
        obj = SurrogateObjective(a=fit.a_hat, b=math.exp(fit.ln_b_hat), eps2=fit.s2, s0=0.1)
        center, _ = acquisition.argmin_closed_form(obj)
        batch = acquisition.thompson_batch(fit, 0.1, 10, (1.0, 1e4), np.random.default_rng(9))
        np.testing.assert_allclose(batch.betas, center, rtol=0.05)

    def test_cardinality_and_bounds(self):
        fit = fitted_model(n=60)
        batch = acquisition.thompson_batch(fit, 0.1, 10, (50.0, 200.0), np.random.default_rng(1))
        assert len(batch.betas) == 10
        assert all(50.0 <= b <= 200.0 for b in batch.betas)
        # The batch is this block's argmins (no slot was redrawn), and each
        # proposal's own draw of the objective there is finite and >= 0.
        draws = list(zip(*glm.sample_posterior(fit, 10, np.random.default_rng(1))))
        want = [scalar_clamped_argmin(*draw, 0.1, (50.0, 200.0))[0] for draw in draws]
        np.testing.assert_allclose(batch.betas, want, rtol=EPS_RTOL, atol=0)
        f = [scalar_objective(*draw, 0.1, beta) for draw, beta in zip(draws, batch.betas)]
        assert all(0.0 <= value < math.inf for value in f)

    def test_clamp_saturation(self):
        # Near-degenerate posterior whose argmin (about 101) sits far above
        # the feasible interval: every proposal is projected to the upper
        # bound and counted.
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5798, 0.0]),
            s2=1e-18,
            v_theta=np.diag([1e-18, 1e-18]),
            dof=1000,
        )
        s0 = math.exp(1.5e-18 - 0.5798 * math.log(101.0))
        batch = acquisition.thompson_batch(fit, s0, 10, (50.0, 60.0), np.random.default_rng(2))
        assert batch.betas == [60.0] * 10
        assert batch.clamped_count == 10

    def test_degenerate_variance_propagates(self):
        fit = glm.GlmFit(
            coef_hat=np.array([-0.5, 0.0]), s2=0.0, v_theta=np.eye(2), dof=10
        )
        with pytest.raises(DegenerateVariance):
            acquisition.thompson_batch(fit, 1.0, 5, (1.0, 10.0), np.random.default_rng(0))

    def test_flat_posterior_proposes_bounds(self):
        # Posterior mass collapsed onto a = 0: each draw's exponent is about
        # 1e-300, so its ln beta*, about ln 2 / a, lies far beyond a bound.
        fit = glm.GlmFit(
            coef_hat=np.array([0.0, 0.0]),
            s2=1e-300,
            v_theta=np.diag([1e-300, 1e-300]),
            dof=10,
        )
        batch = acquisition.thompson_batch(fit, 2.0, 16, (1.0, 10.0), np.random.default_rng(0))
        assert set(batch.betas) == {1.0, 10.0}
        assert batch.clamped_count == 16

    def test_seed_determinism(self):
        fit = fitted_model(n=200)
        first = acquisition.thompson_batch(fit, 0.1, 8, (1.0, 1e4), np.random.default_rng(3))
        second = acquisition.thompson_batch(fit, 0.1, 8, (1.0, 1e4), np.random.default_rng(3))
        assert first.betas == second.betas
        assert first.clamped_count == second.clamped_count


# Array results are compared with the per-draw scalar formulas below; the
# arithmetic is the same but numpy's exp/log may round differently from
# math's in the last place, so the tolerance is a fixed multiple of eps.
EPS_RTOL = 256 * np.finfo(float).eps


def scalar_log_argmin(a, ln_b, eps2, s0):
    """Per-draw reference ln beta*, with IEEE division by a = +-0 spelled
    out: infinite with the signs' product, or NaN for 0 / 0."""
    numerator = math.log(s0) - ln_b - 1.5 * eps2
    if a != 0:
        return numerator / a
    if numerator != 0:
        return math.copysign(math.inf, numerator) * math.copysign(1.0, a)
    return math.nan


def scalar_clamped_argmin(a, ln_b, eps2, s0, bounds):
    """Per-draw reference: (beta, clamped), NaN (not clamped) for 0 / 0."""
    ln_star = scalar_log_argmin(a, ln_b, eps2, s0)
    if math.isnan(ln_star):
        return math.nan, False
    if ln_star < math.log(bounds[0]):
        return bounds[0], True
    if ln_star > math.log(bounds[1]):
        return bounds[1], True
    return math.exp(ln_star), False


def scalar_objective(a, ln_b, eps2, s0, beta):
    """Per-draw reference f(beta) in log space; inf where it overflows."""
    t = a * math.log(beta)
    try:
        return (math.exp(2.0 * (ln_b + t) + eps2 + math.log(math.expm1(eps2)))
                + (math.exp(ln_b + 0.5 * eps2 + t) - s0) ** 2)
    except OverflowError:
        return math.inf


class TestVectorizedCore:
    def test_batch_is_closed_form_of_one_posterior_block(self):
        fit = fitted_model(n=60)
        bounds, s0 = (65.0, 80.0), 0.1   # cuts through the draws' argmins
        batch = acquisition.thompson_batch(fit, s0, 10, bounds, np.random.default_rng(1))
        draws = glm.sample_posterior(fit, 10, np.random.default_rng(1))
        want = [scalar_clamped_argmin(a, ln_b, eps2, s0, bounds) for a, ln_b, eps2 in zip(*draws)]
        assert 0 < sum(clamped for _, clamped in want) < 10
        np.testing.assert_allclose(batch.betas, [beta for beta, _ in want], rtol=EPS_RTOL, atol=0)
        assert batch.clamped_count == sum(clamped for _, clamped in want)
        for got, (beta, clamped) in zip(batch.betas, want):
            if clamped:
                assert got == beta

    # Slopes include 0 and +-1e-13, and the spread of a (l00) goes down to
    # 1e-13, so that every draw's exponent can be tiny and its ln beta* huge.
    @settings(max_examples=200, deadline=None)
    @given(
        a_hat=st.sampled_from([0.0, 1e-13, -1e-13])
        | st.builds(lambda sign, magnitude: sign * magnitude,
                    st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 5.0)),
        ln_b=st.floats(-400.0, 400.0),
        s2=st.floats(1e-4, 4.0),
        l00=st.sampled_from([1e-13, 1e-12]) | st.floats(1e-3, 3.2),
        v11=st.floats(1e-6, 10.0),
        rho=st.floats(-0.99, 0.99),
        dof=st.integers(2, 200),
        s0=st.floats(1e-3, 1e3),
        beta_min=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0 + 1e-6, 1e4),
        size=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_is_the_clamped_argmins_of_its_first_block(
        self, a_hat, ln_b, s2, l00, v11, rho, dof, s0, beta_min, ratio, size, seed
    ):
        v00 = l00 * l00
        v10 = rho * math.sqrt(v00 * v11)
        fit = glm.GlmFit(coef_hat=np.array([a_hat, ln_b]), s2=s2,
                         v_theta=np.array([[v00, v10], [v10, v11]]), dof=dof)
        bounds = (beta_min, beta_min * ratio)
        block = glm.sample_posterior(fit, size, np.random.default_rng(seed))
        ln_star = acquisition.log_argmin(*block, s0).tolist()
        batch = acquisition.thompson_batch(fit, s0, size, bounds, np.random.default_rng(seed))
        assert repr(batch.betas) == repr([acquisition.clamp_log_float(x, bounds) for x in ln_star])
        ln_lo, ln_hi = math.log(bounds[0]), math.log(bounds[1])
        assert batch.clamped_count == sum(x < ln_lo or x > ln_hi for x in ln_star)

    @settings(max_examples=300, deadline=None)
    @given(
        ln_beta=st.one_of(st.sampled_from([-math.inf, math.inf, math.nan]),
                          st.floats(-10.0, 10.0), st.floats()),
        beta_min=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0 + 1e-6, 1e4),
        snap=st.sampled_from([None, 0, 1]),
        ulps=st.integers(-3, 3),
    )
    def test_clamp_log_float_has_the_array_clamps_bits(self, ln_beta, beta_min, ratio, snap,
                                                       ulps):
        bounds = (beta_min, beta_min * ratio)
        if snap is not None:   # a few ulps from a log bound, where rounding decides
            ln_beta = math.log(bounds[snap])
            for _ in range(abs(ulps)):
                ln_beta = math.nextafter(ln_beta, math.copysign(math.inf, ulps))
        got = acquisition.clamp_log_float(ln_beta, bounds)
        (want,), _ = oracles.clamp_log([ln_beta], bounds)
        assert type(got) is float
        if math.isnan(ln_beta):
            assert math.isnan(got) and math.isnan(want)
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.one_of(st.floats(-5.0, 5.0), st.floats(-2e-12, 2e-12),
                          st.sampled_from([0.0, -0.0])),
                st.floats(-30.0, 30.0),
                st.floats(0.0, 4.0),
            ),
            min_size=1, max_size=20,
        ),
        s0=st.floats(1e-3, 1e3),
        beta_min=st.floats(1e-3, 1e3),
        ratio=st.floats(1.0 + 1e-6, 1e4),
    )
    def test_log_argmin_and_clamp_match_scalar_formula(self, draws, s0, beta_min, ratio):
        bounds = (beta_min, beta_min * ratio)
        ln_star = acquisition.log_argmin(*np.array(draws).T, s0)
        for i, (a, ln_b, eps2) in enumerate(draws):
            want = scalar_clamped_argmin(a, ln_b, eps2, s0, bounds)
            beta = acquisition.clamp_log_float(float(ln_star[i]), bounds)
            assert repr(float(ln_star[i])) == repr(scalar_log_argmin(a, ln_b, eps2, s0))
            if math.isnan(want[0]):
                assert math.isnan(beta)
            elif want[1]:
                assert beta == want[0]
            else:
                # Inside the closed interval: exp of a log bound may round
                # onto (or just past) the bound itself.
                assert bounds[0] <= beta <= bounds[1]
                assert beta == pytest.approx(want[0], rel=EPS_RTOL, abs=0)

    @settings(max_examples=500, deadline=None)
    @given(
        a=st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300])
        | st.floats(-1e-12, 1e-12) | st.floats(allow_nan=False),
        ln_b=st.floats(-1e3, 1e3),
        eps2=st.sampled_from([0.0]) | st.floats(0.0, 4.0),
        s0=st.floats(1e-3, 1e3),
        constant=st.booleans(),
    )
    def test_log_argmin_float_has_log_argmins_bits(self, a, ln_b, eps2, s0, constant):
        if constant:   # a zero numerator: 0 / 0 at a = +-0, a signed zero elsewhere
            ln_b, eps2 = math.log(s0), 0.0
        got = acquisition.log_argmin_float(a, ln_b, eps2, s0)
        assert type(got) is float
        block = acquisition.log_argmin(np.array([a]), np.array([ln_b]), np.array([eps2]), s0)
        # reprs: equal values, with the sign of a zero or an infinity, and NaN as NaN.
        assert repr(got) == repr(float(block[0]))
        assert repr(got) == repr(float(acquisition.log_argmin(a, ln_b, eps2, s0)))
        assert repr(got) == repr(scalar_log_argmin(a, ln_b, eps2, s0))
