"""Tests for the residual diagnostics."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import json_safe
from scalebo import diagnostics, glm
from scalebo.errors import DegenerateSample, InsufficientData, NoEligibleGroups


def grouped_dataset(noise, betas=(20.0, 60.0, 180.0), per_group=10_000, seed=0,
                    a=-0.5, ln_b=0.2):
    """Dataset on a known line with caller-supplied log-noise draws."""
    rng = np.random.default_rng(seed)
    all_beta, all_s = [], []
    for beta in betas:
        z = noise(rng, per_group)
        all_beta.append(np.full(per_group, beta))
        all_s.append(np.exp(a * math.log(beta) + ln_b + z))
    data, _ = glm.ingest(zip(np.concatenate(all_beta), np.concatenate(all_s)))
    return data


def naive_moments(x):
    """Two-pass reference implementation of the bias-corrected estimators."""
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    std = math.sqrt(n / (n - 1) * m2)
    g1 = m3 / m2**1.5
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    g2 = m4 / m2**2 - 3.0
    kurt = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    return mean, std, skew, kurt


def group_stats(fit, data, min_per_beta):
    """``residual_report``'s retained groups and dropped (beta, count) pairs."""
    report = diagnostics.residual_report(fit, data, min_per_beta=min_per_beta)
    return report.per_beta, report.dropped


class TestResidualStats:
    def test_gaussian_noise_moments(self):
        data = grouped_dataset(lambda rng, n: 1.0 * rng.standard_normal(n))
        fit = glm.fit(data)
        groups, dropped = group_stats(fit, data, min_per_beta=1000)
        assert dropped == []
        assert len(groups) == 3
        for g in groups:
            assert g.mean == pytest.approx(0.0, abs=0.05)
            assert g.excess_kurtosis == pytest.approx(0.0, abs=0.15)

    def test_log_abs_gaussian_noise_is_left_skewed(self):
        # Oracle: ln|z| for standard normal z has negative skewness.
        oracle = np.log(np.abs(np.random.default_rng(9).standard_normal(200_000)))
        assert scipy.stats.skew(oracle) < -0.5
        data = grouped_dataset(
            lambda rng, n: np.log(np.abs(rng.standard_normal(n))) + 0.6351814227860269
        )
        fit = glm.fit(data)
        groups, _ = group_stats(fit, data, min_per_beta=1000)
        assert all(g.skewness < 0.0 for g in groups)

    def test_small_groups_dropped_and_reported(self):
        data = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n),
                               betas=(10.0, 100.0), per_group=1500)
        extra = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n),
                                betas=(400.0,), per_group=200, seed=1)
        merged = glm.LogDataset(np.concatenate([data.beta, extra.beta]),
                                np.concatenate([data.s, extra.s]))
        fit = glm.fit(merged)
        groups, dropped = group_stats(fit, merged, min_per_beta=1000)
        assert [g.beta for g in groups] == [10.0, 100.0]
        assert dropped == [(400.0, 200)]

    def test_no_eligible_groups(self):
        data = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n), per_group=999)
        fit = glm.fit(data)
        with pytest.raises(NoEligibleGroups):
            group_stats(fit, data, min_per_beta=1000)

    def test_moments_match_naive_reference(self):
        rng = np.random.default_rng(3)
        data = grouped_dataset(lambda r, n: r.gamma(2.0, 1.0, n) - 2.0, per_group=2000)
        fit = glm.fit(data)
        groups, _ = group_stats(fit, data, min_per_beta=1000)
        resid = data.y - data.x @ fit.coef_hat
        for g in groups:
            ref = naive_moments(list(resid[data.beta == g.beta]))
            assert g.mean == pytest.approx(ref[0], abs=1e-10)
            assert g.std == pytest.approx(ref[1], rel=1e-10)
            assert g.skewness == pytest.approx(ref[2], rel=1e-10)
            assert g.excess_kurtosis == pytest.approx(ref[3], rel=1e-8, abs=1e-10)

    def test_interleaved_groups_match_masked_moments(self):
        # Many groups, rows in random order: each group's moments equal those
        # of its residuals picked out by a mask, in their original order.
        rng = np.random.default_rng(5)
        beta = rng.choice(np.exp(np.linspace(1.0, 6.0, 97)), size=9000)
        s = np.exp(-0.4 * np.log(beta) + 0.3 * rng.standard_t(4.0, beta.size))
        data, _ = glm.ingest(zip(beta, s))
        fit = glm.fit(data)
        groups, dropped = group_stats(fit, data, min_per_beta=90)
        resid = data.y - data.x @ fit.coef_hat
        assert [g.beta for g in groups] + [b for b, _ in dropped] != []
        assert sorted([g.beta for g in groups] + [b for b, _ in dropped]) == list(np.unique(beta))
        for b, count in dropped:
            assert count == np.count_nonzero(data.beta == b) < 90
        for g in groups:
            r = resid[data.beta == g.beta]
            assert g.count == r.size >= 90
            assert (g.mean, g.median, g.std) == (float(r.mean()), float(np.median(r)),
                                                 float(r.std(ddof=1)))
            shape = diagnostics._shape_moments(r)
            assert (g.skewness, g.excess_kurtosis) == (shape["skewness"], shape["excess_kurtosis"])

    # Fixed from the dtype before the property ran: a few hundred eps, in
    # the scale of the standardized moments (hence the absolute part).
    MOMENT_TOL = dict(rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(4, 1200),
        offset=st.floats(-50.0, 50.0),
        scale=st.floats(0.01, 3.0),
        family=st.sampled_from(["normal", "gamma", "student"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shape_moments_match_scipy(self, n, offset, scale, family, seed):
        rng = np.random.default_rng(seed)
        draws = {"normal": rng.standard_normal, "student": lambda k: rng.standard_t(5, k),
                 "gamma": lambda k: rng.gamma(2.0, 1.0, k)}[family](n)
        r = offset + scale * draws
        got = diagnostics._shape_moments(r)
        assert got["skewness"] == pytest.approx(
            scipy.stats.skew(r, bias=False), **self.MOMENT_TOL)
        assert got["excess_kurtosis"] == pytest.approx(
            scipy.stats.kurtosis(r, bias=False), **self.MOMENT_TOL)

    def test_small_groups_keep_their_nan_thresholds(self):
        r = np.array([0.3, -1.2, 0.8, 2.0])
        assert all(math.isnan(v) for v in diagnostics._shape_moments(r[:2]).values())
        three = diagnostics._shape_moments(r[:3])
        assert three["skewness"] == pytest.approx(scipy.stats.skew(r[:3], bias=False), rel=1e-12)
        assert math.isnan(three["excess_kurtosis"])
        assert math.isfinite(diagnostics._shape_moments(r)["excess_kurtosis"])

    def test_rounding_level_spread_is_nan_without_warning(self):
        # m2 at the rounding level of the mean: scipy's test m2 <= (eps mean)^2.
        mean = 7.3
        r = mean + np.array([0.0, 1.0, -1.0, 0.0, 1.0, 0.0]) * np.spacing(mean)
        for group in (r, np.zeros(6), np.full(6, mean)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = diagnostics._shape_moments(group)
            assert all(math.isnan(v) for v in got.values())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)   # scipy warns here
                assert math.isnan(scipy.stats.skew(group, bias=False))
                assert math.isnan(scipy.stats.kurtosis(group, bias=False))


class TestRollingSmooth:
    def test_constant_series_unchanged(self):
        series = np.full(17, 4.2)
        np.testing.assert_allclose(diagnostics.rolling_smooth(series, 6), series, rtol=1e-15)

    def test_window_one_is_identity(self):
        series = np.random.default_rng(0).standard_normal(9)
        np.testing.assert_array_equal(diagnostics.rolling_smooth(series, 1), series)

    def test_linear_ramp_interior_unchanged(self):
        series = np.arange(20, dtype=float) * 0.7 - 3.0
        smoothed = diagnostics.rolling_smooth(series, 6)
        np.testing.assert_allclose(smoothed[3:-3], series[3:-3], rtol=1e-13)
        assert smoothed.size == series.size

    def test_odd_window_linear_ramp(self):
        series = np.arange(15, dtype=float)
        smoothed = diagnostics.rolling_smooth(series, 5)
        np.testing.assert_allclose(smoothed[2:-2], series[2:-2], rtol=1e-13)

    def test_smoothing_is_linear(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(25), rng.standard_normal(25)
        alpha = 1.7
        left = diagnostics.rolling_smooth(alpha * u + v, 6)
        right = alpha * diagnostics.rolling_smooth(u, 6) + diagnostics.rolling_smooth(v, 6)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


class TestSpecialFunctions:
    """psi and psi' through diagnostics._gaps against scipy.special, the
    test-only oracle."""

    @staticmethod
    def psi_pair(x):
        gap, slope_gap = diagnostics._gaps(x)
        return math.log(x) - gap, slope_gap + 1.0 / x

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(0.01, 1e6))
    def test_digamma_and_trigamma_match_scipy(self, x):
        psi, psi1 = self.psi_pair(x)
        for got, want in ((psi, float(scipy.special.digamma(x))),
                          (psi1, float(scipy.special.polygamma(1, x)))):
            assert abs(got - want) <= 1e-12 + 1e-12 * abs(want)

    @pytest.mark.parametrize("x", [0.01, 1.0, 1.4616321449683622, 5.999999, 6.0, 6.5, 1e6])
    def test_recurrence_and_series_edges(self, x):
        psi, psi1 = self.psi_pair(x)
        assert psi == pytest.approx(scipy.special.digamma(x), rel=1e-13, abs=1e-13)
        assert psi1 == pytest.approx(scipy.special.polygamma(1, x), rel=1e-13)


class TestGammaFit:
    """The closed-form Gamma fit against scipy.stats.gamma.fit(floc=0)."""

    @staticmethod
    def sample(kind, shape, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "gamma":
            return np.log(rng.gamma(shape, 1.0 / shape, n))
        shift = 0.3 if kind == "shifted" else 0.0
        return np.log(shift + np.exp(rng.normal(0.0, 0.5, n)))

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["gamma", "lognormal", "shifted"]),
        shape=st.floats(0.3, 1e4),
        n=st.integers(100, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_mle(self, kind, shape, n, seed):
        res = self.sample(kind, shape, n, seed)
        got = diagnostics.fit_residual_families(res).fits["gamma"]
        e = np.exp(res)
        k, _, theta = scipy.stats.gamma.fit(e, floc=0.0)
        assert got.params["shape"] == pytest.approx(k, rel=1e-9)
        assert got.params["scale"] == pytest.approx(theta, rel=1e-9)
        # SciPy's log-likelihood, at its own less converged MLE, is never
        # above ours by more than 1e-12 relative plus its own rounding: each
        # of its n log-pdf terms sums (k - 1) ln(e / theta) and ln Gamma(k),
        # about k ln k each, so it rounds to a few eps k ln k (7e-12
        # relative at k = 9000, n = 100, where ours matched a 50-digit sum).
        scipy_ll = float(np.sum(scipy.stats.gamma.logpdf(e, k, scale=theta)))
        rounding = 4 * n * np.finfo(float).eps * (1.0 + k * abs(math.log(k)) + abs(math.lgamma(k)))
        assert got.log_likelihood >= scipy_ll - 1e-12 * abs(scipy_ll) - rounding

    def test_gaussian_log_likelihood_is_the_closed_form(self):
        res = np.random.default_rng(12).normal(0.0, 0.3, 2000)
        e = np.exp(res)
        got = diagnostics.fit_residual_families(res).fits["gaussian"]
        want = float(np.sum(scipy.stats.norm.logpdf(e, loc=e.mean(), scale=e.std())))
        assert got.log_likelihood == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spread", [1e-9, 1e-12, 0.0])
    @pytest.mark.parametrize("offset", [0.0, -1.2, 30.0])
    def test_rounding_level_spread_is_degenerate(self, spread, offset):
        # ln(mean e) - mean(ln e) is about spread^2 / 2, below 8 eps.
        res = offset + spread * np.random.default_rng(4).standard_normal(1200)
        with pytest.raises(DegenerateSample, match="rounding level"):
            diagnostics.fit_residual_families(res)

    def test_spread_just_above_rounding_level_still_fits(self):
        # s = sigma^2 / 2 = 5e-13, thousands of eps: shape about 1/(2 s).
        res = 1e-6 * np.random.default_rng(4).standard_normal(1200)
        fit = diagnostics.fit_residual_families(res).fits["gamma"]
        e = np.exp(res)
        s = math.log(e.mean()) - float(np.log(e).mean())
        assert fit.params["shape"] == pytest.approx(1.0 / (2.0 * s), rel=1e-3)
        assert math.isfinite(fit.log_likelihood)


class TestFitResidualFamilies:
    def test_gamma_sample_ranks_gamma_first(self):
        draws = np.random.default_rng(77).gamma(4.0, 1.0, size=5000)
        ranking = diagnostics.fit_residual_families(np.log(draws))
        assert ranking.ranking[0] == "gamma"
        assert ranking.fits["gamma"].params["shape"] == pytest.approx(4.0, rel=0.10)

    def test_lognormal_sample_prefers_shifted_lognormal(self):
        resid = np.random.default_rng(78).normal(0.0, 0.5, size=5000)
        ranking = diagnostics.fit_residual_families(resid)
        ll_sln = ranking.fits["shifted_lognormal"].log_likelihood
        ll_gamma = ranking.fits["gamma"].log_likelihood
        assert ll_sln >= ll_gamma - 0.01 * abs(ll_gamma)
        assert abs(ranking.fits["shifted_lognormal"].params["shift"]) < 0.2

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSample):
            diagnostics.fit_residual_families(np.zeros(500))

    def test_too_few_residuals(self):
        with pytest.raises(InsufficientData):
            diagnostics.fit_residual_families(np.random.default_rng(0).standard_normal(99))

    def test_one_far_residual_keeps_every_fit(self):
        # exp(400)**2 is beyond float range: e.std() overflowed, the shift
        # grid became NaN and the fit raised DegenerateSample.
        res = np.append(0.3 * np.random.default_rng(5).standard_normal(1199), 400.0)
        ranking = diagnostics.fit_residual_families(res)
        assert all(math.isfinite(fit.log_likelihood) for fit in ranking.fits.values())
        e = np.exp(res)
        gaussian = ranking.fits["gaussian"].params
        assert gaussian["mean"] == pytest.approx(math.fsum(e) / e.size, rel=1e-12)
        assert gaussian["std"] == pytest.approx(float(np.std(e / e.max())) * e.max(), rel=1e-12)


def shift_profile_loop(res):
    """Reference: the shifted log-normal profile as one scalar pass per shift."""
    e = np.exp(np.asarray(res, dtype=float))
    n = e.size
    e_min, e_std = float(e.min()), float(e.std())
    best_shift, best_ll, best_mu, best_sig = None, -math.inf, None, None
    grid = np.linspace(e_min - 2.0 * e_std, e_min, diagnostics.SHIFT_GRID_POINTS, endpoint=False)
    for shift in grid:
        t = np.log(e - shift)
        mu, sig = float(t.mean()), float(t.std())
        if sig == 0.0:
            continue
        ll = float(-n * math.log(sig) - 0.5 * n * math.log(2.0 * math.pi)
                   - t.sum() - 0.5 * np.sum((t - mu) ** 2) / sig**2)
        if ll > best_ll:
            best_shift, best_ll, best_mu, best_sig = float(shift), ll, mu, sig
    return {"shift": best_shift, "mu": best_mu, "sigma": best_sig}, best_ll


class TestShiftProfile:
    """The shifted log-normal fit equals the per-shift loop bit for bit."""

    @pytest.mark.parametrize("sample", [
        lambda rng: np.log(rng.gamma(4.0, 0.25, 1200)),
        lambda rng: rng.normal(0.0, 0.5, 1200),
        lambda rng: 1e-3 * rng.standard_normal(300),
        lambda rng: 0.2 * rng.standard_t(2.0, 2000),
        lambda rng: np.log(rng.gamma(1.0, 1.0, 5001)),
    ], ids=["gamma", "normal", "small-spread", "student-t2", "exponential"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_loop(self, sample, seed):
        res = sample(np.random.default_rng(seed))
        fit = diagnostics.fit_residual_families(res).fits["shifted_lognormal"]
        params, ll = shift_profile_loop(res)
        assert fit.params == params
        assert fit.log_likelihood == ll

    @pytest.mark.parametrize("rows_per_block", [1, 7, 49])
    def test_grid_split_into_blocks(self, monkeypatch, rows_per_block):
        res = np.log(np.random.default_rng(4).gamma(2.0, 0.5, 800))
        monkeypatch.setattr(diagnostics, "SHIFT_BLOCK_ELEMENTS", rows_per_block * res.size)
        fit = diagnostics.fit_residual_families(res).fits["shifted_lognormal"]
        assert (fit.params, fit.log_likelihood) == shift_profile_loop(res)

    def test_constant_sample_still_degenerate(self):
        with pytest.raises(DegenerateSample):
            diagnostics.fit_residual_families(np.full(500, 0.25))


def oracle_sample(kind, n, seed, scale):
    """A positive sample of ``n`` values for the oracle properties below."""
    rng = np.random.default_rng(seed)
    if kind == "lognormal":
        return np.exp(scale * rng.standard_normal(n))
    if kind == "gamma":
        return scale * rng.gamma(4.0, 0.25, n)
    if kind == "decades":   # up to 10**(+-scale * 100)
        return 10.0 ** (scale * rng.uniform(-100.0, 100.0, n))
    if kind == "tied":      # most values equal: an interquartile range of 0
        out = np.full(n, 1.0 + scale)
        out[rng.choice(n, size=n // 5, replace=False)] = rng.uniform(0.5, 5.0, n // 5)
        return out
    if kind == "constant":
        return np.full(n, scale)
    if kind == "outlier":   # a tight sample and one value far out
        out = 1.0 + 1e-9 * rng.standard_normal(n)
        out[rng.integers(n)] = 1.0 + 1e3 * scale
        return out
    raise ValueError(kind)


sample_args = dict(
    n=st.integers(100, 3000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 3.0),
)


class TestOraclePasses:
    """The shift profile and the FD histogram carry the bits of the numpy
    forms in ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["lognormal", "gamma", "decades", "tied", "outlier"]),
           **sample_args)
    @example(kind="decades", n=3000, seed=1, scale=3.0)
    @example(kind="lognormal", n=100, seed=2, scale=1e-3)
    def test_shift_profile_matches_oracle(self, kind, n, seed, scale):
        e = oracle_sample(kind, n, seed, scale)
        e_min, sigma = float(e.min()), diagnostics._mean_std(e)[1]
        shifts = np.linspace(e_min - 2.0 * sigma, e_min, diagnostics.SHIFT_GRID_POINTS,
                             endpoint=False)
        got = diagnostics._shift_profile(e, shifts)
        want = oracles.shift_profile(e, shifts)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["lognormal", "gamma", "decades", "tied", "constant",
                                 "outlier"]), **sample_args)
    @example(kind="decades", n=3000, seed=1, scale=3.0)
    @example(kind="outlier", n=1000, seed=2, scale=1e-3)
    def test_mean_std_matches_oracle_where_it_stays_finite(self, kind, n, seed, scale):
        # numpy's own e.mean() and e.std() where their squares stay in
        # float range; where they leave it, the same moments of e / max(e).
        e = oracle_sample(kind, n, seed, scale)
        got = diagnostics._mean_std(e)
        with np.errstate(over="ignore"):
            want = oracles.mean_std(e)
        if math.isfinite(want[1]):
            assert got == want
        else:
            top = float(e.max())
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(float(np.std(e / top)) * top, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["lognormal", "gamma", "decades", "tied", "constant",
                                 "outlier"]), **sample_args)
    @example(kind="tied", n=100, seed=0, scale=1.0)
    @example(kind="constant", n=150, seed=0, scale=2.5)
    @example(kind="outlier", n=3000, seed=3, scale=3.0)
    @example(kind="decades", n=2500, seed=4, scale=3.0)
    def test_histogram_matches_oracle(self, kind, n, seed, scale):
        values = oracle_sample(kind, n, seed, scale)
        edges, counts = diagnostics.histogram_fd(values)
        want_edges, want_counts = oracles.histogram_fd(values)
        assert edges.tobytes() == want_edges.tobytes()
        assert counts.tobytes() == want_counts.tobytes()

    @pytest.mark.parametrize("kind, bins", [("tied", 1), ("constant", 1), ("outlier", 2000)])
    def test_histogram_edge_cases_reach_their_branch(self, kind, bins):
        # Width 0 gives one bin; a far outlier gives one bin per value.
        edges, counts = diagnostics.histogram_fd(oracle_sample(kind, 2000, 5, 1.0))
        assert counts.size == bins == edges.size - 1


class TestReport:
    @pytest.fixture()
    def report_and_data(self):
        data = grouped_dataset(lambda rng, n: np.log(rng.gamma(4.0, 0.25, n)), per_group=2000)
        fit = glm.fit(data)
        report = diagnostics.residual_report(fit, data, min_per_beta=1000)
        return report, data

    def test_smoothed_series_align_with_raw(self, report_and_data):
        report, _ = report_and_data
        assert len(report.smoothed) == len(report.per_beta)
        assert [g.beta for g in report.smoothed] == [g.beta for g in report.per_beta]

    def test_family_slice_defaults_to_largest_group(self, report_and_data):
        report, _ = report_and_data
        assert report.fit_beta in {g.beta for g in report.per_beta}
        assert report.families is not None
        assert report.families.ranking[0] == "gamma"

    def test_parts_equal_the_public_passes(self, report_and_data):
        report, data = report_and_data
        fit = glm.fit(data)
        resid = data.y - data.x @ fit.coef_hat
        assert (report.per_beta, report.dropped) == diagnostics._group_stats(resid, data.beta, 1000)
        resid = resid[data.beta == report.fit_beta]
        assert report.families == diagnostics.fit_residual_families(resid)
        edges, counts = diagnostics.histogram_fd(np.exp(resid))
        assert report.histogram[0].tobytes() == edges.tobytes()
        assert report.histogram[1].tobytes() == counts.tobytes()

    def test_histogram_uses_freedman_diaconis_bins(self, report_and_data):
        report, data = report_and_data
        edges, counts = report.histogram
        assert counts.sum() > 0
        fit_rows = data.beta == report.fit_beta
        resid = (data.y - data.x @ np.array([0.0, 0.0]))
        # reconstruct: same sample, same rule
        fit = glm.fit(data)
        sample = np.exp((data.y - data.x @ fit.coef_hat)[fit_rows])
        np.testing.assert_allclose(edges, np.histogram_bin_edges(sample, bins="fd"))

    def test_export_files(self, tmp_path, report_and_data):
        report, _ = report_and_data
        diagnostics.save_report_json(report, tmp_path / "report.json")
        diagnostics.save_groups_csv(report, tmp_path / "groups.csv")
        diagnostics.save_histogram_csv(report, tmp_path / "hist.csv")
        import csv as csvmod
        import json

        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["families"]["ranking"][0] == "gamma"
        with open(tmp_path / "groups.csv") as fh:
            rows = list(csvmod.reader(fh))
        assert rows[0][:2] == ["beta", "count"]
        assert len(rows) == 1 + len(report.per_beta)
        with open(tmp_path / "hist.csv") as fh:
            hrows = list(csvmod.reader(fh))
        assert hrows[0] == ["bin_left", "bin_right", "count"]
        assert sum(int(r[2]) for r in hrows[1:]) == int(sum(report.histogram[1]))

    def test_rounding_level_spread_skips_the_families(self):
        data = grouped_dataset(lambda rng, n: 1e-9 * rng.standard_normal(n), per_group=1200)
        report = diagnostics.residual_report(glm.fit(data), data, min_per_beta=1000)
        assert report.families is None and report.histogram is None
        assert len(report.per_beta) == 3

    def test_explicit_slice_must_exist(self, report_and_data):
        _, data = report_and_data
        fit = glm.fit(data)
        with pytest.raises(NoEligibleGroups):
            diagnostics.residual_report(fit, data, min_per_beta=1000, fit_beta=999.0)

    def test_undefined_moments_are_null_in_strict_json(self, tmp_path, report_and_data):
        # Single-row groups have no sample std, skewness or kurtosis.
        _, data = report_and_data
        sparse = glm.LogDataset(np.append(data.beta, [5.0, 7.0]), np.append(data.s, [1.0, 2.0]))
        report = diagnostics.residual_report(glm.fit(sparse), sparse, min_per_beta=1)
        assert math.isnan(report.per_beta[0].std)
        path = tmp_path / "report.json"
        diagnostics.save_report_json(report, path)

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        assert list(doc) == ["per_beta", "smoothed", "dropped", "fit_beta", "families"]
        assert doc == json_safe({
            "per_beta": report.per_beta,
            "smoothed": report.smoothed,
            "dropped": [{"beta": b, "count": c} for b, c in report.dropped],
            "fit_beta": report.fit_beta,
            "families": report.families,
        })
        first = doc["per_beta"][0]
        assert first["beta"] == 5.0 and first["count"] == 1
        assert first["std"] is None and first["skewness"] is None
        assert first["mean"] == report.per_beta[0].mean
