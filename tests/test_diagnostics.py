"""Tests for the residual diagnostics."""

import json
import math

import numpy as np
import pytest

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


class TestResidualStats:
    def test_gaussian_noise_moments(self):
        data = grouped_dataset(lambda rng, n: 1.0 * rng.standard_normal(n))
        fit = glm.fit(data)
        groups, dropped = diagnostics.residual_stats(fit, data, min_per_beta=1000)
        assert dropped == []
        assert len(groups) == 3
        for g in groups:
            assert g.mean == pytest.approx(0.0, abs=0.05)
            assert g.excess_kurtosis == pytest.approx(0.0, abs=0.15)

    def test_log_abs_gaussian_noise_is_left_skewed(self):
        # Oracle: ln|z| for standard normal z has negative skewness.
        oracle = np.log(np.abs(np.random.default_rng(9).standard_normal(200_000)))
        import scipy.stats

        assert scipy.stats.skew(oracle) < -0.5
        data = grouped_dataset(
            lambda rng, n: np.log(np.abs(rng.standard_normal(n))) + 0.6351814227860269
        )
        fit = glm.fit(data)
        groups, _ = diagnostics.residual_stats(fit, data, min_per_beta=1000)
        assert all(g.skewness < 0.0 for g in groups)

    def test_small_groups_dropped_and_reported(self):
        data = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n),
                               betas=(10.0, 100.0), per_group=1500)
        extra = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n),
                                betas=(400.0,), per_group=200, seed=1)
        merged = data.with_observations(extra.beta, extra.s)
        fit = glm.fit(merged)
        groups, dropped = diagnostics.residual_stats(fit, merged, min_per_beta=1000)
        assert [g.beta for g in groups] == [10.0, 100.0]
        assert dropped == [(400.0, 200)]

    def test_no_eligible_groups(self):
        data = grouped_dataset(lambda rng, n: 0.3 * rng.standard_normal(n), per_group=999)
        fit = glm.fit(data)
        with pytest.raises(NoEligibleGroups):
            diagnostics.residual_stats(fit, data, min_per_beta=1000)

    def test_moments_match_naive_reference(self):
        rng = np.random.default_rng(3)
        data = grouped_dataset(lambda r, n: r.gamma(2.0, 1.0, n) - 2.0, per_group=2000)
        fit = glm.fit(data)
        groups, _ = diagnostics.residual_stats(fit, data, min_per_beta=1000)
        resid = data.y - data.x @ fit.coef_hat
        for g in groups:
            ref = naive_moments(list(resid[data.beta == g.beta]))
            assert g.mean == pytest.approx(ref[0], abs=1e-10)
            assert g.std == pytest.approx(ref[1], rel=1e-10)
            assert g.skewness == pytest.approx(ref[2], rel=1e-10)
            assert g.excess_kurtosis == pytest.approx(ref[3], rel=1e-8, abs=1e-10)


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


class TestFitResidualFamilies:
    def test_gamma_sample_ranks_gamma_first(self):
        draws = np.random.default_rng(77).gamma(4.0, 1.0, size=5000)
        ranking = diagnostics.fit_residual_families(np.log(draws))
        assert ranking.ranking[0] == "gamma"
        assert ranking["gamma"].params["shape"] == pytest.approx(4.0, rel=0.10)

    def test_lognormal_sample_prefers_shifted_lognormal(self):
        resid = np.random.default_rng(78).normal(0.0, 0.5, size=5000)
        ranking = diagnostics.fit_residual_families(resid)
        ll_sln = ranking["shifted_lognormal"].log_likelihood
        ll_gamma = ranking["gamma"].log_likelihood
        assert ll_sln >= ll_gamma - 0.01 * abs(ll_gamma)
        assert abs(ranking["shifted_lognormal"].params["shift"]) < 0.2

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSample):
            diagnostics.fit_residual_families(np.zeros(500))

    def test_too_few_residuals(self):
        with pytest.raises(InsufficientData):
            diagnostics.fit_residual_families(np.random.default_rng(0).standard_normal(99))


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

    def test_explicit_slice_must_exist(self, report_and_data):
        _, data = report_and_data
        fit = glm.fit(data)
        with pytest.raises(NoEligibleGroups):
            diagnostics.residual_report(fit, data, min_per_beta=1000, fit_beta=999.0)

    def test_undefined_moments_are_null_in_strict_json(self, tmp_path, report_and_data):
        # Single-row groups have no sample std, skewness or kurtosis.
        _, data = report_and_data
        sparse = data.with_observations([5.0, 7.0], [1.0, 2.0])
        report = diagnostics.residual_report(glm.fit(sparse), sparse, min_per_beta=1)
        assert math.isnan(report.per_beta[0].std)
        path = tmp_path / "report.json"
        diagnostics.save_report_json(report, path)

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
        assert doc == diagnostics.report_to_json_dict(report)
        first = doc["per_beta"][0]
        assert first["beta"] == 5.0 and first["count"] == 1
        assert first["std"] is None and first["skewness"] is None
        assert first["mean"] == report.per_beta[0].mean
