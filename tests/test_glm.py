"""Tests for the conjugate log-log linear model.

Expected values marked as derived were computed from independent oracles
(direct transforms of scipy draws, analytic moments of the scaled
inverse chi-squared law) before being frozen here.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalebo import glm
from scalebo.errors import DegenerateVariance, InsufficientData, RankDeficient


def line_dataset(a=-0.5, ln_b=math.log(2.0), betas=(1.0, 10.0, 100.0)):
    """Noise-free observations lying exactly on a log-log line."""
    betas = np.asarray(betas, dtype=float)
    s = np.exp(a * np.log(betas) + ln_b)
    data, rejected = glm.ingest(zip(betas, s))
    assert rejected == 0
    return data


# Row entries with every reason to reject a row: NaN, +-inf, 0, -0 and negatives.
ROW_VALUES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf,
                                                     -math.inf, 2.0]))


class TestIngest:
    def test_log_transform_single_row(self):
        data, rejected = glm.ingest([(math.e, math.e**2)])
        assert rejected == 0
        np.testing.assert_allclose(data.x, [[1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(data.y, [2.0], atol=1e-15)

    def test_zero_statistic_rejected_not_logged(self):
        data, rejected = glm.ingest([(1.0, 0.0)])
        assert rejected == 1
        assert data.n == 0

    def test_direct_transform(self):
        data, rejected = glm.ingest([(2.0, 3.0), (4.0, 1.5)])
        assert rejected == 0
        np.testing.assert_allclose(data.x[:, 0], [math.log(2), math.log(4)])
        np.testing.assert_allclose(data.x[:, 1], [1.0, 1.0])
        np.testing.assert_allclose(data.y, [math.log(3), math.log(1.5)])

    def test_array_pass_matches_row_loop(self):
        # Reference: the same reject rule applied row by row.
        rng = np.random.default_rng(13)
        pool = [math.inf, -math.inf, math.nan, 0.0, -0.0, -1.5, 1e-300, 2.5, 7.0, 1e300]
        rows = [(pool[i], pool[j]) for i, j in rng.integers(0, len(pool), (500, 2))]
        kept = [(float(b), float(s)) for b, s in rows
                if math.isfinite(b) and math.isfinite(s) and b > 0 and s > 0]
        data, rejected = glm.ingest(rows)
        assert rejected == len(rows) - len(kept)
        np.testing.assert_array_equal(data.beta, [b for b, _ in kept])
        np.testing.assert_array_equal(data.s, [s for _, s in kept])

    def test_unconvertible_value_raises(self):
        with pytest.raises(TypeError):
            glm.ingest([(1.0, 2.0), (None, 1.0)])
        with pytest.raises(ValueError):
            glm.ingest([(1.0, "abc")])

    def test_nonfinite_and_negative_rows_rejected(self):
        rows = [(1.0, math.inf), (math.nan, 1.0), (-2.0, 1.0), (1.0, -0.5), (3.0, 2.0)]
        data, rejected = glm.ingest(rows)
        assert rejected == 4
        assert data.n == 1
        assert data.beta[0] == 3.0

    @pytest.mark.parametrize("beta,s", [
        ([4.0, math.nan], [5.0, 1.0]),
        ([4.0, 6.0], [5.0, math.nan]),
        ([0.0], [5.0]),
        ([4.0], [0.0]),
        ([-4.0], [5.0]),
        ([4.0], [-5.0]),
        ([math.inf], [5.0]),
        ([4.0, 5.0], [1.0]),
    ])
    def test_dataset_checks_its_rows(self, beta, s):
        with pytest.raises(ValueError):
            glm.LogDataset(np.array([2.0, 3.0, *beta]), np.array([3.0, 4.0, *s]))

    @settings(max_examples=300, deadline=None)
    @given(batches=st.lists(st.lists(st.tuples(ROW_VALUES, ROW_VALUES), max_size=12),
                            min_size=1, max_size=6))
    def test_ingest_of_concatenated_batches_is_the_batches_ingested(self, batches):
        # driver.run ingests every row drawn so far, once per record.
        arrays = [np.array(batch, dtype=float).reshape(-1, 2) for batch in batches]
        parts = [glm.ingest(rows) for rows in arrays]
        for k in range(1, len(arrays) + 1):
            whole, rejected = glm.ingest(np.concatenate(arrays[:k]))
            assert rejected == sum(r for _, r in parts[:k])
            for name in ("beta", "s"):
                joined = np.concatenate([getattr(data, name) for data, _ in parts[:k]])
                assert getattr(whole, name).tobytes() == joined.tobytes()

    def test_array_rows_ingest_as_tuples_do(self):
        rows = [(2.0, 3.0), (math.nan, 1.0), (4.0, 0.0), (5.0, -1.0), (6.0, math.inf),
                (7.0, 2.5), (-1.0, 2.0), (8.0, 0.5)]
        by_tuple, rejected = glm.ingest(rows)
        # The driver's layout: a transposed (2, n) block.
        by_array, rejected_array = glm.ingest(np.array(list(zip(*rows))).T)
        assert rejected_array == rejected == 5
        assert by_array.beta.tobytes() == by_tuple.beta.tobytes()
        assert by_array.s.tobytes() == by_tuple.s.tobytes()
        assert glm.ingest(np.empty((0, 2)))[0].n == 0


class TestFit:
    def test_noiseless_line_is_interpolated_exactly(self):
        fit = glm.fit(line_dataset())
        np.testing.assert_allclose(fit.coef_hat, [-0.5, math.log(2.0)], atol=1e-12)
        assert fit.s2 == pytest.approx(0.0, abs=1e-25)
        assert fit.dof == 1

    def test_recovers_generator_parameters(self):
        # 5000 draws from the generating law with a = -0.5798, eps = 0.5;
        # the +-0.02 margin on the exponent is ~5 standard errors.
        rng = np.random.default_rng(0)
        beta = np.exp(rng.uniform(0.0, math.log(1000.0), 5000))
        s = np.exp(-0.5798 * np.log(beta) + 0.5 * rng.standard_normal(5000))
        data, _ = glm.ingest(zip(beta, s))
        fit = glm.fit(data)
        assert fit.a_hat == pytest.approx(-0.5798, abs=0.02)
        assert fit.s2 == pytest.approx(0.25, rel=0.10)

    def test_identical_betas_are_rank_deficient(self):
        data, _ = glm.ingest([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])
        with pytest.raises(RankDeficient):
            glm.fit(data)

    def test_too_few_rows(self):
        data, _ = glm.ingest([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(InsufficientData):
            glm.fit(data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_residual_orthogonal_to_design(self, seed):
        rng = np.random.default_rng(seed)
        beta = np.exp(rng.uniform(-2.0, 6.0, 200))
        s = np.exp(0.7 * np.log(beta) - 1.0 + 0.8 * rng.standard_normal(200))
        data, _ = glm.ingest(zip(beta, s))
        fit = glm.fit(data)
        resid = data.y - data.x @ fit.coef_hat
        assert np.linalg.norm(data.x.T @ resid) <= 1e-10 * np.linalg.norm(data.y)

    def test_v_theta_matches_normal_equations_and_is_psd(self):
        rng = np.random.default_rng(4)
        beta = np.exp(rng.uniform(0.0, 5.0, 50))
        s = np.exp(-0.3 * np.log(beta) + 0.1 * rng.standard_normal(50))
        data, _ = glm.ingest(zip(beta, s))
        fit = glm.fit(data)
        direct = np.linalg.inv(data.x.T @ data.x)
        np.testing.assert_allclose(fit.v_theta, direct, rtol=1e-8)
        np.testing.assert_allclose(fit.v_theta, fit.v_theta.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(fit.v_theta) >= 0)


EPS = np.finfo(float).eps


def exact_least_squares(x, y):
    """(a_hat, ln_b_hat, s2) of the float inputs in exact rational arithmetic."""
    xs = [Fraction(float(v)) for v in x]
    ys = [Fraction(float(v)) for v in y]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(u * u for u in xs)
    sxy = sum(u * v for u, v in zip(xs, ys))
    a = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    ln_b = (sy - a * sx) / n
    s2 = sum((v - a * u - ln_b) ** 2 for u, v in zip(xs, ys)) / (n - 2)
    return a, ln_b, s2


def qr_rank_deficient(data):
    """The rank test on the diagonal of the design's QR factor."""
    diag = np.abs(np.diag(np.linalg.qr(data.x)[1]))
    return bool(diag.min() <= glm.RANK_RTOL * diag.max())


class TestClosedFormFit:
    @pytest.mark.parametrize("spread", [1e-2, 1e-4, 1e-6])
    def test_matches_exact_rational_reference(self, spread):
        # 200 betas around 1e8 at the given relative spread; the noise is a
        # tenth of the slope's signal, so the estimates are well conditioned
        # in the data and only the algorithm's rounding is measured.
        rng = np.random.default_rng(9)
        beta = 1e8 * (1.0 + spread * rng.uniform(-1.0, 1.0, 200))
        s = np.exp(-0.5 * np.log(beta) + 3.0 + 0.1 * spread * rng.standard_normal(200))
        data = glm.LogDataset(beta, s)
        fit = glm.fit(data)
        exact = exact_least_squares(np.log(data.beta), data.y)
        for got, want in zip((fit.a_hat, fit.ln_b_hat, fit.s2), exact):
            assert abs(Fraction(got) - want) <= Fraction(64 * EPS) * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.floats(-20.0, 20.0),
        log_width=st.floats(-3.0, 1.3),
        offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=38),
    )
    def test_v_theta_and_root_match_references(self, center, log_width, offsets):
        # ln(beta) spans [center - width, center + width]; v_theta must equal
        # the exact inverse of X^T X, and the closed-form root must equal
        # LAPACK's Cholesky factor, each within a fixed multiple of eps in
        # the scale of the matrix (rows of the root: v_ii / L_ii).
        width = 10.0**log_width
        ln_beta = center + width * np.array([-1.0, 1.0] + offsets)
        data = glm.LogDataset(np.exp(ln_beta), np.ones(ln_beta.size))
        fit = glm.fit(data)
        xs = [Fraction(float(v)) for v in np.log(data.beta)]
        n, sx, sxx = len(xs), sum(xs), sum(u * u for u in xs)
        det = n * sxx - sx * sx
        exact = np.array([[float(n / det), float(-sx / det)],
                          [float(-sx / det), float(sxx / det)]])
        scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
        assert np.all(np.abs(fit.v_theta - exact) <= 64 * EPS * scale)

        root = glm._cholesky_2x2(fit.v_theta)
        lapack = np.linalg.cholesky(fit.v_theta)
        row_tol = 64 * EPS * np.diag(fit.v_theta) / np.diag(lapack)
        assert np.all(np.abs(root - lapack) <= row_tol[:, None])

    @pytest.mark.parametrize(
        "center, spread, deficient",
        [
            (1e8, 1e-8, True),     # |R_22| / |R_11| about 2e-11
            (1e8, 1e-6, False),    # about 2e-9
            (1.0, 1e-12, True),    # ln(beta) near 0: |R_11| / |R_22| about 6e-13
            (1.0, 1e-8, False),    # about 6e-9
        ],
    )
    def test_rank_test_keeps_the_qr_criterion(self, center, spread, deficient):
        rng = np.random.default_rng(10)
        beta = center * (1.0 + spread * rng.uniform(-1.0, 1.0, 50))
        data = glm.LogDataset(beta, np.exp(0.3 * rng.standard_normal(50)))
        assert qr_rank_deficient(data) is deficient
        if deficient:
            with pytest.raises(RankDeficient):
                glm.fit(data)
        else:
            glm.fit(data)

    @settings(max_examples=300, deadline=None)
    @given(
        log10_center=st.floats(-3.0, 13.0),
        log10_spread=st.floats(-14.0, -2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_fit_can_be_sampled(self, log10_center, log10_spread, seed):
        # 200 betas at a relative spread around the center: the fit either
        # refuses them as rank deficient or its posterior can be sampled.
        rng = np.random.default_rng(seed)
        spread = 10.0**log10_spread * rng.uniform(-1.0, 1.0, 200)
        data = glm.LogDataset(10.0**log10_center * (1.0 + spread),
                              np.exp(0.3 * rng.standard_normal(200)))
        try:
            fit = glm.fit(data)
        except RankDeficient:
            return
        a, ln_b, eps2 = glm.sample_posterior(fit, 16, np.random.default_rng(seed))
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(ln_b)) and np.all(eps2 > 0)


def synthetic_fit(dof=100, s2=1.0):
    return glm.GlmFit(
        coef_hat=np.array([-0.5, 0.2]),
        s2=s2,
        v_theta=np.array([[0.02, -0.01], [-0.01, 0.03]]),
        dof=dof,
    )


class TestSamplePosterior:
    def test_noise_variance_moment(self):
        # E[eps2] = dof * s2 / (dof - 2); cross-checked against a direct
        # transform of independent scipy chi-squared draws.
        fit = synthetic_fit(dof=100, s2=1.0)
        _, _, eps2 = glm.sample_posterior(fit, 100_000, np.random.default_rng(42))
        analytic = 100 * 1.0 / 98
        assert eps2.mean() == pytest.approx(analytic, rel=0.01)
        oracle = 100 * 1.0 / scipy.stats.chi2.rvs(100, size=200_000, random_state=7)
        assert eps2.mean() == pytest.approx(oracle.mean(), rel=0.01)

    def test_total_coefficient_covariance(self):
        # Law of total covariance: Cov[theta] = E[eps2] * V_theta.
        fit = synthetic_fit(dof=20, s2=0.25)
        a, ln_b, _ = glm.sample_posterior(fit, 100_000, np.random.default_rng(42))
        theta = np.column_stack([a, ln_b])
        target = (20 * 0.25 / 18) * fit.v_theta
        np.testing.assert_allclose(np.cov(theta.T), target, rtol=0.05)

    def test_zero_variance_collapses(self):
        with pytest.raises(DegenerateVariance):
            glm.sample_posterior(synthetic_fit(s2=0.0), 10, np.random.default_rng(0))

    def test_seed_determinism(self):
        fit = synthetic_fit()
        first = glm.sample_posterior(fit, 50, np.random.default_rng(11))
        second = glm.sample_posterior(fit, 50, np.random.default_rng(11))
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            glm.sample_posterior(synthetic_fit(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "v_theta",
        [
            [[0.0, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            # np.linalg.cholesky returns NaN factors for these two.
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, math.nan]],
        ],
    )
    def test_non_positive_definite_v_theta_raises(self, v_theta):
        fit = glm.GlmFit(coef_hat=np.array([-0.5, 0.2]), s2=1.0,
                         v_theta=np.array(v_theta), dof=10)
        with pytest.raises(np.linalg.LinAlgError):
            glm.sample_posterior(fit, 5, np.random.default_rng(0))


class TestPosteriorConsistency:
    def test_errors_shrink_with_sample_size(self):
        # Mean absolute estimation errors over 20 replications must fall
        # monotonically as n grows by decades.
        a_true, lnb_true, eps = -0.4, 0.6, 0.5
        errors_a, errors_s2 = [], []
        rng = np.random.default_rng(2024)
        for n in (100, 1000, 10_000):
            errs_a, errs_s2 = [], []
            for _ in range(20):
                beta = np.exp(rng.uniform(0.0, 7.0, n))
                s = np.exp(a_true * np.log(beta) + lnb_true + eps * rng.standard_normal(n))
                data, _ = glm.ingest(zip(beta, s))
                fit = glm.fit(data)
                errs_a.append(abs(fit.a_hat - a_true))
                errs_s2.append(abs(fit.s2 - eps**2))
            errors_a.append(np.mean(errs_a))
            errors_s2.append(np.mean(errs_s2))
        assert errors_a[0] > errors_a[1] > errors_a[2]
        assert errors_s2[0] > errors_s2[1] > errors_s2[2]


class TestCredibleCoverage:
    def test_central_interval_covers_true_exponent(self):
        # The 95% posterior interval is exact under the conjugate model, so
        # over 200 replications coverage must land in the 90..98% band.
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(200):
            beta = np.exp(rng.uniform(0.0, 7.0, 50))
            s = np.exp(-0.6 * np.log(beta) + 0.3 + 0.4 * rng.standard_normal(50))
            data, _ = glm.ingest(zip(beta, s))
            fit = glm.fit(data)
            a_draws, _, _ = glm.sample_posterior(fit, 2000, rng)
            lo, hi = np.quantile(a_draws, [0.025, 0.975])
            covered += lo <= -0.6 <= hi
        assert 180 <= covered <= 196


class TestCsvRoundTrip:
    def test_save_load_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        beta = np.exp(rng.uniform(0.0, 5.0, 37))
        s = np.exp(rng.standard_normal(37))
        data, _ = glm.ingest(zip(beta, s))
        path = tmp_path / "data.csv"
        glm.save_csv(data, path)
        text = path.read_bytes()
        assert text.startswith(b"beta,s\n")
        assert b"\r" not in text
        loaded, rejected = glm.load_csv(path)
        assert rejected == 0
        np.testing.assert_array_equal(loaded.beta, data.beta)
        np.testing.assert_array_equal(loaded.s, data.s)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("b,s\n1.0,2.0\n")
        with pytest.raises(ValueError):
            glm.load_csv(path)


class TestLoadCsv:
    """The dataset grammar of :func:`glm.load_csv`, case by case."""

    @staticmethod
    def load(tmp_path, text, newline="\n"):
        path = tmp_path / "data.csv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        return glm.load_csv(path)

    @pytest.mark.parametrize("body, beta, s, rejected", [
        ("1.5,2.5\n3,4\n", [1.5, 3.0], [2.5, 4.0], 0),
        ("\n1.5,2.5\n\n\n3,4\n\n", [1.5, 3.0], [2.5, 4.0], 0),
        ('"1.5","2.5"\n3,"4"\n', [1.5, 3.0], [2.5, 4.0], 0),
        ("1.5,2.5,note\n3,4,5,6\n", [1.5, 3.0], [2.5, 4.0], 0),
        ("1.5,2.5\n3,4,5\n5,6\n", [1.5, 3.0, 5.0], [2.5, 4.0, 6.0], 0),
        ("1.5,2.5,\n", [1.5], [2.5], 0),
        (" 1.5 , 2.5 \n\t3\t,\t4\n", [1.5, 3.0], [2.5, 4.0], 0),
        ("+1.5,2e3\n1E-3,.5\n", [1.5, 1e-3], [2e3, 0.5], 0),
        ("1.5,2.5", [1.5], [2.5], 0),
        ("nan,2\n1,inf\n-1,2\n1,-0.0\n0,3\n2,3\nNaN,-Infinity\n", [2.0], [3.0], 6),
    ], ids=["plain", "blank-lines", "quoted", "extra-columns", "ragged", "trailing-comma",
            "whitespace", "number-forms", "no-final-newline", "rejected-rows"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_body_grammar(self, tmp_path, body, beta, s, rejected, newline):
        data, count = self.load(tmp_path, "beta,s\n" + body, newline)
        assert count == rejected
        np.testing.assert_array_equal(data.beta, beta)
        np.testing.assert_array_equal(data.s, s)

    @pytest.mark.parametrize("text, beta, s", [
        ("beta,s\r1,2\n", [1.0], [2.0]),
        ("beta,s\n1,2\r3,4\n", [1.0, 3.0], [2.0, 4.0]),
        ("beta,s\n1,2\r", [1.0], [2.0]),
    ], ids=["after-header", "between-rows", "final"])
    def test_lone_cr_ends_a_line(self, tmp_path, text, beta, s):
        # Skipping the header skips one line: no data row goes with it.
        data, rejected = self.load(tmp_path, text)
        assert rejected == 0
        np.testing.assert_array_equal(data.beta, beta)
        np.testing.assert_array_equal(data.s, s)

    @pytest.mark.parametrize("text", [
        "beta,s\r1,2\r3,4\r", "beta,s\r\n1,2\r3,4\n", 'beta,s\n1,2,"x\ny"\n3,4\n',
        'beta,s,"a\nb"\n1,2\n', 'beta,s,"\n5,6,"\n1,2\n', "beta,s\n1,2\x0c\n3,4\n",
        "beta,s\n1,\xa02\n", "beta,s\n1,2\x00\n", "beta,s\n1,2 \n", "beta,s\n\r\n\r1,2\n",
    ], ids=["cr", "crlf-then-cr", "quoted-newline", "quoted-newline-in-header",
            "open-quote-in-header", "form-feed", "nbsp", "nul", "trailing-space", "blank-cr"])
    def test_matches_the_body_copy_oracle(self, tmp_path, text):
        def outcome(load):
            try:
                data, rejected = load(tmp_path / "data.csv")
            except ValueError as exc:
                return type(exc), str(exc)
            return data.beta.tobytes(), data.s.tobytes(), rejected

        (tmp_path / "data.csv").write_bytes(text.encode("utf-8"))
        assert outcome(glm.load_csv) == outcome(oracles.load_csv)

    @pytest.mark.parametrize("body", ["1.5,2.5\n3\n", "1.5\n", "1.5,abc\n", "1.5,\n", ",\n",
                                      "1,2\n   \n", "# comment\n1,2\n", "0x10,2\n", "1 0,2\n"],
                             ids=["short-row", "one-column", "non-numeric", "empty-field",
                                  "empty-row", "whitespace-row", "comment", "hex", "inner-space"])
    def test_malformed_rows_raise(self, tmp_path, body):
        with pytest.raises(ValueError):
            self.load(tmp_path, "beta,s\n" + body)

    @pytest.mark.parametrize("body", ["1_000,2\n", "\u0661,2\n"], ids=["digit-separator", "non-ascii-digit"])
    def test_number_forms_only_python_accepts_raise(self, tmp_path, body):
        # float() takes these; the dataset grammar is numpy's parser, which does not.
        with pytest.raises(ValueError):
            self.load(tmp_path, "beta,s\n" + body)

    @pytest.mark.parametrize("text", ["beta,s\n", "beta,s", "beta,s\n\n\n", "beta,s\r\n\r\n"])
    def test_header_only_is_empty_without_warnings(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, rejected = self.load(tmp_path, text)
        assert (data.n, rejected) == (0, 0)

    @pytest.mark.parametrize("header", ["beta,s", " beta , s ", '"beta","s"', "beta,s,note"])
    def test_header_forms_accepted(self, tmp_path, header):
        data, _ = self.load(tmp_path, header + "\n2,3\n")
        assert data.n == 1

    @pytest.mark.parametrize("text", ["", "\n", "b,s\n1,2\n", "beta\n1,2\n", "s,beta\n1,2\n",
                                      "\ufeffbeta,s\n1,2\n", "\nbeta,s\n1,2\n"],
                             ids=["empty-file", "blank-first-line", "wrong-name", "one-name",
                                  "swapped", "byte-order-mark", "header-after-blank"])
    def test_header_rejected(self, tmp_path, text):
        with pytest.raises(ValueError, match="expected header"):
            self.load(tmp_path, text)
