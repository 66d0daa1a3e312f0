"""Tests for the synthetic simulators and the static structural fixture.

The fixture's reference distance 0.0015032718191897864 was recorded at
first build after two independent norm implementations agreed to 1e-12.
"""

import math

import numpy as np
import pytest
import scipy.io
import scipy.stats

from scalebo import glm, problems
from scalebo.errors import UnknownKind

MODEL_ERROR_GOLDEN = 0.0015032718191897864


class TestSyntheticPowerlaw:
    def test_target_inversion_places_optimum(self):
        s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
        prob = problems.synthetic_powerlaw(-0.58, 0.0, 0.25, s0)
        assert prob.truth.beta_opt == pytest.approx(101.0, rel=1e-12)

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
        prob = problems.synthetic_misspecified(
            "gamma-noise", {"a": -0.5, "ln_b": 0.0, "shape": 4.0, "s0": 0.3}
        )
        rng = np.random.default_rng(3)
        draws = np.array([prob.evaluate_statistic(50.0, rng) for _ in range(20_000)])
        # Oracle: ln of Gamma(4) draws is left-skewed.
        oracle = np.log(np.random.default_rng(4).gamma(4.0, 1.0, 20_000))
        assert scipy.stats.skew(oracle) < -0.1
        assert scipy.stats.skew(np.log(draws)) < -0.1

    def test_gamma_noise_preserves_power_law_mean(self):
        prob = problems.synthetic_misspecified(
            "gamma-noise", {"a": -0.5, "ln_b": 0.2, "shape": 4.0, "s0": 0.3}
        )
        rng = np.random.default_rng(5)
        draws = np.array([prob.evaluate_statistic(25.0, rng) for _ in range(100_000)])
        expected = math.exp(0.2) * 25.0**-0.5
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 3.0 * se

    def test_heteroscedastic_spread_varies_with_beta(self):
        prob = problems.synthetic_misspecified(
            "heteroscedastic", {"a": -0.5, "ln_b": 0.0, "s0": 0.3}
        )
        rng = np.random.default_rng(6)
        low = np.log([prob.evaluate_statistic(math.e, rng) for _ in range(20_000)])
        high = np.log([prob.evaluate_statistic(math.e**5, rng) for _ in range(20_000)])
        # eps(beta) = 0.2 + 0.1/ln(beta): 0.3 at ln beta = 1 vs 0.22 at 5.
        assert low.std() > 1.2 * high.std()
        with pytest.raises(ValueError):
            prob.evaluate_statistic(1.0, rng)

    def test_zero_shift_reduces_to_powerlaw(self):
        shifted = problems.synthetic_misspecified(
            "shifted-lognormal",
            {"a": -0.5, "ln_b": 0.1, "eps2": 0.2, "shift": 0.0, "s0": 0.3},
        )
        plain = problems.synthetic_powerlaw(-0.5, 0.1, 0.2, 0.3)
        for seed in range(5):
            x = shifted.evaluate_statistic(7.0, np.random.default_rng(seed))
            y = plain.evaluate_statistic(7.0, np.random.default_rng(seed))
            assert x == y

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            problems.synthetic_misspecified("cauchy-noise", {"s0": 1.0})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            problems.synthetic_misspecified(
                "gamma-noise", {"a": -0.5, "ln_b": 0.0, "s0": 0.3, "scale": 2.0}
            )

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
        prob = problems.synthetic_misspecified(kind, params)
        rng = np.random.default_rng(8)
        betas = np.exp(rng.uniform(math.log(beta_lo), math.log(1e4), 100_000))
        values = np.array([prob.evaluate_statistic(b, rng) for b in betas])
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)


@pytest.fixture(scope="module")
def fixture():
    return problems.build_static_fixture()


@pytest.fixture(scope="module")
def prob(fixture):
    return problems.srom_standin(fixture)


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
        assert fixture.model_error == pytest.approx(MODEL_ERROR_GOLDEN, rel=1e-6)

    def test_reduced_operator_is_leading_spectrum(self, fixture):
        reduced = fixture.rom_basis.T @ fixture.stiffness @ fixture.rom_basis
        np.testing.assert_allclose(reduced, np.diag(fixture.eigvals[:8]), atol=1e-6)


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
    def test_galerkin_solve_matches_orthonormalized_basis(self, fixture, prob, beta):
        # The Galerkin solution depends only on the span of the perturbed
        # basis, so solving on V + G / sqrt(beta) directly must reproduce
        # the QR-orthonormalized route on the same normal draw.
        n, m = fixture.n_dof, problems.ROM_DIM
        lam = fixture.eigvals
        f_eig = fixture.basis.T @ fixture.f_hdm
        x_rom_eig = fixture.basis.T @ fixture.x_rom
        for seed in range(3):
            got = prob.evaluate_statistic(beta, np.random.default_rng(seed))
            g = np.random.default_rng(seed).standard_normal((n, m))
            w, _ = np.linalg.qr(np.eye(n, m) + g / math.sqrt(beta))
            q = np.linalg.solve((w * lam[:, None]).T @ w, w.T @ f_eig)
            want = float(np.linalg.norm(w @ q - x_rom_eig))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

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
        v_back = scipy.io.mmread(tmp_path / "V.mtx")
        np.testing.assert_allclose(np.asarray(v_back), fixture.rom_basis, rtol=1e-12)
        f_back = np.asarray(scipy.io.mmread(tmp_path / "f_E.mtx")).ravel()
        np.testing.assert_allclose(f_back, fixture.f_exp, rtol=1e-12)
