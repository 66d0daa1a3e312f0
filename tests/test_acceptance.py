"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance, including the
wall-clock budget where one applies.  Brute-force oracles (dense grid,
golden-section refinement, Monte-Carlo averages) are implemented locally
in this module, independent of the library code paths they check.
"""

import json
import math
import time

import numpy as np
import pytest

import scalebo
from oracles import calibrated_problem
from scalebo import acquisition, baselines, cli, diagnostics, driver, glm, problems
from scalebo.acquisition import SurrogateObjective


def report(criterion, ok, detail):
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def brute_force_argmin(obj, ln_lo=-70.0, ln_hi=70.0, grid_size=100_001):
    """Dense log grid followed by golden-section refinement of evaluate()."""
    grid = np.exp(np.linspace(ln_lo, ln_hi, grid_size))
    values = acquisition.evaluate(obj, grid)
    idx = int(np.argmin(values))
    lo = math.log(grid[max(idx - 1, 0)])
    hi = math.log(grid[min(idx + 1, grid_size - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = acquisition.evaluate(obj, math.exp(x1))
    f2 = acquisition.evaluate(obj, math.exp(x2))
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = acquisition.evaluate(obj, math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = acquisition.evaluate(obj, math.exp(x2))
    return math.exp(0.5 * (lo + hi))


def random_objective(rng):
    return SurrogateObjective(
        a=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)),
        b=float(rng.uniform(0.1, 10.0)),
        eps2=float(rng.uniform(0.0, 1.0)),
        s0=float(rng.uniform(0.1, 10.0)),
    )


def c6_agrees(prob, seed):
    """C6's check on one seed: BO and golden section on ``prob``, the
    srom stand-in, inside its measured power-law window, agree when each
    answer's objective is within 10% of the other's.  The two objectives
    are paired on common random numbers, so the comparison is not
    dominated by Monte-Carlo noise."""
    bounds = (3e7, 8e7)
    config = scalebo.BoConfig(
        beta_min=bounds[0], beta_max=bounds[1], s0=prob.s0,
        n0=40, batch_size=10, max_iterations=25, seed=seed,
        stop_rel_tol=0.004,
    )
    trace = driver.run(config, prob)
    objective = baselines.McObjective(problem=prob, mc_samples=400, seed=5000 + seed)
    result = baselines.golden_section(objective, bounds, tol=0.015, max_iter=50)
    values = []
    for beta in (trace.final_estimate, result.beta_hat):
        rng = np.random.default_rng(90_000 + seed)
        g = [(prob.evaluate_statistic(beta, rng) - prob.s0) ** 2 for _ in range(500)]
        values.append(float(np.mean(g)))
    f_bo, f_gs = values
    return f_bo <= 1.1 * f_gs and f_gs <= 1.1 * f_bo


class TestAcceptance:
    def test_c1_closed_form_optimizer_matches_brute_force(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            obj = random_objective(rng)
            beta_star, _ = acquisition.argmin_closed_form(obj)
            oracle = brute_force_argmin(obj)
            worst = max(worst, abs(beta_star / oracle - 1.0))
        elapsed = time.perf_counter() - start
        report(
            "C1 closed-form optimizer",
            worst <= 1e-3 and elapsed < 10.0,
            f"worst rel dev {worst:.2e} over 100 triples in {elapsed:.1f}s",
        )

    def test_c2_analytic_expectation_matches_monte_carlo(self):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst_sigma = 0.0
        for _ in range(50):
            obj = random_objective(rng)
            beta = float(np.exp(rng.uniform(-2.0, 4.0)))
            zeta = np.exp(math.sqrt(obj.eps2) * rng.standard_normal(1_000_000))
            g = (obj.b * beta**obj.a * zeta - obj.s0) ** 2
            se = g.std(ddof=1) / 1000.0
            dev = abs(acquisition.evaluate(obj, beta) - g.mean())
            worst_sigma = max(worst_sigma, dev / se if se > 0 else 0.0)
        elapsed = time.perf_counter() - start
        report(
            "C2 analytic expectation",
            worst_sigma <= 3.0 and elapsed < 60.0,
            f"worst deviation {worst_sigma:.2f} sigma over 50 triples in {elapsed:.1f}s",
        )

    def test_c3_posterior_sampling_is_exact(self):
        fit_mean = glm.GlmFit(
            coef_hat=np.array([-0.5, 0.2]), s2=1.0,
            v_theta=np.array([[0.02, -0.01], [-0.01, 0.03]]), dof=100,
        )
        _, _, eps2 = glm.sample_posterior(fit_mean, 100_000, np.random.default_rng(303))
        mean_dev = abs(eps2.mean() / (100 * 1.0 / 98) - 1.0)

        fit_cov = glm.GlmFit(
            coef_hat=np.array([-0.5, 0.2]), s2=0.25,
            v_theta=np.array([[0.02, -0.01], [-0.01, 0.03]]), dof=20,
        )
        a, ln_b, _ = glm.sample_posterior(fit_cov, 100_000, np.random.default_rng(304))
        theta = np.column_stack([a, ln_b])
        target = (20 * 0.25 / 18) * fit_cov.v_theta
        cov_dev = float(np.max(np.abs(np.cov(theta.T) / target - 1.0)))
        report(
            "C3 posterior exactness",
            mean_dev <= 0.01 and cov_dev <= 0.05,
            f"eps2 mean off by {mean_dev:.2%}, covariance off by {cov_dev:.2%}",
        )

    def test_c4_data_efficiency_versus_golden_section(self):
        start = time.perf_counter()
        prob = calibrated_problem()
        region = acquisition.optimal_region(prob.truth, 0.10)

        bo_hits, bo_evals = 0, []
        for seed in range(20):
            config = scalebo.BoConfig(
                beta_min=10.0, beta_max=1000.0, s0=prob.s0,
                n0=40, batch_size=10, max_iterations=25, seed=seed,
            )
            trace = driver.run(config, prob)
            bo_evals.append(trace.total_evaluations)
            bo_hits += (
                region[0] <= trace.final_estimate <= region[1]
                and trace.total_evaluations <= 300
            )

        gs_hits, gs_expensive, gs_evals = 0, 0, []
        for seed in range(20):
            objective = baselines.McObjective(problem=prob, mc_samples=1000, seed=1000 + seed)
            result = baselines.golden_section(objective, (10.0, 1000.0), tol=0.04, max_iter=60)
            gs_evals.append(result.evaluations_used)
            gs_hits += region[0] <= result.beta_hat <= region[1]
            gs_expensive += result.evaluations_used >= 8000

        ratio = float(np.median(np.array(gs_evals) / np.array(bo_evals)))
        elapsed = time.perf_counter() - start
        report(
            "C4 data efficiency",
            bo_hits >= 18 and gs_hits >= 18 and gs_expensive >= 18
            and ratio >= 20.0 and elapsed < 300.0,
            f"BO in-region<=300 evals: {bo_hits}/20 (median {int(np.median(bo_evals))} evals); "
            f"golden-section in-region {gs_hits}/20 using >=8000 evals in {gs_expensive}/20 "
            f"(median {int(np.median(gs_evals))}); median ratio {ratio:.1f}x; {elapsed:.0f}s",
        )

    def test_c5_static_fixture_fidelity(self):
        fixture = problems.build_static_fixture()
        eigs = np.linalg.eigvalsh(fixture.stiffness)[:3]
        expected = 4.0 * np.pi**2 * np.array([1.0, 4.0, 9.0])
        eig_dev = float(np.max(np.abs(eigs / expected - 1.0)))
        gram_dev = float(np.max(np.abs(fixture.basis.T @ fixture.basis - np.eye(fixture.n_dof))))
        boundary = max(abs(fixture.x_exp[0]), abs(fixture.x_exp[-1]))
        report(
            "C5 static fixture",
            eig_dev <= 1e-6 and gram_dev <= 1e-10 and boundary == 0.0,
            f"eigenvalue dev {eig_dev:.1e}, orthonormality dev {gram_dev:.1e}, "
            f"boundary residual {boundary:.1e}",
        )

    def test_c6_structural_standin_substitute(self):
        # The published problem's exact optima rest on an external stochastic
        # subspace model and a 42k-DoF FEM; the substitute check is mutual
        # 10%-region agreement between the surrogate optimizer and golden
        # section on the invented stand-in (see c6_agrees).
        start = time.perf_counter()
        prob = problems.srom_standin()
        mutual = sum(c6_agrees(prob, seed) for seed in range(20))
        elapsed = time.perf_counter() - start
        report(
            "C6 structural stand-in substitute",
            mutual >= 18 and elapsed < 600.0,
            f"mutual 10%-region agreement in {mutual}/20 seeds in {elapsed:.0f}s",
        )

    def test_c7_diagnostics_rank_gamma_noise(self):
        wins = 0
        for rep in range(20):
            prob = problems.gamma_noise(a=-0.5, ln_b=0.2, shape=4.0, s0=0.3)
            rng = np.random.default_rng(300 + rep)
            betas, ss = [], []
            for beta in (20.0, 60.0, 180.0):
                for _ in range(1200):
                    betas.append(beta)
                    ss.append(prob.evaluate_statistic(beta, rng))
            data, _ = glm.ingest(zip(betas, ss))
            fit = glm.fit(data)
            rep_report = diagnostics.residual_report(fit, data, min_per_beta=1000)
            fams = rep_report.families
            wins += fams.fits["gamma"].log_likelihood > fams.fits["gaussian"].log_likelihood
        report(
            "C7 diagnostics ranking",
            wins >= 19,
            f"gamma outranks gaussian in {wins}/20 replications",
        )

    def test_c8_cli_determinism(self, tmp_path):
        config = {
            "seed": 21,
            "problem": {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0,
                        "eps2": 0.25, "beta_opt": 101.0},
            "bo": {"beta_min": 10.0, "beta_max": 1000.0, "n0": 20,
                   "batch_size": 5, "max_iterations": 6},
            "baseline": {"method": "golden", "mc_samples": 150, "tol": 0.05, "max_iter": 40},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))

        rng = np.random.default_rng(0)
        prob = calibrated_problem()
        pairs = [(beta, prob.evaluate_statistic(beta, rng))
                 for beta in (20.0, 60.0, 180.0) for _ in range(1100)]
        data, _ = glm.ingest(pairs)
        data_path = tmp_path / "data.csv"
        glm.save_csv(data, data_path)

        identical = []
        for command, files in [
            (["optimize", "--config", str(config_path)], ["trace.csv"]),
            (["baseline", "--config", str(config_path)], ["trace.csv", "probes.csv"]),
            (["diagnose", "--data", str(data_path)], ["groups.csv", "histogram.csv"]),
        ]:
            outs = [tmp_path / f"{command[0]}-{i}" for i in (1, 2)]
            for out in outs:
                threads = ["--threads", "2"] if command[0] != "diagnose" else []
                assert cli.main(command + threads + ["--out", str(out)]) == 0
            for name in files:
                identical.append(
                    (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                )
        report(
            "C8 CLI determinism",
            all(identical),
            f"{sum(identical)}/{len(identical)} CSV artifacts byte-identical on rerun",
        )
