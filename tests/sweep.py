"""The law-space sweep: C4 runs over a fixed random sample of laws.

Every run uses C4's settings (bounds [10, 1000], ``n0`` 40, batches of at
least 10, at most 25 of them), with law i run at seed i.  The sample is
:func:`oracles.sample_laws` (2,000 log-normal laws) and, per gamma shape
1, 2, 4 and 16, 300 laws of the same slopes and optima.  A run *hits*
when its estimate lies in the true 10% region within the bounds: the
log-normal law's closed form (``acquisition.optimal_region_from`` with
bounds), or the gamma law's (:func:`gamma_region`).

The log-normal table is per eps2 band and per position of ln beta_opt in
the log bounds: the middle third, the outer thirds, or outside.  Each row
gives the runs, how many stop ``converged``, how many of those hit, and
the median evaluations.  Above eps2 = 2 the evaluation count is bimodal,
so those bands also give the share and median of runs below 100
evaluations and of the rest.  The gamma rows are a report: the model is
misspecified there.  ``test_sweep.py`` gates the log-normal bands up to
eps2 = 2 in tier-1; the rest of the table is a report::

    PYTHONPATH=src python tests/sweep.py
"""

import math
import time

import numpy as np

import oracles
from scalebo import acquisition, driver, problems

BOUNDS = (10.0, 1000.0)
C4 = dict(beta_min=BOUNDS[0], beta_max=BOUNDS[1], n0=40, batch_size=10, max_iterations=25)
LAWS = 2000
GAMMA_SHAPES = (1.0, 2.0, 4.0, 16.0)
GAMMA_LAWS = 300
EPS2_BANDS = ((0.01, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0))
BIMODAL_FROM = 2.0   # eps2 above which the evaluation modes are split
MODE_SPLIT = 100     # evaluations between the two modes
POSITIONS = ("middle third", "outer thirds", "outside")


def position(beta_opt):
    """Where ln beta_opt lies in the log bounds."""
    u = (math.log(beta_opt) - math.log(BOUNDS[0])) / (math.log(BOUNDS[1]) - math.log(BOUNDS[0]))
    if not 0.0 <= u <= 1.0:
        return "outside"
    return "middle third" if 1 / 3 <= u <= 2 / 3 else "outer thirds"


def gamma_region(a, s0, shape, rel=0.10):
    """The 10% region within the bounds of the gamma law s = beta^a * zeta,
    zeta ~ Gamma(k, 1/k): in c = beta^a, E|s - s0|^2 = A c^2 - 2 s0 c + s0^2
    with A = 1 + 1/k, a quadratic whose minimum over the bounds' c range is
    at c* = s0 / A, or at the nearer end of the range."""
    big_a = 1.0 + 1.0 / shape
    c_lo, c_hi = sorted(b ** a for b in BOUNDS)
    c_min = min(max(s0 / big_a, c_lo), c_hi)
    f_min = big_a * c_min ** 2 - 2 * s0 * c_min + s0 ** 2
    root = math.sqrt(s0 ** 2 - big_a * (s0 ** 2 - (1 + rel) * f_min))
    # An edge c <= 0 is beta = 0 (a > 0) or beta = inf (a < 0); the cut to
    # the bounds is made in beta, so an edge on a bound is that bound exactly.
    lo, hi = sorted(c ** (1.0 / a) if c > 0 else (0.0 if a > 0 else math.inf)
                    for c in ((s0 - root) / big_a, (s0 + root) / big_a))
    return max(lo, BOUNDS[0]), min(hi, BOUNDS[1])


def run(problem, region, seed):
    """``(converged, hit, evaluations)`` of one C4 run."""
    trace = driver.run(driver.BoConfig(s0=problem.s0, seed=seed, **C4), problem)
    lo, hi = region
    return (trace.stop_reason == "converged", lo <= trace.final_estimate <= hi,
            trace.total_evaluations)


def row(label, outcomes):
    converged = [hit for ok, hit, _ in outcomes if ok]
    evals = [n for _, _, n in outcomes]
    median = f"{np.median(evals):g}" if evals else "-"
    return f"| {label} | {len(outcomes)} | {len(converged)} | {sum(converged)} | {median} |"


def modes(outcomes):
    evals = np.array([n for _, _, n in outcomes])
    parts = []
    low = evals < MODE_SPLIT
    for name, part in ((f"< {MODE_SPLIT}", evals[low]), (f">= {MODE_SPLIT}", evals[~low])):
        median = f"{np.median(part):g}" if part.size else "-"
        parts.append(f"{name}: {part.size / evals.size:.0%}, median {median}")
    return "; ".join(parts)


def main() -> None:
    start = time.perf_counter()
    table = {}
    for seed, (a, eps2, beta_opt) in enumerate(oracles.sample_laws(LAWS)):
        s0 = problems.target_for_optimum(a, 0.0, eps2, beta_opt)
        region = acquisition.optimal_region_from(a, 0.0, eps2, s0, 0.10, BOUNDS)
        band = next(band for band in EPS2_BANDS if eps2 <= band[1])
        outcome = run(problems.synthetic_powerlaw(a, 0.0, eps2, s0), region, seed)
        table.setdefault(band, {}).setdefault(position(beta_opt), []).append(outcome)

    print(f"Log-normal laws: {LAWS}, C4 settings, seed {oracles.SWEEP_SEED}")
    print("| eps2 band | ln beta_opt | runs | converged | in region given converged "
          "| median evals |")
    print("| --- | --- | --- | --- | --- | --- |")
    for band in EPS2_BANDS:
        for where in POSITIONS:
            outcomes = table.get(band, {}).get(where, [])
            print(row(f"{band[0]:g}-{band[1]:g} | {where}", outcomes))
        every = sum(table.get(band, {}).values(), [])
        print(row(f"{band[0]:g}-{band[1]:g} | all", every))
        if band[0] >= BIMODAL_FROM:
            print(f"\neps2 {band[0]:g}-{band[1]:g}, evaluation modes: {modes(every)}\n")

    print(f"\nGamma laws: {GAMMA_LAWS} per shape, the same slopes and optima")
    print("| shape k | runs | converged | in region given converged | median evals |")
    print("| --- | --- | --- | --- | --- |")
    laws = oracles.sample_laws(GAMMA_LAWS)
    for shape in GAMMA_SHAPES:
        outcomes = []
        for seed, (a, _, beta_opt) in enumerate(laws):
            s0 = (1.0 + 1.0 / shape) * beta_opt ** a
            problem = problems.gamma_noise(a=a, ln_b=0.0, s0=s0, shape=shape)
            outcomes.append(run(problem, gamma_region(a, s0, shape), seed))
        print(row(f"{shape:g}", outcomes))
    print(f"\n({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
