"""README's counts, recomputed.  Each count that README.md gives for
calibrated C4 runs (its opening paragraph and "When a run stops") and for
the flat statistic is one assertion here, on the same seeds 0-99, so a
change that moves a count fails until README says the new one."""

import numpy as np
import pytest

from oracles import calibrated_problem
from scalebo import acquisition, driver, problems

SEEDS = range(100)


def c4_runs(problem, n0=40):
    """One run per seed at the C4 settings: bounds [10, 1000], batches of
    at least 10, at most 25 of them."""
    return [driver.run(driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=problem.s0, n0=n0,
                                       batch_size=10, max_iterations=25, seed=seed), problem)
            for seed in SEEDS]


def median_evaluations(traces) -> float:
    return float(np.median([trace.total_evaluations for trace in traces]))


@pytest.fixture(scope="module")
def calibrated():
    return c4_runs(calibrated_problem())


def test_opening_claim(calibrated):
    # "within the 10% optimal region in 99 of seeds 0-99 with a median of
    # 106.5 statistic evaluations (at most 127)"
    lo, hi = acquisition.optimal_region(calibrated_problem().truth)
    in_region = sum(lo <= trace.final_estimate <= hi for trace in calibrated)
    most = max(trace.total_evaluations for trace in calibrated)
    assert (in_region, median_evaluations(calibrated), most) == (99, 106.5, 127)


def test_calibrated_runs_take_a_median_of_four_records(calibrated):
    assert np.median([len(trace.iterations) for trace in calibrated]) == 4


@pytest.mark.parametrize("n0,evaluations", [(10, 216.5), (20, 123.5)])
def test_small_initial_designs_spend_more(n0, evaluations):
    traces = c4_runs(calibrated_problem(), n0=n0)
    assert median_evaluations(traces) == evaluations
    if n0 == 10:   # the first Thompson batch takes most of the 250 evaluations
        assert np.median([len(trace.iterations[1].betas) for trace in traces]) == 196.5


def test_flat_statistic_converges_only_by_chance():
    # "14 of seeds 0-99 stop as converged, 12 of them with a boundary flag"
    converged = [trace for trace in c4_runs(problems.synthetic_powerlaw(0.0, 0.0, 0.25, 1.0))
                 if trace.stop_reason == "converged"]
    flagged = [trace for trace in converged if trace.flag in ("boundary-min", "boundary-max")]
    assert (len(converged), len(flagged)) == (14, 12)
