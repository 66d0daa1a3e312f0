"""The law-space sweep's gate: the well-specified rows of ``tests/sweep.py``.

Every log-normal law of the sweep's sample with eps2 <= 2 runs at C4's
settings, law i at seed i, as the sweep runs it.  Per eps2 band, at least
95% of the runs stop ``converged``, and at least 97% of those land in the
true 10% region within the bounds.  The thresholds were fixed below the
rates the sweep read when the gate was made (at least 96.4% and 98.2%), not
tuned to them.  The eps2 2-4 band, whose evaluation counts are bimodal, and
the misspecified gamma rows stay a report of ``sweep.py``.
"""

import pytest

import oracles
import sweep
from scalebo import acquisition, problems

GATED_BANDS = [band for band in sweep.EPS2_BANDS if band[1] <= 2.0]
MIN_CONVERGED = 0.95
MIN_IN_REGION = 0.97


@pytest.fixture(scope="module")
def outcomes():
    """``band -> [(converged, hit, evaluations)]`` of the gated laws."""
    table = {band: [] for band in GATED_BANDS}
    for seed, (a, eps2, beta_opt) in enumerate(oracles.sample_laws(sweep.LAWS)):
        band = next((band for band in GATED_BANDS if eps2 <= band[1]), None)
        if band is None:
            continue
        s0 = problems.target_for_optimum(a, 0.0, eps2, beta_opt)
        region = acquisition.optimal_region_from(a, 0.0, eps2, s0, 0.10, sweep.BOUNDS)
        table[band].append(sweep.run(problems.synthetic_powerlaw(a, 0.0, eps2, s0), region, seed))
    return table


def test_the_gate_runs_the_sample_below_eps2_two(outcomes):
    assert [len(runs) for runs in outcomes.values()] == [769, 561, 227, 223]


@pytest.mark.parametrize("band", GATED_BANDS, ids=lambda band: f"eps2 {band[0]:g}-{band[1]:g}")
def test_well_specified_runs_converge_in_region(outcomes, band):
    runs = outcomes[band]
    hits = [hit for converged, hit, _ in runs if converged]
    assert len(hits) >= MIN_CONVERGED * len(runs), f"{len(hits)} of {len(runs)} converged"
    assert sum(hits) >= MIN_IN_REGION * len(hits), f"{sum(hits)} of {len(hits)} in region"
