"""A run's decisions do not depend on numpy's CPU dispatch.

numpy picks its SIMD loops at import by what the CPU offers, and loops of
different levels may round ``exp`` and friends differently in the last
bits, so a trace's bytes hold for one dispatch level only.  Its decisions
must not: a fixed set of C4 runs (calibrated, gamma-noise and flat
problems, seeds fixed here) runs in this process and in a child limited by
``NPY_DISABLE_CPU_FEATURES`` to numpy's X86_V2 baseline loops.  Stop
reasons, flags, record counts and evaluation counts must be equal, and
final estimates within :data:`ULPS` units in the last place.  The bound
was fixed before this test ran: 1,500 such runs on an AVX-512 machine
differed by at most 7 ulps.  Where the CPU lacks the disabled features,
or numpy does not know their names, both sides run the same loops: the
child reports the CPU features numpy enabled, and the test skips, naming
them, when they equal this process's.

The child imports this module, which imports only numpy and the package.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from scalebo import driver, problems

ULPS = 8
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
SEEDS = range(40)


def c4_problems() -> dict:
    """The three problems, by name: each with C4's optimizer settings."""
    calibrated_s0 = problems.target_for_optimum(-0.58, 0.0, 0.25, 101.0)
    return {
        "calibrated": problems.synthetic_powerlaw(-0.58, 0.0, 0.25, calibrated_s0),
        "gamma-noise": problems.gamma_noise(-0.5, 0.2, 0.3, shape=4.0),
        "flat": problems.synthetic_powerlaw(0.0, 0.0, 0.25, 1.0),
    }


def outcomes() -> list:
    """``[name, seed, stop reason, flag, records, evaluations, estimate]``
    of each run, the estimate as ``float.hex``."""
    rows = []
    for name, problem in c4_problems().items():
        for seed in SEEDS:
            bo = driver.BoConfig(beta_min=10.0, beta_max=1000.0, n0=40, batch_size=10,
                                 max_iterations=25, s0=problem.s0, seed=seed)
            trace = driver.run(bo, problem)
            rows.append([name, seed, trace.stop_reason, trace.flag, len(trace.iterations),
                         trace.total_evaluations, trace.final_estimate.hex()])
    return rows


def cpu_features() -> list:
    """The CPU features whose loops numpy's dispatch enabled in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, enabled in __cpu_features__.items() if enabled)


CHILD = ("import json, test_dispatch; "
         "print(json.dumps([test_dispatch.cpu_features(), test_dispatch.outcomes()]))")


def test_decisions_do_not_depend_on_cpu_dispatch():
    here = Path(__file__).resolve()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parents[1] / "src"), str(here.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    features, limited = json.loads(done.stdout.splitlines()[-1])
    if features == cpu_features():
        import pytest   # here: the children import this module, and need no pytest
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={DISABLED!r} left numpy's dispatch as it was: "
                    f"both processes enable {' '.join(features)}")
    native = outcomes()
    assert [row[:-1] for row in limited] == [row[:-1] for row in native]
    for mine, theirs in zip(native, limited):
        a, b = float.fromhex(mine[-1]), float.fromhex(theirs[-1])
        assert abs(a - b) <= ULPS * math.ulp(max(a, b)), (mine, theirs)
