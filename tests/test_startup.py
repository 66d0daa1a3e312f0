"""Start-up cost: the package and every command load no SciPy.

Importing SciPy's ``stats`` and ``io`` costs over a second of a fresh
process, against about 10 ms for a whole calibrated optimization run.
SciPy is a test-only oracle: ``diagnose``'s family fits are closed form
and ``fixture export`` has its own Matrix Market writer.  Nor does any
run path build the dense 1000-DoF static fixture: ``srom-standin`` is
built from its closed form; only ``fixture export`` builds it, so it
runs after that check.  The checks run in a fresh interpreter, because
the test process itself has long imported SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys
from pathlib import Path

import numpy as np
import scalebo
from scalebo import baselines, cli, config, driver, glm, problems

outdir = Path(sys.argv[1])
sections = [
    {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.25, "beta_opt": 101.0},
    {"kind": "gamma-noise", "a": -0.58, "ln_b": 0.0, "shape": 4.0, "s0": 0.1},
    {"kind": "heteroscedastic", "a": -0.58, "ln_b": 0.0, "eps_base": 0.25, "eps_slope": 0.05,
     "s0": 0.1},
    {"kind": "shifted-lognormal", "a": -0.58, "ln_b": 0.0, "eps2": 0.25, "shift": 0.05,
     "s0": 0.1},
    {"kind": "srom-standin"},
]
built = [config.build_problem(section) for section in sections]
problem = built[0]

cfg = driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=problem.s0, n0=12, batch_size=4,
                      max_iterations=3, seed=1)
driver.run(cfg, problem, threads=2)
objective = baselines.McObjective(problem=problem, mc_samples=64, seed=1)
baselines.golden_section(objective, (10.0, 1000.0), tol=0.2)

config_path = outdir / "config.json"
config_path.write_text(json.dumps({
    "seed": 3,
    "problem": sections[0],
    "bo": {"beta_min": 10.0, "beta_max": 1000.0, "n0": 12, "batch_size": 4,
           "max_iterations": 3},
    "baseline": {"mc_samples": 64, "tol": 0.2},
}))
common = ["--config", str(config_path), "--threads", "2"]
assert cli.main(["optimize", *common, "--out", str(outdir / "bo")]) == 0
assert cli.main(["baseline", *common, "--out", str(outdir / "gs")]) == 0
assert cli.main(["compare", str(outdir / "bo"), str(outdir / "gs")]) == 0
# No run path builds the dense 1000-DoF fixture; srom-standin is closed form.
assert problems.build_static_fixture.cache_info().misses == 0

gamma = built[1]
rng = np.random.default_rng(2)
betas = [beta for beta in (20.0, 60.0, 180.0) for _ in range(200)]
data, _ = glm.ingest((beta, gamma.evaluate_statistic(beta, rng)) for beta in betas)
glm.save_csv(data, outdir / "data.csv")
assert cli.main(["diagnose", "--data", str(outdir / "data.csv"), "--min-per-beta", "100",
                 "--out", str(outdir / "diag")]) == 0
assert json.loads((outdir / "diag" / "report.json").read_text())["families"] is not None
assert cli.main(["fixture", "export", "--out", str(outdir / "fixture")]) == 0

print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_and_run_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [], f"SciPy modules loaded: {loaded[:10]} ({len(loaded)} in all)"


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use; a run needs it, an import
    # does not, and loading it costs about 25 ms of every cold start.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, scalebo, scalebo.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
