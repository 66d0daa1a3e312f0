"""End-to-end checks of the commands, and what starting them costs.

This module holds every check that runs the commands end to end.  It
imports neither SciPy nor hypothesis, so it runs under the tier-1 suite and
on an install of the package alone (``pip install -e .`` and pytest):

- in-process through ``cli.main``: the Thompson batch and budget rules,
  bytes that do not depend on the ignored ``--threads``, and the estimate
  of a flat statistic;
- in one child whose every ``scipy`` import raises ``ImportError``: every
  command through the installed ``scalebo`` script (``python -m scalebo.cli``
  where none is installed); the test then checks its artifacts: strict
  JSON, the trace round trip, the family ranking and the fixture files;
- in fresh interpreters: start-up cost.  Importing SciPy's ``stats`` and
  ``io`` costs over a second of a fresh process,
  against about 10 ms for a whole calibrated optimization run, so neither
  the package nor any command may load SciPy; ``diagnose``'s family fits
  are closed form and ``fixture export`` has its own Matrix Market writer.
  Nor does any run path build the dense 1000-DoF static fixture:
  ``srom-standin`` is built from its closed form; only ``fixture export``
  builds it, so it runs after that check.  These checks need a fresh
  interpreter, because the test process may long have imported SciPy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalebo import cli, driver

SRC = Path(__file__).resolve().parents[1] / "src"

# A gamma-noise problem on a budget of n0 + max_iterations * batch_size =
# 10 + 2 * 10 = 30 evaluations, and a baseline of 64-draw probes.
TINY = {
    "seed": 1,
    "problem": {"kind": "gamma-noise", "a": -0.58, "ln_b": 0.0, "shape": 4.0, "s0": 0.1},
    "bo": {"beta_min": 10.0, "beta_max": 1000.0, "n0": 10, "max_iterations": 2},
    "baseline": {"mc_samples": 64},
}


def child_env():
    """The environment of a child that imports the package from ``SRC``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_config(path, **sections):
    """``TINY`` with ``sections`` replaced, written to ``path``."""
    path.write_text(json.dumps({**TINY, **sections}))
    return path


def run(*args):
    """Run one command in-process; it must exit 0."""
    assert cli.main([str(arg) for arg in args]) == 0


def strict_json(path):
    """Parse ``path`` refusing the non-standard NaN/Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON token {token}")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def without_clocks(doc):
    """``doc`` with every wall clock set to None: clocks never reproduce."""
    if isinstance(doc, dict):
        return {key: None if key in ("wall_clock", "wall_clock_seconds") else without_clocks(value)
                for key, value in doc.items()}
    if isinstance(doc, list):
        return [without_clocks(value) for value in doc]
    return doc


@pytest.mark.parametrize("bo, budget, grows", [
    (TINY["bo"], 30, False),
    # C4's defaults: n0 40, batch_size 10, max_iterations 25.
    ({"beta_min": 10.0, "beta_max": 1000.0}, 290, True),
], ids=["tiny", "c4-defaults"])
def test_thompson_batches_keep_their_size_within_the_budget(tmp_path, bo, budget, grows):
    # Each Thompson batch holds at least batch_size proposals, bar a last
    # batch that the budget trims, and the run spends at most the budget.
    # At C4's defaults the shortfall rule sizes some batch above batch_size.
    run("optimize", "--config", write_config(tmp_path / "run.json", bo=bo), "--out", tmp_path / "bo")
    doc = strict_json(tmp_path / "bo" / "trace.json")
    cfg, records = doc["config"], doc["iterations"]
    assert cfg["n0"] + cfg["max_iterations"] * cfg["batch_size"] == budget
    sizes = [len(rec["betas"]) for rec in records if rec["source"] == "thompson"]
    total = records[-1]["cumulative_evaluations"]
    assert all(size >= cfg["batch_size"] for size in sizes[:-1]), sizes
    assert not sizes or sizes[-1] >= cfg["batch_size"] or total == budget, (sizes, total)
    assert total <= budget
    if grows:
        assert len(sizes) > 1 and max(sizes) > cfg["batch_size"], sizes


@pytest.mark.parametrize("draws, threads", [(64, 2), (2100, 3), (3072, 3)])
def test_threads_change_no_byte(tmp_path, draws, threads):
    # --threads is accepted and read by nothing but its range check:
    # statistics are drawn serially, so more threads write the bytes of
    # one, wall clocks aside, whatever the probe size, and run.json does
    # not name the count.
    config = write_config(tmp_path / "run.json", baseline={"mc_samples": draws})
    for count in (1, threads):
        for command in ("optimize", "baseline"):
            run(command, "--config", config, "--threads", count,
                "--out", tmp_path / str(count) / command)
    for name in ("optimize/trace.csv", "optimize/run.json", "baseline/trace.csv",
                 "baseline/probes.csv", "baseline/run.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / str(threads) / name).read_bytes()
    one, many = (without_clocks(strict_json(tmp_path / str(count) / "optimize" / "trace.json"))
                 for count in (1, threads))
    assert one == many, "trace.json depends on --threads"


def test_flat_statistic_is_an_unidentified_bound(tmp_path):
    # A noise-free flat statistic (s = 1 at every beta) is an answer, not an
    # error: the run stops at its exact initial fit, unidentified, and
    # against s0 = 2 its estimate is a bound.
    problem = {"kind": "synthetic-powerlaw", "a": 0.0, "ln_b": 0.0, "eps2": 0.0, "s0": 2.0}
    run("optimize", "--config", write_config(tmp_path / "flat.json", problem=problem),
        "--out", tmp_path / "flat")
    estimate = strict_json(tmp_path / "flat" / "estimate.json")
    assert estimate["flag"] == "unidentified", estimate
    assert estimate["beta_hat"] in (10.0, 1000.0), estimate


# Runs each command given as a JSON list of argument lists through the
# installed scalebo script, or the module where none is installed, with
# every scipy import blocked; prints the exit codes as a JSON list.
CONSOLE = r"""
import json, runpy, shutil, sys


class BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockSciPy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("import scipy did not raise ImportError")

script = shutil.which("scalebo")
codes = []
for args in json.loads(sys.argv[1]):
    sys.argv = ["scalebo", *args]
    try:
        if script:
            runpy.run_path(script, run_name="__main__")
        else:
            runpy.run_module("scalebo.cli", run_name="__main__")
    except SystemExit as stop:
        codes.append(stop.code)
print(json.dumps(codes))
"""


def test_every_command_runs_through_the_console_script_without_scipy(tmp_path):
    write_config(tmp_path / "tiny.json")
    rng = np.random.default_rng(0)
    beta = np.repeat([20.0, 60.0, 180.0], 1200)
    np.savetxt(tmp_path / "data.csv", np.c_[beta, beta ** -0.58 * rng.gamma(4.0, 0.25, beta.size)],
               delimiter=",", header="beta,s", comments="", fmt="%.17g")
    # 200 rows per beta: only a --min-per-beta of at most 200 keeps a group.
    rows = [f"{b},{b ** -0.5 * math.exp(0.1 * math.sin(i))}" for b in (20, 60, 180)
            for i in range(200)]
    (tmp_path / "small.csv").write_text("\n".join(["beta,s", *rows]) + "\n")
    commands = [
        ["optimize", "--config", "tiny.json", "--out", "bo"],
        ["baseline", "--config", "tiny.json", "--out", "base"],
        ["compare", "bo", "base", "--out", "cmp"],
        ["diagnose", "--data", "data.csv", "--out", "diag"],
        ["diagnose", "--data", "small.csv", "--min-per-beta", "100", "--out", "diag-small"],
        ["fixture", "export", "--out", "fixture"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", CONSOLE, json.dumps(commands)],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands), done.stderr

    # Each record's exact P(a > 0 | D), from the SciPy-free t tail, is a
    # number in [0, 1].
    trace = strict_json(tmp_path / "bo" / "trace.json")
    ps = [rec["posterior"]["p_a_positive"] for rec in trace["iterations"]]
    assert ps and all(type(p) in (int, float) and 0 <= p <= 1 for p in ps), ps
    # Every JSON artifact is strict JSON in json's indent=2 layout, a pin
    # of the format that does not depend on the writer; and trace.json
    # round-trips through load_trace.
    paths = sorted(p for d in ("bo", "base", "cmp", "diag") for p in (tmp_path / d).glob("*.json"))
    assert len(paths) == 7, paths
    for path in paths:
        assert path.read_text(encoding="utf-8") == json.dumps(strict_json(path), indent=2) + "\n"
    assert driver.trace_to_json_dict(driver.load_trace(tmp_path / "bo" / "trace.json")) == trace
    assert strict_json(tmp_path / "diag" / "report.json")["families"]["ranking"][0] == "gamma"
    assert (tmp_path / "diag-small" / "report.json").is_file()
    fixture = tmp_path / "fixture"
    assert sorted(p.name for p in fixture.glob("*.mtx")) == ["K.mtx", "V.mtx", "f_E.mtx", "f_H.mtx"]
    # V's columns (column-major, 1000 rows each) are sine modes: exactly 0.0
    # at both ends, positive at row 1.
    lines = (fixture / "V.mtx").read_text().split("\n")
    assert lines[2] == "1000 8", lines[2]
    cols = [lines[3 + 1000 * c:3 + 1000 * (c + 1)] for c in range(8)]
    assert all(col[0] == col[999] == "0.0" and float(col[1]) > 0 for col in cols), \
        [(col[0], col[1], col[999]) for col in cols]


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
driver.run(cfg, problem)
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
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [], f"SciPy modules loaded: {loaded[:10]} ({len(loaded)} in all)"


def test_import_loads_no_numpy_random_or_hashlib():
    # numpy loads numpy.random on first use; a run needs it, an import
    # does not, and loading it costs about 25 ms of every cold start.
    # hashlib (and OpenSSL with it) is loaded by numpy.random only: compare,
    # diagnose and fixture export never need it.
    done = subprocess.run(
        [sys.executable, "-c", "import sys, scalebo, scalebo.cli; "
         "print('numpy.random' in sys.modules, 'hashlib' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
