"""The manifest: sha256 digests of every artifact of a fixed set of commands.

Each of four configs (the calibrated C4 problem, C4 on gamma noise,
``srom-standin`` with small Monte-Carlo probes, and the calibrated problem
with ``integer_beta``) runs ``optimize``, a golden and a parabolic
``baseline``, ``compare`` of the optimize and golden runs, and ``diagnose``
of a dataset drawn from its problem.  Every file they write is hashed,
with each ``wall_clock`` and ``wall_clock_seconds`` value in a JSON file
(``compare``'s time ratio among them) written as ``null`` first: clocks
never repeat.

Bytes repeat for one numpy build at one CPU dispatch level and one BLAS
kernel set, so the digests are made in a child process limited to numpy's
baseline loops, as ``test_dispatch.py`` runs its child, and to OpenBLAS's
Prescott kernels: on x86-64, OpenBLAS's own choice of kernels by CPU moves
the bytes of ``glm.fit``'s and the srom statistic's products.
``manifest.json`` holds the digests with the numpy version and the machine
type that made them; ``test_manifest.py`` checks them.  A
change that moves an artifact's bytes on purpose (a declared stream
change) regenerates the file and names each changed artifact::

    PYTHONPATH=src python tests/manifest.py

This module imports only numpy and the package, so the child can import it.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from scalebo import cli, config, glm
from test_dispatch import DISABLED

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
BLAS_CORE = "Prescott"

C4_BO = {"beta_min": 10.0, "beta_max": 1000.0, "n0": 40, "batch_size": 10, "max_iterations": 25}
CALIBRATED = {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.25,
              "beta_opt": 101.0}

# name -> (config, the betas of the diagnose dataset, its rows per beta).
CONFIGS = {
    "calibrated": ({"seed": 5, "problem": CALIBRATED, "bo": C4_BO,
                    "baseline": {"mc_samples": 1000, "tol": 0.04}},
                   (20.0, 60.0, 180.0), 400),
    "gamma-noise": ({"seed": 6,
                     "problem": {"kind": "gamma-noise", "a": -0.5, "ln_b": 0.2, "shape": 4.0,
                                 "s0": 0.3},
                     "bo": C4_BO, "baseline": {"mc_samples": 1000, "tol": 0.04}},
                    (20.0, 60.0, 180.0), 400),
    "srom-standin": ({"seed": 7, "problem": {"kind": "srom-standin"},
                      "bo": {**C4_BO, "beta_min": 3e7, "beta_max": 8e7},
                      "baseline": {"mc_samples": 12, "tol": 0.05, "max_iter": 20}},
                     (3e7, 5e7, 8e7), 100),
    "integer_beta": ({"seed": 8, "problem": CALIBRATED, "bo": {**C4_BO, "integer_beta": True},
                      "baseline": {"mc_samples": 500, "tol": 0.04}},
                     (20.0, 60.0, 180.0), 400),
}

_CLOCK = re.compile(rb'("wall_clock(?:_seconds)?": )[^,\n]+')


def _run(*args) -> None:
    code = cli.main([str(arg) for arg in args])
    if code != 0:
        raise RuntimeError(f"scalebo {' '.join(map(str, args))} exited {code}")


def write_artifacts(root: Path) -> None:
    """Run every command of every config, each into ``root/<config>/<command>``."""
    for name, (doc, betas, rows) in CONFIGS.items():
        where = root / name
        where.mkdir(parents=True)
        path = where / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _run("optimize", "--config", path, "--out", where / "optimize")
        for method in ("golden", "parabolic"):
            method_doc = {**doc, "baseline": {**doc["baseline"], "method": method}}
            method_path = where / f"{method}.json"
            method_path.write_text(json.dumps(method_doc), encoding="utf-8")
            _run("baseline", "--config", method_path, "--out", where / method)
        _run("compare", where / "optimize", where / "golden", "--out", where / "compare")
        problem = config.build_problem(doc["problem"])
        rng = np.random.default_rng(doc["seed"])
        data, _ = glm.ingest([(beta, problem.evaluate_statistic(beta, rng))
                              for beta in betas for _ in range(rows)])
        glm.save_csv(data, where / "data.csv")
        _run("diagnose", "--data", where / "data.csv", "--min-per-beta", rows // 2,
             "--out", where / "diagnose")


def digests() -> dict:
    """``{artifact path: sha256}`` of every file the commands write, wall
    clocks blanked, with the configs and datasets themselves left out."""
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as quiet:
        root = Path(tmp)
        stdout, sys.stdout = sys.stdout, quiet   # the commands' summaries
        try:
            write_artifacts(root)
        finally:
            sys.stdout = stdout
        out = {}
        for path in sorted(root.rglob("*")):
            name = path.relative_to(root)
            if len(name.parts) != 3 or path.is_dir():
                continue   # only the commands' outputs: <config>/<command>/<file>
            data = path.read_bytes()
            if path.suffix == ".json":
                data = _CLOCK.sub(rb"\1null", data)
            out[name.as_posix()] = hashlib.sha256(data).hexdigest()
        return out


def baseline_dispatch_digests() -> dict:
    """:func:`digests`, made in a child limited to numpy's baseline loops
    and OpenBLAS's ``BLAS_CORE`` kernels."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED, OPENBLAS_CORETYPE=BLAS_CORE)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH")]))
    child = "import json, manifest; print(json.dumps(manifest.digests()))"
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def scope() -> dict:
    """What the digests hold for: this numpy's version and machine type."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def main() -> None:
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["digests"] if MANIFEST.exists() else {}
    new = baseline_dispatch_digests()
    MANIFEST.write_text(json.dumps({**scope(), "disabled_cpu_features": DISABLED,
                                    "openblas_coretype": BLAS_CORE, "digests": new},
                                   indent=1) + "\n", encoding="utf-8")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"changed: {name}")


if __name__ == "__main__":
    main()
