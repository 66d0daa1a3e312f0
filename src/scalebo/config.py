"""Run configuration files.

A run is driven by a single JSON document with three sections: the
problem being optimized, the optimizer settings, and the baseline
settings.  Parsing is fail-fast: unknown keys anywhere are errors, so a
typo cannot silently fall back to a default.  Given the same file and
seed, a run is fully deterministic.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Optional

from . import problems
from .driver import BoConfig
from .errors import ConfigError, UnknownKind

PROBLEM_KINDS = (
    "synthetic-powerlaw",
    "gamma-noise",
    "heteroscedastic",
    "shifted-lognormal",
    "srom-standin",
)

_PROBLEM_KEYS = {
    "synthetic-powerlaw": {"kind", "a", "ln_b", "eps2", "s0", "beta_opt"},
    "gamma-noise": {"kind", "a", "ln_b", "shape", "s0"},
    "heteroscedastic": {"kind", "a", "ln_b", "eps_base", "eps_slope", "s0"},
    "shifted-lognormal": {"kind", "a", "ln_b", "eps2", "shift", "s0"},
    "srom-standin": {"kind"},
}

_BO_KEYS = {
    "beta_min", "beta_max", "n0", "batch_size", "max_iterations",
    "stop_rel_tol", "stop_window", "integer_beta",
}

_BASELINE_KEYS = {"method", "mc_samples", "tol", "max_iter"}

_TOP_KEYS = {"seed", "problem", "bo", "baseline", "out"}


@dataclass(frozen=True)
class BaselineSettings:
    method: str = "golden"
    mc_samples: int = 1000
    tol: float = 0.04
    max_iter: int = 60

    def __post_init__(self):
        if self.method not in ("golden", "parabolic"):
            raise ConfigError(f"baseline.method must be 'golden' or 'parabolic', got {self.method!r}")
        for name in ("mc_samples", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"baseline.{name} must be an integer, got {value!r}")
        if isinstance(self.tol, bool):
            raise ConfigError(f"baseline.tol must be a number, got {self.tol!r}")
        if self.mc_samples < 1:
            raise ConfigError("baseline.mc_samples must be >= 1")
        if self.tol <= 0:
            raise ConfigError("baseline.tol must be > 0")
        if self.max_iter < 3:
            raise ConfigError("baseline.max_iter must be >= 3")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    problem_section: dict
    bo: BoConfig
    baseline: BaselineSettings
    out: Optional[str] = None

    @property
    def problem_hash(self) -> str:
        return problem_hash(self.problem_section)


def problem_hash(problem_section: dict) -> str:
    """Stable content hash of a problem section (for run comparisons)."""
    canonical = json.dumps(problem_section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_keys(name: str, mapping: dict, allowed: set) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")


def build_problem(problem_section: dict) -> problems.ObjectiveProblem:
    """Instantiate the configured problem; also resolves its target s0."""
    if not isinstance(problem_section, dict):
        raise ConfigError("'problem' must be an object")
    kind = problem_section.get("kind")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    _check_keys("problem", problem_section, _PROBLEM_KEYS[kind])
    section = {k: v for k, v in problem_section.items() if k != "kind"}
    for key, value in section.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ConfigError(f"problem.{key} must be a number, got {value!r}")
    try:
        if kind == "synthetic-powerlaw":
            a = float(section.pop("a"))
            ln_b = float(section.pop("ln_b"))
            eps2 = float(section.pop("eps2"))
            if ("s0" in section) == ("beta_opt" in section):
                raise ConfigError("synthetic-powerlaw needs exactly one of 's0' or 'beta_opt'")
            if "beta_opt" in section:
                s0 = problems.target_for_optimum(a, ln_b, eps2, float(section.pop("beta_opt")))
            else:
                s0 = float(section.pop("s0"))
            return problems.synthetic_powerlaw(a, ln_b, eps2, s0)
        if kind == "srom-standin":
            return problems.srom_standin()
        return problems.synthetic_misspecified(kind, section)
    except ConfigError:
        raise
    except (KeyError, ValueError, UnknownKind) as exc:
        raise ConfigError(f"invalid problem section: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys("config", doc, _TOP_KEYS)
    for key in ("seed", "problem", "bo"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    problem_section = doc["problem"]
    problem = build_problem(problem_section)   # validates; also resolves s0

    bo_section = doc["bo"]
    if not isinstance(bo_section, dict):
        raise ConfigError("'bo' must be an object")
    _check_keys("bo", bo_section, _BO_KEYS)
    for key in ("beta_min", "beta_max"):
        if key not in bo_section:
            raise ConfigError(f"bo section is missing required key {key!r}")
    try:
        bo = BoConfig(seed=seed, s0=problem.s0, **bo_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bo section: {exc}") from exc

    baseline_section = doc.get("baseline", {})
    if not isinstance(baseline_section, dict):
        raise ConfigError("'baseline' must be an object")
    _check_keys("baseline", baseline_section, _BASELINE_KEYS)
    try:
        baseline = BaselineSettings(**baseline_section)
    except TypeError as exc:
        raise ConfigError(f"invalid baseline section: {exc}") from exc

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a string path")
    return RunConfig(
        seed=seed,
        problem_section=dict(problem_section),
        bo=bo,
        baseline=baseline,
        out=out,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
