"""Run configuration files.

A run is driven by a single JSON document with three sections: the
problem being optimized, the optimizer settings, and the baseline
settings.  Each section's schema is the signature it is passed to: a
problem kind's builder in :data:`PROBLEM_KINDS`, :class:`BoConfig` and
:class:`BaselineSettings`.  Parsing is fail-fast: an unknown or missing
key anywhere is an error, so a typo cannot silently fall back to a
default.  Given the same file and seed, a run is fully deterministic.
"""

from __future__ import annotations

import functools
import inspect
import json
import reprlib
from dataclasses import dataclass

from . import baselines, problems
from .driver import BoConfig
from .errors import ConfigError
from .jsonio import check_count, check_number, from_json, is_number


# Problem kind -> builder.  A builder's keyword parameters are the kind's
# config keys, and its defaults are theirs.
PROBLEM_KINDS = {
    "synthetic-powerlaw": problems.synthetic_powerlaw,
    "gamma-noise": problems.gamma_noise,
    "heteroscedastic": problems.heteroscedastic,
    "shifted-lognormal": problems.shifted_lognormal,
    "srom-standin": problems.srom_standin,
}

_TOP_KEYS = {"seed", "problem", "bo", "baseline"}

# A builder's signature, read once per process: a parse binds it.
_signature = functools.cache(inspect.signature)


@dataclass(frozen=True)
class BaselineSettings:
    method: str = "golden"
    mc_samples: int = 1000
    tol: float = 0.04
    max_iter: int = 60

    def __post_init__(self):
        if self.method not in baselines.METHODS:
            raise ValueError(f"method must be one of {list(baselines.METHODS)}, "
                             f"got {reprlib.repr(self.method)}")
        check_number("tol", self.tol, 0.0, above=True)
        check_count("mc_samples", self.mc_samples, 1)
        check_count("max_iter", self.max_iter, 3)


@dataclass(frozen=True)
class RunConfig:
    problem_section: dict                # see _canonical_section
    problem: problems.ObjectiveProblem   # built once, from problem_section
    bo: BoConfig
    baseline: BaselineSettings


def _split(section) -> tuple[str, dict]:
    """``(kind, arguments)`` of a ``problem`` section, an object naming a kind."""
    if not isinstance(section, dict):
        raise ConfigError("'problem' must be an object")
    arguments = dict(section)
    kind = arguments.pop("kind", None)
    if not isinstance(kind, str) or kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {list(PROBLEM_KINDS)}, "
                          f"got {reprlib.repr(kind)}")
    return kind, arguments


def _canonical_section(doc_section: dict) -> dict:
    """A config's ``problem`` section as its builder's bound arguments:
    ``kind``, then every parameter, defaults applied, as the float the
    builder receives; a parameter left at ``None`` is omitted.  Spellings of
    one problem (``0`` or ``0.0``, a default implicit or written) give one
    dict, and that dict, as a section, builds the same problem."""
    kind, section = _split(doc_section)
    try:
        bound = _signature(PROBLEM_KINDS[kind]).bind(**section)
    except TypeError as exc:
        raise ConfigError(f"invalid {kind} problem: {exc}") from exc
    for key, value in section.items():
        if not is_number(value):
            raise ConfigError(f"problem.{key} must be a finite number, got {reprlib.repr(value)}")
    bound.apply_defaults()
    return {"kind": kind, **{key: float(value) for key, value in bound.arguments.items()
                             if value is not None}}


def build_problem(section: dict) -> problems.ObjectiveProblem:
    """The problem of a ``problem`` section, raw or canonical: its keys go to
    the kind's builder as they stand, and what the builder refuses (an
    unknown or missing key, a bad value) is a :class:`ConfigError` naming the kind."""
    kind, arguments = _split(section)
    try:
        return PROBLEM_KINDS[kind](**arguments)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {kind} problem: {exc}") from exc


def parse_config(doc: dict, seed: int | None = None) -> RunConfig:
    """The run config of a JSON document, with its problem built.  The
    seed and the problem's target s0 go into :class:`BoConfig` beside the
    ``bo`` section, which therefore may not hold them.  A ``seed`` given
    here (``--seed``) stands for the document's, which must still be valid."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) in config: {sorted(unknown)}")
    for key in ("seed", "problem", "bo"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    problem_section = _canonical_section(doc["problem"])
    problem = build_problem(problem_section)
    try:   # a "bo" that is not an object is a TypeError too
        if seed is not None:   # the document must hold a valid seed all the same
            check_count("seed", doc["seed"], 0)
        bo = BoConfig(seed=doc["seed"] if seed is None else seed, s0=problem.s0, **doc["bo"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bo section or seed: {exc}") from exc
    if not bo.beta_min > problem.beta_floor:
        raise ConfigError(f"bo.beta_min must be > {problem.beta_floor:g}, where "
                          f"{problem.label} is defined, got {reprlib.repr(bo.beta_min)}")
    try:
        baseline = from_json(BaselineSettings, doc.get("baseline", {}), "baseline")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid baseline section: {exc}") from exc
    return RunConfig(problem_section=problem_section, problem=problem, bo=bo,
                     baseline=baseline)


def load_config(path, seed: int | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, seed)
