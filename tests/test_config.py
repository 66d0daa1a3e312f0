"""The run-config schema: which keys each section takes, and what a bad one
raises.

Every mistake below must be a :class:`ConfigError` whose message names the
offending key, so that ``scalebo optimize`` and ``scalebo baseline`` exit 2
with a message the user can act on.
"""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalebo import cli, config, problems
from scalebo.acquisition import argmin_closed_form
from scalebo.errors import ConfigError, SurrogateOverflow

README = Path(__file__).resolve().parents[1] / "README.md"

# Each kind with only its required keys: every default is left out.
MINIMAL = {
    "synthetic-powerlaw": {"a": -0.58, "ln_b": 0.0, "eps2": 0.25, "beta_opt": 101.0},
    "gamma-noise": {"a": -0.5, "ln_b": 0.2, "s0": 0.3},
    "heteroscedastic": {"a": -0.5, "ln_b": 0.0, "s0": 0.3},
    "shifted-lognormal": {"a": -0.5, "ln_b": 0.1, "eps2": 0.2, "s0": 0.3},
    "srom-standin": {},
}

# The documented default of each optional key.
DEFAULTS = {
    "gamma-noise": {"shape": 4.0},
    "heteroscedastic": {"eps_base": 0.2, "eps_slope": 0.1},
    "shifted-lognormal": {"shift": 0.0},
}

BO = {"beta_min": 10.0, "beta_max": 1000.0}


def doc(**overrides):
    base = {"seed": 3, "problem": {"kind": "synthetic-powerlaw", **MINIMAL["synthetic-powerlaw"]},
            "bo": dict(BO)}
    base.update(overrides)
    return base


def draws(problem, beta=7.0, n=16):
    rng = np.random.default_rng(5)
    return [problem.evaluate_statistic(beta, rng) for _ in range(n)]


def raises_naming(key, fn, *args, error=ConfigError):
    with pytest.raises(error) as info:
        fn(*args)
    assert key in str(info.value)


# Each builder checks its own numbers, so a call from Python refuses what a
# config's number check would: a non-number a, ln_b, eps_base or eps_slope.
BAD_BUILDER_NUMBERS = [
    ("synthetic-powerlaw", {"a": math.nan}, "a must be a finite number"),
    ("synthetic-powerlaw", {"a": True}, "a must be a finite number"),
    ("synthetic-powerlaw", {"ln_b": math.inf}, "ln_b must be a finite number"),
    ("gamma-noise", {"a": math.nan}, "a must be a finite number"),
    ("gamma-noise", {"ln_b": True}, "ln_b must be a finite number"),
    ("shifted-lognormal", {"a": math.nan}, "a must be a finite number"),
    ("heteroscedastic", {"eps_base": math.nan}, "eps_base must be a finite number"),
    ("heteroscedastic", {"eps_slope": math.inf}, "eps_slope must be a finite number"),
    ("heteroscedastic", {"a": True}, "a must be a finite number"),
]

# Sections whose ln_b has no positive float exp(ln_b): b overflows, or
# underflows to 0.0.
BAD_SCALE = {
    "powerlaw-overflows": {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 800,
                           "eps2": 0.25, "s0": 1.0},
    "powerlaw-underflows": {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": -800,
                            "eps2": 0.25, "s0": 1.0},
    "gamma-overflows": {"kind": "gamma-noise", "a": -0.5, "ln_b": 800, "s0": 0.3},
    "heteroscedastic-overflows": {"kind": "heteroscedastic", "a": -0.5, "ln_b": 710, "s0": 0.3},
    "shifted-underflows": {"kind": "shifted-lognormal", "a": -0.5, "ln_b": -800, "eps2": 0.2,
                           "s0": 0.3},
}


class TestProblemKinds:
    def test_every_kind_is_listed(self):
        assert set(config.PROBLEM_KINDS) == set(MINIMAL)

    @pytest.mark.parametrize("kind", sorted(MINIMAL))
    def test_every_builder_is_a_problems_function(self, kind):
        builder = config.PROBLEM_KINDS[kind]
        assert inspect.isfunction(builder) and builder.__module__ == problems.__name__
        assert getattr(problems, builder.__name__) is builder

    @pytest.mark.parametrize("kind", sorted(MINIMAL))
    def test_builds_from_required_keys(self, kind):
        problem = config.build_problem({"kind": kind, **MINIMAL[kind]})
        assert problem.label == kind
        assert problem.s0 > 0

    @pytest.mark.parametrize("kind", sorted(DEFAULTS))
    def test_left_out_keys_take_their_defaults(self, kind):
        implicit = config.build_problem({"kind": kind, **MINIMAL[kind]})
        explicit = config.build_problem({"kind": kind, **MINIMAL[kind], **DEFAULTS[kind]})
        assert draws(implicit) == draws(explicit)

    def test_powerlaw_takes_s0_or_beta_opt(self):
        via_opt = config.build_problem({"kind": "synthetic-powerlaw",
                                        **MINIMAL["synthetic-powerlaw"]})
        params = {k: v for k, v in MINIMAL["synthetic-powerlaw"].items() if k != "beta_opt"}
        via_s0 = config.build_problem({"kind": "synthetic-powerlaw", **params, "s0": via_opt.s0})
        assert via_s0.s0 == via_opt.s0
        assert argmin_closed_form(via_opt.truth)[0] == pytest.approx(101.0, rel=1e-12)

    @pytest.mark.parametrize("a", [1e-11, -1e-11])
    def test_powerlaw_with_a_tiny_slope_builds(self, a):
        # Its optimum, exp(+-3e10), is no float: the truth's argmin raises.
        problem = config.build_problem({"kind": "synthetic-powerlaw", "a": a, "ln_b": 0,
                                        "eps2": 0.25, "s0": 2})
        assert problem.s0 == 2.0
        with pytest.raises(SurrogateOverflow):
            argmin_closed_form(problem.truth)

    def test_a_null_target_is_absent_to_the_builder_but_refused_in_a_config(self):
        section = {"kind": "synthetic-powerlaw", **MINIMAL["synthetic-powerlaw"], "s0": None}
        problem = config.build_problem(section)
        assert problem.s0 == config.build_problem(doc()["problem"]).s0
        raises_naming("problem.s0", config.parse_config, doc(problem=section))

    def test_integer_values_are_numbers(self):
        problem = config.build_problem({"kind": "gamma-noise", "a": -1, "ln_b": 0, "s0": 1})
        assert problem.s0 == 1.0


class TestProblemErrors:
    @pytest.mark.parametrize("kind", sorted(MINIMAL))
    def test_unknown_key_is_named(self, kind):
        raises_naming("bogus", config.build_problem, {"kind": kind, **MINIMAL[kind], "bogus": 1.0})

    def test_srom_takes_no_n_dof(self):
        raises_naming("n_dof", config.build_problem, {"kind": "srom-standin", "n_dof": 100})

    @pytest.mark.parametrize("kind", sorted(set(MINIMAL) - {"srom-standin"}))
    def test_missing_a_is_named(self, kind):
        section = {k: v for k, v in MINIMAL[kind].items() if k != "a"}
        raises_naming("'a'", config.build_problem, {"kind": kind, **section})

    @pytest.mark.parametrize("extra", [{"s0": 0.3}, {}])
    def test_powerlaw_needs_exactly_one_target(self, extra):
        section = {"kind": "synthetic-powerlaw", "a": -0.58, "ln_b": 0.0, "eps2": 0.25}
        if extra:
            section.update(extra, beta_opt=101.0)
        with pytest.raises(ConfigError) as info:
            config.build_problem(section)
        assert "s0" in str(info.value) and "beta_opt" in str(info.value)

    # A beta_opt that is no number > 0, or whose target s0 is no positive
    # float (exp(1201) overflows, exp(-1000) underflows to 0.0), is named.
    @pytest.mark.parametrize("extra", [{"beta_opt": -5}, {"beta_opt": 0},
                                       {"beta_opt": 1e300, "ln_b": 800, "a": 0.58},
                                       {"beta_opt": 1e300, "ln_b": -600}],
                             ids=["negative", "zero", "target-overflows", "target-underflows"])
    def test_bad_beta_opt_is_named(self, extra):
        raises_naming("beta_opt", config.build_problem,
                      {"kind": "synthetic-powerlaw", **MINIMAL["synthetic-powerlaw"], **extra})

    def test_unknown_kind_is_named(self):
        raises_naming("cauchy", config.build_problem, {"kind": "cauchy", "a": -0.5})

    @pytest.mark.parametrize("kind, bad, message", BAD_BUILDER_NUMBERS)
    def test_builder_refuses_a_non_number_by_name(self, kind, bad, message):
        raises_naming(message, lambda: config.PROBLEM_KINDS[kind](**{**MINIMAL[kind], **bad}),
                      error=ValueError)

    @pytest.mark.parametrize("section", BAD_SCALE.values(), ids=BAD_SCALE)
    def test_scale_that_is_no_positive_float_is_named(self, section):
        raises_naming(f"ln_b {section['ln_b']} sets b = exp(ln_b)", config.build_problem, section)

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            config.build_problem({"a": -0.5})


class TestProblemSection:
    """A run's problem section, ``run.json``'s ``problem``, is its builder's
    bound arguments: spellings of one problem share it, and so ``compare``
    accepts their runs as one problem's."""

    def test_defaults_are_applied_and_numbers_are_floats(self):
        section = config.parse_config(doc(problem={"kind": "gamma-noise", "a": -1, "ln_b": 0,
                                                   "s0": 1})).problem_section
        assert section == {"kind": "gamma-noise", "a": -1.0, "ln_b": 0.0, "s0": 1.0, "shape": 4.0}
        assert {type(value) for key, value in section.items() if key != "kind"} == {float}

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(MINIMAL)), data=st.data())
    def test_run_json_problem_rebuilds_the_run(self, tmp_path_factory, kind, data):
        # Each optional key present or absent; synthetic-powerlaw's target
        # given as beta_opt or as s0.
        section = {"kind": kind, **MINIMAL[kind]}
        for key, value in DEFAULTS.get(kind, {}).items():
            if data.draw(st.booleans()):
                section[key] = value
        if kind == "synthetic-powerlaw" and data.draw(st.booleans()):
            section["s0"] = config.build_problem(section).s0
            del section["beta_opt"]
        bounds = {"beta_min": 3e7, "beta_max": 8e7} if kind == "srom-standin" else BO
        bo = {**bounds, "n0": 6, "batch_size": 2, "max_iterations": 2}
        tmp = tmp_path_factory.mktemp("identity")
        runs = []
        for name in ("written", "copied"):
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(doc(problem=section, bo=bo)))
            assert cli.main(["optimize", "--config", str(path), "--out", str(tmp / name)]) == 0
            run = json.loads((tmp / name / "run.json").read_text())
            trace = json.loads((tmp / name / "trace.json").read_text())
            runs.append((run["problem"], trace["config"]["s0"],
                         (tmp / name / "trace.csv").read_bytes()))
            section = run["problem"]
        assert runs[0] == runs[1]


    @pytest.mark.parametrize("kind", sorted(MINIMAL))
    def test_parse_binds_the_section_once(self, kind, monkeypatch):
        # The problem is built from the section parse_config canonicalized:
        # one signature bind per parse, and the same problem as a raw build.
        section = {"kind": kind, **MINIMAL[kind]}
        bounds = {"beta_min": 3e7, "beta_max": 8e7} if kind == "srom-standin" else BO
        binds = []
        real = config._canonical_section
        monkeypatch.setattr(config, "_canonical_section",
                            lambda doc_section: binds.append(doc_section) or real(doc_section))
        parsed = config.parse_config(doc(problem=section, bo=dict(bounds)))
        assert binds == [section]
        raw = config.build_problem(section)
        assert (parsed.problem.s0, parsed.problem.label) == (raw.s0, raw.label)
        assert draws(parsed.problem, bounds["beta_min"]) == draws(raw, bounds["beta_min"])


class TestSections:
    @pytest.mark.parametrize("key", ["seed", "s0"])
    def test_seed_or_s0_inside_bo_is_named(self, key):
        raises_naming(key, config.parse_config, doc(bo={**BO, key: 1}))

    @pytest.mark.parametrize("key", ["beta_min", "beta_max"])
    def test_missing_bound_is_named(self, key):
        bo = {k: v for k, v in BO.items() if k != key}
        raises_naming(key, config.parse_config, doc(bo=bo))

    @pytest.mark.parametrize("section", ["bo", "baseline"])
    def test_unknown_key_is_named(self, section):
        base = doc()
        raises_naming("bogus", config.parse_config,
                      doc(**{section: {**base.get(section, {}), "bogus": 1}}))

    # "out" too: a run's output directory is the command's --out, never the config's.
    @pytest.mark.parametrize("key,value", [("bogus", 1), ("out", "x")])
    def test_unknown_top_level_key_is_named(self, key, value):
        raises_naming(key, config.parse_config, doc(**{key: value}))

    def test_unknown_baseline_method_is_named(self):
        raises_naming("newton", config.parse_config, doc(baseline={"method": "newton"}))

    # Built directly, the baseline settings refuse as BoConfig does: a
    # ValueError naming the key.  tol is read by the number rule, so an
    # infinite tol (golden section's bracket test would pass at once) and a
    # boolean are refused.  From a config, each is a ConfigError naming it.
    @pytest.mark.parametrize("key,value", [("tol", float("inf")), ("tol", True),
                                           ("tol", float("nan")), ("tol", 0.0), ("tol", "0.1"),
                                           ("method", "newton")])
    def test_baseline_settings_refuse_with_value_error(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            config.BaselineSettings(**{key: value})
        raises_naming(key, config.parse_config, doc(baseline={key: value}))

    @pytest.mark.parametrize("key", ["seed", "problem", "bo"])
    def test_missing_required_section_is_named(self, key):
        d = doc()
        del d[key]
        raises_naming(key, config.parse_config, d)

    @pytest.mark.parametrize("beta_min", [0.5, 1.0])
    def test_bounds_must_lie_in_the_kind_domain(self, beta_min):
        problem = {"kind": "heteroscedastic", **MINIMAL["heteroscedastic"]}
        raises_naming("beta_min", config.parse_config,
                      doc(problem=problem, bo={**BO, "beta_min": beta_min}))
        cfg = config.parse_config(doc(problem=problem, bo={**BO, "beta_min": 1.5}))
        assert cfg.bo.beta_min == 1.5

    def test_seed_reaches_the_bo_settings(self):
        cfg = config.parse_config(doc(seed=9))
        assert cfg.bo.seed == 9
        assert cfg.bo.s0 == config.build_problem(cfg.problem_section).s0

    def test_baseline_section_is_optional(self):
        cfg = config.parse_config(doc())
        assert cfg.baseline == config.BaselineSettings()


def test_readme_example_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```json\n(.*?)```", text, re.S)
    assert block is not None
    cfg = config.parse_config(json.loads(block.group(1)))
    assert cfg.bo.seed == json.loads(block.group(1))["seed"]
