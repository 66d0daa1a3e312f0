"""The JSON reader :func:`scalebo.jsonio.from_json`, the inverse of
:func:`~scalebo.jsonio.json_safe`: one rule per declared type.  The JSON
writer :func:`~scalebo.jsonio.write_json`, whose bytes are the standard
library's for what artifacts hold, and which refuses the rest by type.  And the count rule :func:`~scalebo.jsonio.check_count` and the number rule
:func:`~scalebo.jsonio.check_number`, which every library setting or
argument that counts something, or is a number, is read by."""

import dataclasses
import enum
import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scalebo import acquisition, baselines, config, diagnostics, driver, glm, problems
from scalebo.jsonio import check_count, check_number, from_json, json_safe, write_json

HUGE = 10**400   # Python's JSON reader reads it; no float holds it


@dataclass(frozen=True)
class Point:
    x: float
    label: str = "p"


# kind -> ([(JSON value, value read)], [refused JSON values])
RULES = {
    "int": (int, [(3, 3), (-1, -1)], [True, 2.5, "3", None]),
    "bool": (bool, [(True, True), (False, False)], [1, 0.0, "true", None]),
    "str": (str, [("a", "a"), ("", "")], [7, None, ["a"]]),
    "float": (float, [(0.5, 0.5), (2, 2), (None, math.nan), (math.nan, math.nan)],
              [True, False, "0.5", HUGE, math.inf, -math.inf, [0.5]]),
    "list": (list[int], [([], []), ([1, 2], [1, 2])], [3, "12", {"0": 1}, None, [1.5], [True]]),
    "ndarray": (np.ndarray, [([[1, 2.5], [3, 4]], np.array([[1.0, 2.5], [3.0, 4.0]])),
                             ([], np.array([]))],
                [0.5, "12", [[1, 2], [3]], [None], [True], ["1"], [HUGE], [math.nan]]),
    "optional": (str | None, [(None, None), ("a", "a")], [7, ["a"]]),
    "dataclass": (Point, [({"x": 1.5}, Point(1.5)), ({"x": None, "label": "q"}, Point(math.nan, "q"))],
                  [[1.5], "x", None, {"x": "1"}, {"x": 1.5, "label": 7}]),
}


@pytest.mark.parametrize("kind,accepted,refused", RULES.values(), ids=RULES.keys())
def test_rule(kind, accepted, refused):
    for value, expected in accepted:
        read = from_json(kind, value, "doc.json")
        assert type(read) is type(expected)
        assert json_safe(read) == json_safe(expected)   # NaN as None, arrays as lists
    for value in refused:
        with pytest.raises(ValueError, match=r"^doc\.json"):
            from_json(kind, value, "doc.json")


def test_refusal_names_the_field_path():
    with pytest.raises(ValueError, match=r"^doc\.json: 1\.x: expected float, got '1'$"):
        from_json(list[Point], [{"x": 1}, {"x": "1"}], "doc.json")


INTEGER_TYPES = (int, np.int8, np.int16, np.int32, np.int64,
                 np.uint8, np.uint16, np.uint32, np.uint64)


@given(kind=st.sampled_from(INTEGER_TYPES), minimum=st.integers(0, 100),
       offset=st.integers(-1, 1))
def test_check_count_takes_an_integer_of_at_least_the_minimum(kind, minimum, offset):
    assume(minimum + offset >= 0 or not np.issubdtype(kind, np.unsignedinteger))
    value = kind(minimum + offset)
    if offset >= 0:
        check_count("n0", value, minimum)
    else:
        with pytest.raises(ValueError, match=f"^n0 must be an integer >= {minimum}, got "):
            check_count("n0", value, minimum)


NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats(),
    st.integers(-10, 10**6).map(float),   # integral floats, such as 300.0
    st.text(max_size=4),
    st.none(),
)


@given(value=NOT_INTEGERS, minimum=st.integers(0, 4))
def test_check_count_refuses_what_is_not_an_integer(value, minimum):
    with pytest.raises(ValueError, match=f"^n0 must be an integer >= {minimum}, got "):
        check_count("n0", value, minimum)


REALS = st.one_of(
    st.floats(),   # +-0, subnormals, +-inf and NaN among them
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.sampled_from([HUGE, -HUGE]),
)
NOT_NUMBERS = st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_]),
                        st.text(max_size=4), st.none())


def _finite_real(value) -> bool:
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:   # an int beyond float range
        return False


def _number_message(name, minimum, above):
    bound = "" if minimum == -math.inf else f" {'>' if above else '>='} {minimum:g}"
    return f"^{re.escape(f'{name} must be a finite number{bound}, got ')}"


@given(value=st.one_of(REALS, NOT_NUMBERS),
       minimum=st.one_of(st.just(-math.inf), st.floats(-1e6, 1e6)), above=st.booleans())
def test_check_number_takes_a_finite_real_at_or_above_the_minimum(value, minimum, above):
    if _finite_real(value) and (float(value) > minimum if above else float(value) >= minimum):
        check_number("tol", value, minimum, above)
    else:
        with pytest.raises(ValueError, match=_number_message("tol", minimum, above)):
            check_number("tol", value, minimum, above)


@given(minimum=st.floats(allow_nan=False, allow_infinity=False),
       side=st.sampled_from([-1, 0, 1]), above=st.booleans(),
       kind=st.sampled_from([float, np.float64]))
def test_check_number_draws_the_line_at_the_minimum(minimum, side, above, kind):
    value = kind(math.nextafter(minimum, side * math.inf) if side else minimum)
    if math.isfinite(value) and (side > 0 or (side == 0 and not above)):
        check_number("tol", value, minimum, above)
    else:
        with pytest.raises(ValueError, match=_number_message("tol", minimum, above)):
            check_number("tol", value, minimum, above)


def _fit(dof=10):
    return glm.GlmFit(coef_hat=np.array([-0.5, 0.0]), s2=0.1, v_theta=np.eye(2), dof=dof)


_GROUPS = glm.LogDataset(beta=np.repeat([10.0, 20.0, 40.0], 4), s=np.arange(1.0, 13.0))
_PROBLEM = problems.synthetic_powerlaw(-0.58, 0.0, 0.25, 1.0)

# holder -> (call with the count, the count's name, its minimum, refused values)
COUNT_HOLDERS = {
    "McObjective.mc_samples": (lambda v: baselines.McObjective(problem=_PROBLEM, mc_samples=v),
                               "mc_samples", 1, [300.0, True, 0]),
    "McObjective.seed": (lambda v: baselines.McObjective(problem=_PROBLEM, seed=v),
                         "seed", 0, [True, 1.0, -1]),
    "BaselineSettings.mc_samples": (lambda v: config.BaselineSettings(mc_samples=v),
                                    "mc_samples", 1, [2.5, True, 0]),
    "BaselineSettings.max_iter": (lambda v: config.BaselineSettings(max_iter=v),
                                  "max_iter", 3, [3.5, True, 2]),
    "GlmFit.dof": (_fit, "dof", 1, [True, 2.5, 0]),
    "rolling_smooth.window": (lambda v: diagnostics.rolling_smooth([1.0, 2.0, 4.0], v),
                              "window", 1, [True, 2.0, 0]),
    "thompson_batch.batch_size": (lambda v: acquisition.thompson_batch(
        _fit(), 1.0, v, (10.0, 1000.0), np.random.default_rng(0)), "batch_size", 1, [2.0, True, 0]),
    "sample_posterior.count": (lambda v: glm.sample_posterior(_fit(), v, np.random.default_rng(0)),
                               "count", 1, [2.0, True, 0]),
    "residual_stats.min_per_beta": (lambda v: diagnostics.residual_stats(_fit(), _GROUPS, v),
                                    "min_per_beta", 1, [2.0, True, 0]),
}


@pytest.mark.parametrize("holder,name,minimum,refused", COUNT_HOLDERS.values(),
                         ids=COUNT_HOLDERS.keys())
def test_every_count_holder_reads_by_the_count_rule(holder, name, minimum, refused):
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {minimum}, got "):
            holder(value)
    holder(np.int64(minimum))


_SURROGATE = dict(a=-0.58, b=1.0, eps2=0.25, s0=1.0)


def _surrogate(**overrides):
    return acquisition.SurrogateObjective(**{**_SURROGATE, **overrides})


def _search(method):
    return lambda tol: method(baselines.McObjective(problem=_PROBLEM, mc_samples=8),
                              (10.0, 1000.0), tol=tol)


def _bo(**overrides):
    return driver.BoConfig(**{"beta_min": 1.0, "beta_max": 1000.0, "s0": 1.0, **overrides})


# holder -> (call with the number, its name, its minimum, above, refused values)
NUMBER_HOLDERS = {
    "BoConfig.beta_min": (lambda v: _bo(beta_min=v), "beta_min", 0, True, [0.0, True, math.nan]),
    "BoConfig.beta_max": (lambda v: _bo(beta_max=v), "beta_max", 0, True, [-1.0, False, HUGE]),
    "BoConfig.s0": (lambda v: _bo(s0=v), "s0", 0, True, [0.0, True, math.inf]),
    "BoConfig.stop_rel_tol": (lambda v: _bo(stop_rel_tol=v), "stop_rel_tol", 0, True,
                              [0.0, True, math.inf]),
    "BaselineSettings.tol": (lambda v: config.BaselineSettings(tol=v), "tol", 0, True,
                             [0.0, True, math.inf, math.nan]),
    "golden_section.tol": (_search(baselines.golden_section), "tol", 0, True,
                           [math.inf, math.nan, True, 0.0]),
    "parabolic_interpolation.tol": (_search(baselines.parabolic_interpolation), "tol", 0, True,
                                    [math.inf, math.nan, True, 0.0]),
    "SurrogateObjective.a": (lambda v: _surrogate(a=v), "a", -math.inf, False,
                             [True, math.nan, math.inf]),
    "SurrogateObjective.b": (lambda v: _surrogate(b=v), "b", 0, True, [True, 0.0, math.inf]),
    "SurrogateObjective.eps2": (lambda v: _surrogate(eps2=v), "eps2", 0, False,
                                [False, -0.1, math.nan]),
    "SurrogateObjective.s0": (lambda v: _surrogate(s0=v), "s0", 0, True, [True, 0.0, math.inf]),
    "optimal_region.rel": (lambda v: acquisition.optimal_region(_surrogate(), v), "rel", 0, False,
                           [math.nan, math.inf, -0.1]),
    "ObjectiveProblem.s0": (lambda v: problems.ObjectiveProblem(lambda beta, rng: 1.0, s0=v),
                            "s0", 0, True, [True, 0.0, math.inf]),
    "synthetic_powerlaw.eps2": (lambda v: problems.synthetic_powerlaw(-0.58, 0.0, v, 1.0),
                                "eps2", 0, False, [math.nan, math.inf, -0.1]),
    "synthetic_powerlaw.beta_opt": (lambda v: problems.synthetic_powerlaw(-0.58, 0.0, 0.25,
                                                                          beta_opt=v),
                                    "beta_opt", 0, True, [-5.0, 0.0, math.inf, True]),
    "gamma_noise.shape": (lambda v: problems.gamma_noise(-0.5, 0.2, 0.3, shape=v), "shape", 0,
                          True, [math.inf, math.nan, 0.0]),
    "shifted_lognormal.eps2": (lambda v: problems.shifted_lognormal(-0.5, 0.1, v, 0.3), "eps2", 0,
                               False, [math.nan, math.inf, -0.1]),
    "shifted_lognormal.shift": (lambda v: problems.shifted_lognormal(-0.5, 0.1, 0.2, 0.3, shift=v),
                                "shift", 0, False, [math.nan, math.inf, -0.1]),
}


@pytest.mark.parametrize("holder,name,minimum,above,refused", NUMBER_HOLDERS.values(),
                         ids=NUMBER_HOLDERS.keys())
def test_every_number_holder_reads_by_the_number_rule(holder, name, minimum, above, refused):
    for value in refused:
        with pytest.raises(ValueError, match=_number_message(name, minimum, above)):
            holder(value)
    holder(np.float32(2.0))


# -- the writer ------------------------------------------------------------


def stdlib_json(doc) -> str:
    """What :func:`write_json` must write: the standard library's text."""
    return json.dumps(json_safe(doc), indent=2, allow_nan=False) + "\n"


class Mapping(dict):
    """A dict subclass: written as the dict it is."""


class Code(enum.IntEnum):
    """An int subclass: refused, as no artifact holds one."""
    ONE = 1


class Real(float):
    """A float subclass that numpy does not define: refused."""


class Name(str):
    """A str subclass that numpy does not define: refused, as a key too."""


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e16, 1e-5,
                     9999999999999998.0, 1e-4, 0.1]),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80), FLOATS,
    st.text(alphabet=st.characters(codec="utf-8")),   # quotes, controls, non-ASCII
    st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600ab').map(np.str_),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(FLOATS, max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
)
KEYS = st.one_of(st.text(), st.text().map(np.str_))
DOCS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.lists(FLOATS, max_size=5),
    st.lists(st.one_of(FLOATS, FLOATS.map(np.float64)), max_size=5),
    st.dictionaries(KEYS, children, max_size=4),
    st.dictionaries(st.text(), children, max_size=3).map(Mapping),
    st.builds(Point, x=children, label=children),
), max_leaves=24)


@given(doc=DOCS)
# numpy's np.str_.tolist() and str() drop trailing NULs; json.dumps keeps them.
@example(doc=np.str_("a\x00"))
@example(doc=[np.str_("a\x00"), 1.5])
@example(doc={np.str_("a\x00"): np.str_("\x00")})
def test_write_json_writes_the_standard_librarys_bytes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == stdlib_json(doc).encode("utf-8")


def _run_trace():
    problem = problems.gamma_noise(a=-0.5, ln_b=0.2, s0=0.3)
    bo = driver.BoConfig(beta_min=10.0, beta_max=1000.0, s0=problem.s0, n0=12, batch_size=4,
                         max_iterations=3, seed=2)
    return driver.run(bo, problem)


def test_a_trace_is_written_as_the_standard_library_writes_it(tmp_path):
    # A real trace; one whose statistics include a rejected NaN and
    # infinities; and one with integers, as load_trace reads them from a
    # hand-written file: trace.json is the standard library's text, and
    # trace.csv holds the same betas and statistics.
    trace = _run_trace()
    first = trace.iterations[0]

    def with_first(**fields):
        return dataclasses.replace(trace, iterations=[dataclasses.replace(first, **fields),
                                                      *trace.iterations[1:]])

    broken = with_first(s_values=[math.nan, math.inf, -math.inf, *first.s_values[3:]])
    integers = with_first(betas=[10, *first.betas[1:]], s_values=[1, *first.s_values[1:]])
    for doc in (trace, integers, broken):
        driver.save_trace(doc, tmp_path / "trace.json")
        assert (tmp_path / "trace.json").read_text(encoding="utf-8") == stdlib_json(doc)
        driver.trace_to_csv(doc, tmp_path / "trace.csv")
        rows = driver.load_trace_csv(tmp_path / "trace.csv")
        expected = [(rec.index, beta, s, rec.source) for rec in doc.iterations
                    for beta, s in zip(rec.betas, rec.s_values)]
        assert json_safe(rows) == json_safe(expected)
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:4] == [
        f"0,{beta!r},{s}" + ",init" for beta, s in zip(first.betas, ("nan", "inf", "-inf"))]


@pytest.mark.parametrize("doc", [
    {1, 2},
    [1.0, {"a": {1}}, {(1,): 2}],   # the first refusal in document order
    {"a": 1j},
    Point(x=frozenset(), label="p"),
], ids=["set", "nested-set", "complex", "dataclass-field"])
def test_write_json_refuses_what_the_standard_library_refuses(tmp_path, doc):
    with pytest.raises((TypeError, ValueError)) as expected:
        stdlib_json(doc)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        write_json(tmp_path / "doc.json", doc)


# case -> (doc, write_json's refusal).  The standard library writes every
# case but those in STDLIB_REFUSES: a subclass as its base type, and a
# number, boolean or None key as a string.
KEY, VALUE = "keys must be str, not {}", "Object of type {} is not JSON serializable"
NOT_IN_ARTIFACTS = {
    "tuple-key": ({(1, 2): 0}, KEY.format("tuple")),
    "nan-key": ({math.nan: 0}, KEY.format("float")),
    "int-key": ({3: 0}, KEY.format("int")),
    "float-key": ({0.5: 0}, KEY.format("float")),
    "bool-key": ({True: 0}, KEY.format("bool")),
    "none-key": ({None: 0}, KEY.format("NoneType")),
    "numpy-key": ({"a": 1.0, np.int64(3): 2}, KEY.format("int64")),
    "str-subclass-key": ({Name("a"): 0}, KEY.format("Name")),
    "int-subclass": ([1, Code.ONE], VALUE.format("Code")),
    "float-subclass": ({"a": Real(0.5)}, VALUE.format("Real")),
    "str-subclass": (Point(x=1.0, label=Name("p")), VALUE.format("Name")),
    "float-subclass-among-floats": ([0.5, Real(0.5)], VALUE.format("Real")),
    "float-subclass-first": ([Real(0.5), 0.5], VALUE.format("Real")),
}
STDLIB_REFUSES = {"tuple-key", "nan-key", "numpy-key"}


@pytest.mark.parametrize("case", NOT_IN_ARTIFACTS)
def test_write_json_refuses_what_artifacts_do_not_hold(tmp_path, case):
    doc, message = NOT_IN_ARTIFACTS[case]
    if case not in STDLIB_REFUSES:
        stdlib_json(doc)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        write_json(tmp_path / "doc.json", doc)
    assert not (tmp_path / "doc.json").exists()
