"""The JSON reader :func:`scalebo.jsonio.from_json`, the inverse of
:func:`~scalebo.jsonio.json_safe`: one rule per declared type.  And the
count rule :func:`~scalebo.jsonio.check_count`, which every library setting
or argument that counts something is read by."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scalebo import acquisition, baselines, config, diagnostics, glm, problems
from scalebo.jsonio import check_count, from_json, json_safe

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
