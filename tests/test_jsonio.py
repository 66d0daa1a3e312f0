"""The JSON reader :func:`scalebo.jsonio.from_json`, the inverse of
:func:`~scalebo.jsonio.json_safe`: one rule per declared type."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from scalebo.jsonio import from_json, json_safe

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
