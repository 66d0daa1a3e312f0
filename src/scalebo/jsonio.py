"""Strict JSON and CSV artifacts, each format from one writer.

Every JSON file the package writes must parse under a strict reader,
whatever the simulator returned: NaN and infinities have no JSON token,
so they are written as ``null`` and read back as NaN.  :func:`dumps` is
the one encoder, and :func:`write_json` writes its text for every JSON
artifact.  A dataclass is written as an object of its fields, in
declaration order, so an artifact's dataclasses are its schema, and
:func:`from_json` reads them back by field type.  An array is written as
its nested lists and a numpy scalar as its plain number, and the layout is
``json.dumps``' with ``indent=2``.  :func:`write_csv` writes every CSV
file; it writes floats by ``repr``, which round-trips ``nan`` and ``inf``
too.

Two rules read a library setting or argument: :func:`check_count` for a
count and :func:`check_number` for a number: ``BoConfig``'s four, the
baselines' ``tol``, ``SurrogateObjective``'s four, ``rel`` and the problem
builders' ``s0``, ``a``, ``ln_b``, ``eps2``, ``eps_base``, ``eps_slope``,
``shape``, ``shift`` and ``beta_opt`` are numbers; ``BoConfig``'s five,
``McObjective``'s three, the baselines' ``mc_samples`` and ``max_iter``
and the count arguments are counts.  JSON is
read by :func:`is_number` (before ``float()`` could take a string) and
:func:`from_json`'s exact types, CLI flags by argparse; relations such as
``beta_min < beta_max`` and the β data of each statistic call are checked
where they are used, by one function each: :func:`check_bounds`,
:func:`check_positive_array` and ``problems.check_beta``.
"""

import dataclasses
import functools
import json
import math
import numbers
import reprlib
import typing

import numpy as np


def is_number(value) -> bool:
    """True for a finite real number that a float can hold; JSON's
    booleans are not numbers."""
    if isinstance(value, float):   # most values, numpy's float64 too, without the ABC check
        return math.isfinite(value)
    if type(value) is not int and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond float range
        return False


def check_count(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    of at least ``minimum``; a numpy integer counts, a boolean does not."""
    # An exact int, as most counts are, skips the slower ABC check.
    if (type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)) \
            and value >= minimum:
        return
    raise ValueError(f"{name} must be an integer >= {minimum}, got {reprlib.repr(value)}")


def check_number(name: str, value, minimum: float = -math.inf, above: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless :func:`is_number` holds for
    ``value`` and as a float it is at least ``minimum``, or above it with ``above``."""
    if not (is_number(value) and (float(value) > minimum if above else float(value) >= minimum)):
        bound = "" if minimum == -math.inf else f" {'>' if above else '>='} {minimum:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {reprlib.repr(value)}")


def check_bounds(bounds, integer_beta: bool = False) -> None:
    """Raise ``ValueError`` unless ``bounds`` is a pair of numbers > 0 in
    increasing order, with two integers inside it under ``integer_beta``."""
    try:
        beta_min, beta_max = bounds
    except (TypeError, ValueError):
        raise ValueError(f"bounds must be a pair, got {reprlib.repr(bounds)}") from None
    check_number("beta_min", beta_min, 0.0, above=True)
    check_number("beta_max", beta_max, 0.0, above=True)
    if not beta_min < beta_max:
        raise ValueError(f"bounds must satisfy beta_min < beta_max, got {reprlib.repr(bounds)}")
    # One integer would make every design point the same beta: a rank-1 first fit.
    if integer_beta and math.floor(beta_max) - math.ceil(beta_min) < 1:
        raise ValueError(f"integer_beta requires two integers inside {reprlib.repr(bounds)}")


def check_positive_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` naming ``name`` unless its
    dtype is an integer or float one (read before a float conversion could
    take a string) and every value is finite and > 0."""
    array = np.asarray(values)
    # min > 0 fails on a NaN too, which min propagates.
    if array.dtype.kind not in "iuf" or (
            array.size and not (array.min() > 0 and array.max() < math.inf)):
        raise ValueError(f"every {name} must be a finite number > 0, got {reprlib.repr(values)}")
    return array.astype(float, copy=False)


# The type of each field of a dataclass, read once per class.
_field_types = functools.cache(typing.get_type_hints)


def from_json(kind, value, where, path=""):
    """The ``kind`` whose :func:`dumps` text parses to ``value``, read by type:
    a dataclass from an object of its fields (a missing key takes the
    field's default); ``list[T]`` from an array; ``float`` by
    :func:`is_number`, or from ``null``, which reads as NaN; ``int``,
    ``bool`` and ``str`` from exactly that JSON type;
    ``np.ndarray`` from nested arrays of numbers; ``T | None`` from ``null``
    or a T.  Any other value raises ``ValueError`` naming ``where`` and the
    field's ``path``, as in ``trace.json: iterations.0.posterior.q025``.  So
    does a refusal of the dataclass's own checks, and an unknown key, which
    raises ``TypeError``."""
    args = typing.get_args(kind)
    if kind is float:   # first, as most values are floats
        if value is None:
            return math.nan
        if is_number(value):
            return value
    elif dataclasses.is_dataclass(kind):
        if isinstance(value, dict):
            hints = _field_types(kind)
            fields = {key: from_json(hints[key], item, where, f"{path}.{key}")
                      if key in hints else item for key, item in value.items()}
            try:
                return kind(**fields)
            except (TypeError, ValueError) as exc:   # an unknown key, or the class's own check
                raise type(exc)(f"{_at(where, path)}: {exc}") from exc
    elif typing.get_origin(kind) is list:
        if isinstance(value, list):
            return [from_json(args[0], item, where, f"{path}.{i}") for i, item in enumerate(value)]
    elif type(None) in args:   # T | None
        return None if value is None else from_json(args[0], value, where, path)
    elif kind is np.ndarray:
        array = np.array(value, dtype=object)   # ragged rows stay lists: not numbers
        if isinstance(value, list) and all(map(is_number, array.flat)):
            return array.astype(float)
    elif type(value) is kind:   # int, bool or str: a boolean is not an int
        return value
    raise ValueError(f"{_at(where, path)}: expected "
                     f"{getattr(kind, '__name__', kind)}, got {reprlib.repr(value)}")


def _at(where, path) -> str:
    """``where`` and the field's ``path``, as in ``trace.json: config``."""
    return f"{where}{path and ': ' + path[1:]}"


def write_json(path, doc) -> None:
    """Write :func:`dumps` of ``doc`` and a newline (UTF-8, LF), in one write."""
    text = dumps(doc)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def dumps(doc) -> str:
    """``doc`` as indented strict JSON text, from one walk of ``doc``.

    Dicts, lists, tuples and dataclass instances (their fields, in
    declaration order) are walked; an ndarray or a numpy scalar is its
    ``tolist()``, and a non-finite float ``null``.  The layout is
    ``json.dumps``' at ``indent=2``, whose pure-Python encoder this
    replaces: a leaf is formatted by a C-level call (``float.__repr__``,
    ``int.__repr__``, json's ``encode_basestring_ascii``), a list of floats
    by one ``str.join``, and the text is built by joins.  A leaf is a
    float, int, str, bool or None of exactly that type, or numpy's; any
    other value raises ``TypeError`` naming its type, as does a key that
    is not a ``str`` or ``np.str_``.  So a subclass that numpy does not
    define, such as an ``IntEnum``, is refused.  No artifact holds one.
    """
    return _text(doc, "\n")


_ascii = json.encoder.encode_basestring_ascii
_NON_FINITE = frozenset(("nan", "inf", "-inf"))
_FLOAT_ITEMS = frozenset((float, np.float64))   # float.__repr__ writes both as tolist() would


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


# The writer of each leaf type, by exact type: a bool is not an int here.
# An np.str_ is written as the str it is: its tolist() drops trailing NULs.
_LEAVES = {float: _float_text, int: int.__repr__, str: _ascii, np.str_: _ascii,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


@functools.cache
def _field_keys(cls) -> tuple:
    """``(name, '"name": ')`` of each field of the dataclass ``cls``, in order."""
    return tuple((field.name, _ascii(field.name) + ": ") for field in dataclasses.fields(cls))


def _text(doc, newline: str) -> str:
    """The JSON text of ``doc``, whose own line starts with ``newline``
    (a line break and the indent of its depth): exact leaf types first,
    then containers, dataclasses and numpy values."""
    leaf = _LEAVES.get(type(doc))
    if leaf is not None:
        return leaf(doc)
    inner = newline + "  "
    if isinstance(doc, dict):
        items = [_key(key) + ": " + _text(value, inner) for key, value in doc.items()]
    elif isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        separator = "," + inner
        reprs = _float_list_reprs(doc)
        body = (_float_items(reprs, separator) if reprs
                else separator.join([_text(value, inner) for value in doc]))
        return "[" + inner + body + newline + "]"
    elif hasattr(type(doc), "__dataclass_fields__"):
        items = [key + _text(getattr(doc, name), inner)
                 for name, key in _field_keys(type(doc))]
    elif isinstance(doc, (np.ndarray, np.generic)):
        return _text(doc.tolist(), newline)
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
    return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"


def _float_list_reprs(values) -> list | None:
    """``float.__repr__`` of each of ``values``, or None unless every one
    is a float or an ``np.float64``."""
    if isinstance(values[0], float) and _FLOAT_ITEMS.issuperset(map(type, values)):
        return list(map(float.__repr__, values))
    return None


def _float_items(reprs: list, separator: str) -> str:
    """Float reprs joined by ``separator``, a non-finite one as ``null``."""
    text = separator.join(reprs)
    if "n" in text:   # a finite float's repr holds only digits, ".", "e", "+" and "-"
        text = separator.join(["null" if r in _NON_FINITE else r for r in reprs])
    return text


def _key(key) -> str:
    """A dict key, which must be a ``str`` or an ``np.str_``."""
    if type(key) is not str and type(key) is not np.str_:
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _ascii(key)


def write_csv(path, header, blocks) -> None:
    """Write ``header`` and a run of rows per block as CSV (UTF-8, LF).

    A block is one row's fields.  Its list or tuple fields, which must be
    adjacent and of one length, give one value per row; its other fields
    repeat on each of those rows, and a block of empty lists writes none.
    A scalar float, numpy's included, is written by ``repr(float(v))``, a
    list's value by ``repr`` and anything else by ``str``.  The repeated
    fields are formatted once and each block is one join, so a probe of a
    thousand draws costs one join and one write.  Nothing is quoted: no
    value the package writes holds a comma, quote or line break.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            lists = [i for i, field in enumerate(block) if isinstance(field, (list, tuple))]
            if not lists:
                fh.write(",".join(map(_csv_field, block)) + "\n")
                continue
            first, last = lists[0], lists[-1] + 1
            head = "".join([_csv_field(field) + "," for field in block[:first]])
            tail = "".join(["," + _csv_field(field) for field in block[last:]]) + "\n"
            columns = [map(repr, column) for column in block[first:last]]
            values = columns[0] if len(columns) == 1 else map(",".join, zip(*columns, strict=True))
            body = (tail + head).join(values)   # a repr is never empty: "" is no rows
            if body:
                fh.write(head + body + tail)


def _csv_field(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)
