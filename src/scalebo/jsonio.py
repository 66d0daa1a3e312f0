"""Strict JSON and CSV artifacts.

Every JSON file the package writes must parse under a strict reader,
whatever the simulator returned: NaN and infinities have no JSON token,
so they are written as ``null`` and read back as NaN.  :func:`json_safe`
is the one encoding: a dataclass is written as an object of its fields, in
declaration order, so an artifact's dataclasses are its schema, and
:func:`from_json` reads them back by field type.  :func:`write_json` is the
one emitter, for every JSON artifact: its bytes equal
``json.dumps(json_safe(doc), indent=2)`` plus a newline, for what artifacts
hold: string keys, and of float, int and str subclasses only numpy's.  It
exists because ``indent`` sends ``json.dumps`` to its pure-Python encoder:
the emitter walks the document once, formats leaves with C-level calls and
writes once.
CSV files write floats by ``repr``, which round-trips ``nan`` and ``inf``
too.

Two rules read a library setting or argument: :func:`check_count` for a
count and :func:`check_number` for a number: ``BoConfig``'s four, the
baselines' ``tol``, ``SurrogateObjective``'s four, ``rel`` and the problem
builders' ``s0``, ``a``, ``ln_b``, ``eps2``, ``eps_base``, ``eps_slope``,
``shape``, ``shift`` and ``beta_opt``.  JSON is
read by :func:`is_number` (before ``float()`` could take a string) and
:func:`from_json`'s exact types, CLI flags by argparse; relations such as
``beta_min < beta_max`` and the β data of each statistic call are checked
where they are used.
"""

import csv
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
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond float range
        return False


def check_count(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    of at least ``minimum``; a numpy integer counts, a boolean does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {reprlib.repr(value)}")


def check_number(name: str, value, minimum: float = -math.inf, above: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless :func:`is_number` holds for
    ``value`` and as a float it is at least ``minimum``, or above it with ``above``."""
    if not (is_number(value) and (float(value) > minimum if above else float(value) >= minimum)):
        bound = "" if minimum == -math.inf else f" {'>' if above else '>='} {minimum:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {reprlib.repr(value)}")


def json_safe(doc):
    """``doc`` as JSON values, with every non-finite float replaced by ``None``.

    Dicts, lists, tuples and dataclass instances (their fields, in order)
    are walked; an ndarray or a numpy scalar is its ``tolist()`` (for a
    scalar, the plain Python number).  Other values pass through.
    """
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if doc is None or isinstance(doc, (str, int)):   # bool is an int
        return doc
    if isinstance(doc, dict):
        return {key: json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [json_safe(value) for value in doc]
    if hasattr(type(doc), "__dataclass_fields__"):   # an instance, not a dataclass type
        return {field.name: json_safe(getattr(doc, field.name))
                for field in dataclasses.fields(doc)}
    if isinstance(doc, (np.ndarray, np.generic)):
        return json_safe(doc.tolist())
    return doc


_field_types = functools.cache(typing.get_type_hints)


def from_json(kind, value, where, path=""):
    """The ``kind`` whose :func:`json_safe` form is ``value``, read by type:
    a dataclass from an object of its fields (a missing key takes the
    field's default); ``list[T]`` from an array; ``float`` by
    :func:`is_number`, or from ``null`` or a bare NaN, which read as NaN;
    ``int``, ``bool`` and ``str`` from exactly that JSON type;
    ``np.ndarray`` from nested arrays of numbers; ``T | None`` from ``null``
    or a T.  Any other value raises ``ValueError`` naming ``where`` and the
    field's ``path``, as in ``trace.json: iterations.0.posterior.draws``.  So
    does a refusal of the dataclass's own checks, and an unknown key, which
    raises ``TypeError``."""
    args = typing.get_args(kind)
    if kind is float:   # first, as most values are floats
        if value is None or (isinstance(value, float) and math.isnan(value)):
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
    """Write ``doc`` as indented strict JSON (UTF-8, LF, trailing newline):
    ``json.dumps(json_safe(doc), indent=2, allow_nan=False)``, byte for
    byte, from one walk of ``doc`` and one write.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which with
    the separate :func:`json_safe` walk took about twice as long on a
    trace.  Here a leaf is formatted by a C-level call (``float.__repr__``,
    ``int.__repr__``, json's ``encode_basestring_ascii``), a list of floats
    by one ``str.join``, and the text is built by joins.  What ``json``
    would coerce raises ``TypeError`` naming its type: a key that is not a
    ``str`` or ``np.str_``, and a subclass of float, int or str that numpy
    does not define, such as an ``IntEnum``.  No artifact holds either.
    """
    text = _text(doc, "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


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
    (a line break and the indent of its depth); the branches follow
    :func:`json_safe`'s order."""
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


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV (UTF-8, LF endings).

    Floats, numpy's included, are written by ``repr(float(v))``; other
    values by ``str``.  ``csv.writer`` quotes any field that needs it.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
