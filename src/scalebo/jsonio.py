"""Strict JSON and CSV artifacts.

Every JSON file the package writes must parse under a strict reader,
whatever the simulator returned: NaN and infinities have no JSON token,
so they are written as ``null`` and read back as NaN.  :func:`json_safe`
is the one encoder: a dataclass is written as an object of its fields, in
declaration order, so an artifact's dataclasses are its schema.  CSV
files write floats by ``repr``, which round-trips ``nan`` and ``inf`` too.
Every number read from JSON passes :func:`is_number`.
"""

import csv
import dataclasses
import json
import math
import numbers

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


def write_json(path, doc) -> None:
    """Write ``doc`` as indented strict JSON (UTF-8, LF, trailing newline)."""
    text = json.dumps(json_safe(doc), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


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
