"""Strict JSON and CSV artifacts.

Every JSON file the package writes must parse under a strict reader,
whatever the simulator returned: NaN and infinities have no JSON token,
so they are written as ``null`` and read back as NaN.  CSV files write
floats by ``repr``, which round-trips ``nan`` and ``inf`` too.
"""

import csv
import json
import math


def json_safe(doc):
    """``doc`` with every non-finite float replaced by ``None``.

    Dicts, lists and tuples are walked; other values pass through.
    """
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [json_safe(value) for value in doc]
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
