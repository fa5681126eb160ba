"""The per-value report writers that the one-pass encoder replaced, and a
score-file writer.

Tests render a payload with these and compare the bytes with what
``utileval.dataio.write_json`` and ``write_csv`` write for it, and read score
files written by :func:`reference_scores_text` back with ``read_scores``.
"""

import csv
import io
import json
import math

import numpy as np

from utileval.dataio import format_number


def reference_jsonable(value):
    """The per-value conversion reports went through before the one-pass encoder."""
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if value != value else value
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def reference_json_text(payload) -> str:
    """The text the old ``write_json`` wrote for ``payload``."""
    return json.dumps(reference_jsonable(payload), sort_keys=True, indent=2) + "\n"


def reference_csv_text(header, rows) -> str:
    """The text the old per-cell ``write_csv`` wrote for ``header`` and ``rows``."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        out = []
        for value in row:
            if isinstance(value, (np.floating, float)):
                out.append(format_number(value))
            elif isinstance(value, (np.integer, int)) and not isinstance(value, bool):
                out.append(str(int(value)))
            else:
                out.append(str(value))
        writer.writerow(out)
    return handle.getvalue()


def _score_cell(value) -> str:
    value = float(value)
    negative_zero = value == 0 and math.copysign(1.0, value) < 0
    if value.is_integer() and abs(value) < 2**53 and not negative_zero:
        return str(int(value))
    return format_number(value)


def reference_scores_text(data, delimiter=",") -> str:
    """A score file holding every column of ``data``: each value as an
    integer where that reads back as the same float, else as its round-trip
    text."""
    header = ["score", "label"]
    columns = [data.scores, data.labels]
    if data.group is not None:
        header.append("group")
        columns.append(data.group)
    if data.reference_scores is not None:
        header.append("reference_score")
        columns.append(data.reference_scores)
    for name in sorted(data.context):
        header.append(name)
        columns.append(data.context[name])
    if data.coefficients is not None:
        vectors = data.coefficients.as_vectors(data.n)
        for name, column in zip(("a11", "a01", "a10", "a00"), vectors):
            header.append(name)
            columns.append(column)
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_score_cell(v) for v in row])
    return handle.getvalue()
