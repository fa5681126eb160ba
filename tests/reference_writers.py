"""The per-value report writers that the one-pass encoder replaced.

Tests render a payload with these and compare the bytes with what
``utileval.dataio.write_json`` and ``write_csv`` write for it.
"""

import csv
import io
import json

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
