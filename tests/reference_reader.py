"""The row-by-row table reader that the C-level fast path sits in front of.

Tests read a file with this and with ``utileval.dataio._read_table`` and
compare the headers, the column bits and the error messages.
"""

import csv
from array import array
from pathlib import Path

import numpy as np

from utileval.core import ValidationError
from utileval.dataio import _parse_float, _undecodable


def reference_read_table(path, delimiter: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """One ``csv`` record at a time, each cell through ``float``."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValidationError(f"delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path} is empty")
            header = [name.strip() for name in header]
            if len(set(header)) != len(header):
                raise ValidationError(f"{path} has duplicate column names")
            width = len(header)
            values = array("d")
            for line_number, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != width:
                    raise ValidationError(
                        f"line {line_number}: expected {width} fields, got {len(row)}"
                    )
                try:
                    values.extend(map(float, row))
                except ValueError:
                    del values[len(values) - len(values) % width :]
                    values.extend(
                        _parse_float(cell.strip(), line_number, name)
                        for name, cell in zip(header, row)
                    )
        except UnicodeDecodeError:
            raise _undecodable(path) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    if not values:
        raise ValidationError(f"{path} contains no data rows")
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, width).T.copy()
    return header, dict(zip(header, table))
