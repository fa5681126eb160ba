"""File formats: delimited score/feature tables, bonus tables, reports.

Score files are UTF-8 delimited text (a leading byte-order mark is skipped)
with a header row.  ``score`` and ``label`` are required; ``group``,
``reference_score`` and the coefficient quadruple ``a11,a01,a10,a00`` are
recognized when present; any further numeric column is kept as named context
(for example ``age``).  Numbers use ``.`` as the decimal separator.  A file
that is not UTF-8, or a field longer than the ``csv`` module's field limit,
is a :class:`ValidationError` naming the file and line.

Writing uses shortest round-trip float formatting, so a parse/emit cycle
preserves every value exactly.  Reports are written by one encoder: its bytes
equal ``json.dumps(value, sort_keys=True, indent=2)`` of the value with NumPy
arrays and scalars turned into Python lists and numbers, NaN into ``null``
and keys into strings, while a list of finite floats, or of equal-length
rows of them, is formatted in one pass over its values (an array is made such
a list first).  A CSV table given as a 2-D float array is written in one join.
"""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import CostCoefficients, LabeledScores, ValidationError, as_binary_vector
from .learners import FeatureMatrix

__all__ = [
    "read_scores",
    "write_scores",
    "FeatureTable",
    "read_features",
    "read_bonus_table",
    "file_digest",
    "format_number",
    "encode_json",
    "write_json",
    "write_csv",
]

_COEFFICIENT_COLUMNS = ("a11", "a01", "a10", "a00")


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(
            f"line {line}, column {column!r}: {text!r} is not a number"
        ) from exc


def _undecodable(path: Path) -> ValidationError:
    """The error for a file that is not UTF-8, naming its first line that is not."""
    with path.open("rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValidationError(
                    f"{path}, line {line_number}: not UTF-8 text "
                    f"(byte {line[exc.start]:#04x})"
                )
    return ValidationError(f"{path} is not UTF-8 text")


def _read_table(path, delimiter: str) -> tuple[list[str], dict[str, np.ndarray]]:
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
                    # drop this row's partial extension; the cells are parsed
                    # again stripped, since str.strip() removes the ASCII
                    # separators 0x1c-0x1f that float() keeps
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


def read_scores(path, delimiter: str = ",") -> LabeledScores:
    """Parse a delimited score file into a :class:`LabeledScores`."""
    header, columns = _read_table(path, delimiter)
    for required in ("score", "label"):
        if required not in columns:
            raise ValidationError(f"{path}: missing required column {required!r}")
    present = [name for name in _COEFFICIENT_COLUMNS if name in columns]
    if present and len(present) != 4:
        raise ValidationError(
            f"{path}: coefficient columns must appear together; found only {present}"
        )
    coefficients = None
    if present:
        coefficients = CostCoefficients(*(columns[name] for name in _COEFFICIENT_COLUMNS))
    special = {"score", "label", "group", "reference_score", *_COEFFICIENT_COLUMNS}
    context = {name: columns[name] for name in header if name not in special}
    return LabeledScores(
        scores=columns["score"],
        labels=columns["label"],
        group=columns.get("group"),
        reference_scores=columns.get("reference_score"),
        context=context,
        coefficients=coefficients,
    )


def format_number(value) -> str:
    """Shortest decimal representation that round-trips the exact double."""
    value = float(value)
    if value != value:
        return "nan"
    return repr(value)


def write_scores(data: LabeledScores, path, delimiter: str = ",") -> None:
    """Emit a score file that :func:`read_scores` parses back exactly."""
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
        for name, column in zip(_COEFFICIENT_COLUMNS, vectors):
            header.append(name)
            columns.append(column)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(
                [
                    str(int(v)) if float(v).is_integer() and abs(v) < 2**53 else format_number(v)
                    for v in row
                ]
            )


@dataclass(frozen=True)
class FeatureTable:
    """A parsed feature file: matrix, labels, and the age column if present."""

    features: FeatureMatrix
    labels: np.ndarray
    age: np.ndarray | None


def read_features(path, delimiter: str = ",") -> FeatureTable:
    """Parse a feature file: a ``label`` column plus numeric feature columns.

    Every non-label column (including ``age``, when present) is treated as a
    feature; ``age`` is additionally surfaced on its own so callers can build
    age-dependent utilities.
    """
    header, columns = _read_table(path, delimiter)
    if "label" not in columns:
        raise ValidationError(f"{path}: missing required column 'label'")
    names = [name for name in header if name != "label"]
    if not names:
        raise ValidationError(f"{path}: no feature columns besides 'label'")
    values = np.column_stack([columns[name] for name in names])
    features = FeatureMatrix.from_arrays(values, names)
    labels = as_binary_vector(columns["label"], f"{path}: label")
    return FeatureTable(features=features, labels=labels, age=columns.get("age"))


def read_bonus_table(path) -> np.ndarray:
    """Read a whitespace/comma separated list of bonus values.

    Blank lines and ``#`` comments are ignored.  The table must be
    nondecreasing; its length fixes the selection capacity at length - 1.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    values = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].replace(",", " ")
        for token in body.split():
            values.append(_parse_float(token, line_number, "bonus"))
    if not values:
        raise ValidationError(f"{path} contains no bonus values")
    return np.asarray(values, dtype=np.float64)


def file_digest(path) -> str:
    """Hex SHA-256 digest of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_float(value) -> str:
    value = float(value)
    if value != value:
        return "null"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _float_block(values, width: int, indent: str) -> str:
    """JSON text of finite floats: one list (``width`` 0) or rows of ``width``."""
    inner = indent + "  "
    texts = map(float.__repr__, values)
    if not width:
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"
    cell = ",\n" + inner + "  "
    row = "[\n" + inner + "  " + cell.join(["%s"] * width) + "\n" + inner + "]"
    rows = (",\n" + inner).join([row] * (len(values) // width))
    return ("[\n" + inner + rows + "\n" + indent + "]") % tuple(texts)


_FLOAT_TYPES = {float, np.float64}


def _float_list_block(items, indent: str) -> str | None:
    """:func:`_float_block` of a non-empty list of finite floats, or of
    equal-length rows of them; None for any other list."""
    kinds = set(map(type, items))
    if kinds <= _FLOAT_TYPES:
        flat, width = items, 0
    elif kinds <= {list, tuple}:
        widths = set(map(len, items))
        if len(widths) != 1 or 0 in widths:
            return None
        flat, width = list(chain.from_iterable(items)), widths.pop()
        if not set(map(type, flat)) <= _FLOAT_TYPES:
            return None
    else:
        return None
    if not all(map(math.isfinite, flat)):
        return None
    return _float_block(flat, width, indent)


def _encode_list(items, indent: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    block = _float_list_block(items, indent)
    if block is not None:
        out.append(block)
        return
    inner = indent + "  "
    separator = "[\n" + inner
    for item in items:
        out.append(separator)
        _encode(item, inner, out)
        separator = ",\n" + inner
    out.append("\n" + indent + "]")


def _encode(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, whose line is indented by ``indent``."""
    if isinstance(value, dict):
        items = {str(key): item for key, item in value.items()}
        if not items:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(items):
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _encode(items[key], inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        _encode_list(value, indent, out)
    elif isinstance(value, np.ndarray):
        # list() fails on a 0-d array's scalar as iterating it always did
        _encode_list(list(value.tolist()), indent, out)
    elif isinstance(value, (np.bool_, bool)):
        out.append("true" if value else "false")
    elif isinstance(value, (np.floating, float)):
        out.append(_json_float(value))
    elif isinstance(value, (np.integer, int)):
        out.append(int.__repr__(int(value)))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode_json(payload) -> str:
    """Deterministic JSON text: sorted string keys, 2-space indent, NaN as null.

    The text equals ``json.dumps(value, sort_keys=True, indent=2)`` where
    ``value`` is ``payload`` with keys made strings, NumPy arrays made lists,
    NumPy scalars made Python numbers and NaN made ``None``; floats use
    round-trip ``repr`` formatting.
    """
    out: list[str] = []
    _encode(payload, "", out)
    return "".join(out)


@contextmanager
def _writing(path):
    try:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """Deterministic JSON (:func:`encode_json`) plus a final newline."""
    text = encode_json(payload)
    with _writing(path) as handle:
        handle.write(text + "\n")


def _cell_text(value) -> str:
    if isinstance(value, (np.floating, float)):
        return format_number(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV table; floats use round-trip formatting.

    ``rows`` is an iterable of rows, or a 2-D float array written in one join.
    """
    with _writing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if type(rows) is np.ndarray and rows.dtype.kind == "f" and rows.ndim == 2 and rows.size:
            # float.__repr__ is format_number for every float, NaN included
            texts = tuple(map(float.__repr__, rows.ravel().tolist()))
            handle.write((",".join(["%s"] * rows.shape[1]) + "\n") * rows.shape[0] % texts)
            return
        writer.writerows([_cell_text(value) for value in row] for row in rows)
