"""File formats: delimited score/feature tables, bonus tables, reports.

Score files are UTF-8 delimited text (a leading byte-order mark is skipped)
with a header row.  ``score`` and ``label`` are required; ``group``,
``reference_score`` and the coefficient quadruple ``a11,a01,a10,a00`` are
recognized when present; any further numeric column is kept as named context
(for example ``age``).  Numbers use ``.`` as the decimal separator.  A file
that is not UTF-8, or a field longer than the ``csv`` module's field limit,
is a :class:`ValidationError` naming the file and line.  After the header,
one C-level ``np.loadtxt`` pass parses the rows when every line is plain
delimited numbers, with the values ``float`` gives; any other file (quoted
cells, whitespace-only lines, underscores in numbers, over-long lines, bad
bytes) goes to the ``csv`` row loop, which reads and refuses exactly what it
always has.

Reports use shortest round-trip float formatting, so every value reads back
exactly.  They are written by one encoder: its bytes equal
``json.dumps(value, sort_keys=True, indent=2)`` of the value with NumPy arrays
and scalars turned into Python lists and numbers, NaN into ``null`` and keys
into strings.  A 2-D float array of finite values is formatted in blocks of
at most ``_BLOCK`` (4 096) rows, each block in one pass over its values, and
each block goes to the file before the next is formatted: no text of the
whole report is held.  A CSV table given as a 2-D float array is written the
same way.  A :class:`FormattedArray` keeps its blocks' texts, so a curve in
the JSON report and in a CSV table is formatted once.  The JSON list of a
block is made from its CSV text by three ``str.replace`` copies that live
with it, so blocks are kept small: 4 096 rows of a two-column curve are about
160 KB of CSV text.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
import stat
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import CostCoefficients, LabeledScores, ValidationError, as_binary_vector
from .learners import FeatureMatrix

__all__ = [
    "FormattedArray",
    "read_scores",
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


_LINE_END = re.compile(rb"\r\n?|\n")
_NOT_SPACE = re.compile(rb"\S")


def _has_long_line(data: bytes, limit: int) -> bool:
    """Whether ``data`` may hold a line of ``limit`` bytes or more.

    Such a line covers a whole aligned window of ``limit // 2`` bytes that
    holds no line end, so only those windows are searched; a shorter line can
    cover one too, which only makes the answer err on the side of True.
    """
    step = max(limit // 2, 1)
    return any(
        data.find(b"\n", start, start + step) < 0 and data.find(b"\r", start, start + step) < 0
        for start in range(0, len(data) - step + 1, step)
    )


def _loadtxt_rows(path: Path, header_lines: int, delimiter: str, width: int):
    """The data rows of ``path`` as an (m, ``width``) array from one C-level
    ``np.loadtxt`` pass, or None where the row loop has to read them.

    ``loadtxt`` reads a subset of what the loop accepts: no quoting, no
    comments, no empty cells, no whitespace-only lines and ASCII numbers.
    What it reads it reads as ``float`` does: the same ``PyOS_string_to_double``
    after stripping the whitespace ``str.strip`` strips.  Lines end at \\n,
    \\r\\n and \\r for both.  It streams in C only from a named file, so the
    file is read again and its header lines skipped.
    """
    try:
        # a pipe cannot be read again: its rows are the loop's
        if not stat.S_ISREG(path.stat().st_mode):
            return None
        data = path.read_bytes()
    except OSError:
        return None
    # loadtxt reads a field longer than field_size_limit(), which csv refuses
    if _has_long_line(data, csv.field_size_limit()):
        return None
    start = 0
    for _ in range(header_lines):
        end = _LINE_END.search(data, start)
        if end is None:
            return None
        start = end.end()
    if _NOT_SPACE.search(data, start) is None:
        return None  # loadtxt would warn of no data; the loop says what is wrong
    try:
        rows = np.loadtxt(
            os.fspath(path),
            delimiter=delimiter,
            comments=None,
            quotechar=None,
            ndmin=2,
            skiprows=header_lines,
            encoding="utf-8-sig",
        )
    except Exception:  # the loop decides every file loadtxt refuses, and how
        return None
    return rows if rows.shape[1] == width else None


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
            rows = _loadtxt_rows(path, reader.line_num, delimiter, width)
            if rows is None:
                rows = _read_rows(reader, header, path)
        except UnicodeDecodeError:
            raise _undecodable(path) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    return header, dict(zip(header, rows.T.copy()))


def _read_rows(reader, header: list[str], path: Path) -> np.ndarray:
    """The rows after the header, one ``csv`` record at a time, as an (m, width) array."""
    width = len(header)
    values = array("d")
    for line_number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise ValidationError(f"line {line_number}: expected {width} fields, got {len(row)}")
        try:
            values.extend(map(float, row))
        except ValueError:
            # drop this row's partial extension; the cells are parsed
            # again stripped, since str.strip() removes the ASCII
            # separators 0x1c-0x1f that float() keeps
            del values[len(values) - len(values) % width :]
            values.extend(
                _parse_float(cell.strip(), line_number, name) for name, cell in zip(header, row)
            )
    if not values:
        raise ValidationError(f"{path} contains no data rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


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
    return repr(float(value))


@dataclass(frozen=True)
class FeatureTable:
    """A parsed feature file: matrix, labels, and the age column if present."""

    features: FeatureMatrix
    labels: np.ndarray
    age: np.ndarray | None

    @property
    def context(self) -> dict:
        """The age column as :class:`~utileval.core.LabeledScores` context."""
        return {} if self.age is None else {"age": self.age}


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


# rows of a float array formatted, and written, at a time: a block's text
# and its JSON copies live at once, beside every kept text of a curve
_BLOCK = 1 << 12


class FormattedArray(np.ndarray):
    """A 2-D float array whose values are formatted once for every writer.

    :func:`write_json` and :func:`write_csv` write it as they write the plain
    array.  The first of them keeps the round-trip text of its values, as CSV
    lines in blocks of at most ``_BLOCK`` rows, and every later one reuses it,
    so a curve written to a JSON report and to a CSV table goes through
    ``float.__repr__`` once.  It is a read-only view of ``array``, whose values
    must not change while it is in use.
    """

    def __new__(cls, array):
        view = np.asarray(array, dtype=np.float64).view(cls)
        view.flags.writeable = False
        return view

    def __array_finalize__(self, obj) -> None:
        self._blocks: dict[int, str] = {}


def _float_lines(block: np.ndarray) -> str:
    """CSV lines of the round-trip texts of the 2-D float array ``block``.

    A run of one value down a column, as each rate of a ROC curve repeats, is
    formatted once; runs are of equal bits, so -0.0 and 0.0 keep their texts.
    """
    values = np.asarray(block, dtype=np.float64)
    rows, width = values.shape
    bits = values.view(np.int64)
    starts = np.ones(values.shape, dtype=bool)
    starts[1:] = bits[1:] != bits[:-1]
    if starts.all():
        # the %r of a Python float is float.__repr__
        return (",".join(["%r"] * width) + "\n") * rows % tuple(values.ravel().tolist())
    texts = np.empty(values.shape, dtype=object)
    for column in range(width):
        first = np.flatnonzero(starts[:, column])
        unique = np.array(list(map(float.__repr__, values[first, column].tolist())), dtype=object)
        texts[:, column] = np.repeat(unique, np.diff(first, append=rows))
    return (",".join(["%s"] * width) + "\n") * rows % tuple(texts.ravel().tolist())


def _is_float_array(value) -> bool:
    """Whether ``value`` is an array whose ``tolist()`` gives Python floats
    (not masked, no longdouble)."""
    return (
        type(value) in (np.ndarray, FormattedArray)
        and value.dtype.kind == "f"
        and value.dtype.itemsize <= 8
    )


def _line_blocks(rows: np.ndarray):
    """The CSV lines of the 2-D float array ``rows``, at most ``_BLOCK`` rows
    a block; a :class:`FormattedArray` formats each block once and keeps it."""
    kept = rows._blocks if isinstance(rows, FormattedArray) else None
    for start in range(0, rows.shape[0], _BLOCK):
        lines = None if kept is None else kept.get(start)
        if lines is None:
            lines = _float_lines(rows[start : start + _BLOCK])
            if kept is not None:
                kept[start] = lines
        yield lines


def _write_float_list(blocks, indent: str, write) -> None:
    """Write the JSON list at ``indent`` of the rows in the non-empty CSV line
    ``blocks`` of finite floats, one list of floats a row."""
    inner = indent + "  "
    cell = inner + "  "
    separator = "[\n" + inner
    for lines in blocks:
        # "\0" holds the cell breaks while the row breaks, which hold commas, go in
        rows = lines[:-1].replace(",", "\0")
        rows = rows.replace("\n", "\n" + inner + "],\n" + inner + "[\n" + cell)
        write(separator)
        write("[\n" + cell + rows.replace("\0", ",\n" + cell) + "\n" + inner + "]")
        separator = ",\n" + inner
    write("\n" + indent + "]")


def _encode_list(items, indent: str, write) -> None:
    if not items:
        write("[]")
        return
    inner = indent + "  "
    separator = "[\n" + inner
    for item in items:
        write(separator)
        _encode(item, inner, write)
        separator = ",\n" + inner
    write("\n" + indent + "]")


def _encode_array(value: np.ndarray, indent: str, write) -> None:
    # a float table goes in its own blocks, not as a list copy, so a
    # FormattedArray's kept texts are used
    if _is_float_array(value) and value.ndim == 2 and value.size and np.isfinite(value).all():
        _write_float_list(_line_blocks(value), indent, write)
        return
    # list() fails on a 0-d array's scalar as iterating it always did
    _encode_list(list(value.tolist()), indent, write)


def _encode(value, indent: str, write) -> None:
    """Pass the JSON text of ``value``, whose line is indented by ``indent``,
    to ``write`` piece by piece."""
    if isinstance(value, dict):
        items = {str(key): item for key, item in value.items()}
        if not items:
            write("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(items):
            write(separator + encode_basestring_ascii(key) + ": ")
            _encode(items[key], inner, write)
            separator = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        _encode_list(value, indent, write)
    elif isinstance(value, np.ndarray):
        _encode_array(value, indent, write)
    elif isinstance(value, (np.bool_, bool)):
        write("true" if value else "false")
    elif isinstance(value, (np.floating, float)):
        write(_json_float(value))
    elif isinstance(value, (np.integer, int)):
        write(int.__repr__(int(value)))
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
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
    _encode(payload, "", out.append)
    return "".join(out)


@contextmanager
def _writing(path):
    try:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """:func:`encode_json` of ``payload`` plus a final newline.

    The text goes to the file piece by piece, a 2-D float array in blocks of at
    most ``_BLOCK`` rows, so no text of the whole report is held.  A payload
    that cannot be encoded leaves no file.
    """
    try:
        with _writing(path) as handle:
            _encode(payload, "", handle.write)
            handle.write("\n")
    except TypeError:
        Path(path).unlink(missing_ok=True)
        raise


def _cell_text(value) -> str:
    if isinstance(value, (np.floating, float)):
        return format_number(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV table; floats use round-trip formatting.

    ``rows`` is an iterable of rows, or a 2-D float array written in blocks of
    at most ``_BLOCK`` rows.
    """
    with _writing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if _is_float_array(rows) and rows.ndim == 2 and rows.size:
            # float.__repr__ is format_number for every float, NaN included
            for lines in _line_blocks(rows):
                handle.write(lines)
            return
        writer.writerows([_cell_text(value) for value in row] for row in rows)
