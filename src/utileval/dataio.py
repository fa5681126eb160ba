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
at most ``_BLOCK`` (1 024) rows, each block in one pass over its values, and
each block goes to the file before the next is formatted: no text of the
whole report is held.  A CSV table given as a 2-D float array is written the
same way.  :func:`write_json` also writes a report's CSV tables.  A curve
that is in the report and in a table is formatted once a block: the block's
CSV lines go to the table, and its JSON list, made from them by three
``str.replace`` copies, to the report, before the next block is formatted;
no text is kept.  1 024 rows of a two-column curve are about 40 KB of CSV text.  A Tier-1 test
keeps the traced peak of ``evaluate --utility c:2`` on 100 000 rows, the
whole command, below 14 MB.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
import stat
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .core import CostCoefficients, LabeledScores, ValidationError, as_binary_vector
from .learners import FeatureMatrix

__all__ = [
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


# rows of a float array formatted, and written, at a time: a block's CSV
# text and the JSON copies made from it live at once
_BLOCK = 1 << 10


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


def _is_float_table(value) -> bool:
    """Whether ``value`` is written in blocks: a non-empty 2-D array whose
    ``tolist()`` gives Python floats (not masked, no longdouble)."""
    return (
        type(value) is np.ndarray
        and value.dtype.kind == "f"
        and value.dtype.itemsize <= 8
        and value.ndim == 2
        and value.size > 0
    )


def _write_float_list(rows: np.ndarray, indent: str, write, table=None) -> None:
    """Write the JSON list at ``indent`` of the rows of the float table
    ``rows``, all finite, one list of floats a row.  Each block is formatted
    once, and its CSV lines go to ``table`` too when it is given."""
    inner = indent + "  "
    cell = inner + "  "
    row_break = inner + "],\n" + inner + "[\n" + cell
    write("[\n" + inner + "[\n" + cell)
    for start in range(0, rows.shape[0], _BLOCK):
        block = rows[start : start + _BLOCK]
        lines = _float_lines(block)
        if table is not None:
            table(lines)
        if start:
            write(row_break)
        # "\0" holds the cell breaks while the row breaks, which hold commas,
        # go in; the last line's end stays for what follows the block
        text = lines.replace(",", "\0")
        del lines
        text = text.replace("\n", "\n" + row_break, block.shape[0] - 1)
        write(text.replace("\0", ",\n" + cell))
    write(inner + "]\n" + indent + "]")


def _encode_list(items, indent: str, write, tables: dict) -> None:
    if not items:
        write("[]")
        return
    inner = indent + "  "
    separator = "[\n" + inner
    for item in items:
        write(separator)
        _encode(item, inner, write, tables)
        separator = ",\n" + inner
    write("\n" + indent + "]")


def _encode_array(value: np.ndarray, indent: str, write, tables: dict) -> None:
    # a float table goes in its own blocks, not as a list copy, and to its
    # CSV table when ``tables`` holds one
    if _is_float_table(value) and np.isfinite(value).all():
        _write_float_list(value, indent, write, tables.pop(id(value), None))
        return
    # list() fails on a 0-d array's scalar as iterating it always did
    _encode_list(list(value.tolist()), indent, write, tables)


def _encode(value, indent: str, write, tables: dict) -> None:
    """Pass the JSON text of ``value``, whose line is indented by ``indent``,
    to ``write`` piece by piece.  A float table whose ``id`` is a key of
    ``tables`` also goes, as CSV lines, to the ``write`` of its table there,
    which is then removed."""
    if isinstance(value, dict):
        items = {str(key): item for key, item in value.items()}
        if not items:
            write("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(items):
            write(separator + encode_basestring_ascii(key) + ": ")
            _encode(items[key], inner, write, tables)
            separator = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        _encode_list(value, indent, write, tables)
    elif isinstance(value, np.ndarray):
        _encode_array(value, indent, write, tables)
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
    _encode(payload, "", out.append, {})
    return "".join(out)


@contextmanager
def _writing(path):
    try:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_float_rows(rows: np.ndarray, write) -> None:
    """Write the CSV lines of the float table ``rows``, a block at a time."""
    # float.__repr__ is format_number for every float, NaN included
    for start in range(0, rows.shape[0], _BLOCK):
        write(_float_lines(rows[start : start + _BLOCK]))


def write_json(path, payload, tables=None) -> None:
    """:func:`encode_json` of ``payload`` plus a final newline, and each CSV
    table ``{path: (header, rows)}`` of ``tables`` as :func:`write_csv` writes it.

    The text goes to the file piece by piece, a 2-D float array in blocks of at
    most ``_BLOCK`` rows, so no text of the whole report is held.  A table
    whose rows are a 2-D float array of finite values in ``payload`` is
    written in the same pass: each block is formatted once, for the report and
    for the table, and no text is kept once it is written.  A payload that
    cannot be encoded leaves no file.
    """
    tables = tables or {}
    # the first table of each float array goes with the report
    shared: dict[int, object] = {}
    for table, (header, rows) in tables.items():
        if _is_float_table(rows):
            shared.setdefault(id(rows), table)
    try:
        with ExitStack() as stack:
            pending = {}
            for key, table in shared.items():
                handle = stack.enter_context(_writing(table))
                # not kept: a csv writer holds a 128 KiB buffer once it has written
                csv.writer(handle, lineterminator="\n").writerow(tables[table][0])
                pending[key] = handle.write
            with _writing(path) as handle:
                _encode(payload, "", handle.write, pending)
                handle.write("\n")
            # the arrays that are not in the report, or not finite
            for key, write in pending.items():
                _write_float_rows(tables[shared[key]][1], write)
    except TypeError:
        for written in [path, *shared.values()]:
            Path(written).unlink(missing_ok=True)
        raise
    for table, (header, rows) in tables.items():
        if table not in shared.values():
            write_csv(table, header, rows)


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
        if _is_float_table(rows):
            _write_float_rows(rows, handle.write)
            return
        writer.writerows([_cell_text(value) for value in row] for row in rows)
