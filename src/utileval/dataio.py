"""File formats: delimited score/feature tables, bonus tables, reports.

Score files are UTF-8 delimited text (a leading byte-order mark is skipped)
with a header row.  ``score`` and ``label`` are required; ``group``,
``reference_score`` and the coefficient quadruple ``a11,a01,a10,a00`` are
recognized when present; any further numeric column is kept as named context
(for example ``age``).  Numbers use ``.`` as the decimal separator.  Writing
uses shortest round-trip float formatting, so a parse/emit cycle preserves
every value exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CostCoefficients, LabeledScores, ValidationError
from .learners import FeatureMatrix

__all__ = [
    "read_scores",
    "write_scores",
    "FeatureTable",
    "read_features",
    "read_bonus_table",
    "file_digest",
    "format_number",
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
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path} is empty") from None
        header = [name.strip() for name in header]
        if len(set(header)) != len(header):
            raise ValidationError(f"{path} has duplicate column names")
        columns: list[list[float]] = [[] for _ in header]
        for line_number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"line {line_number}: expected {len(header)} fields, got {len(row)}"
                )
            for name, cell, store in zip(header, row, columns):
                store.append(_parse_float(cell.strip(), line_number, name))
    if not columns or not columns[0]:
        raise ValidationError(f"{path} contains no data rows")
    return header, {
        name: np.asarray(store, dtype=np.float64)
        for name, store in zip(header, columns)
    }


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
    labels = columns["label"]
    ints = labels.astype(np.int64)
    if np.any(labels != ints) or np.any((ints != 0) & (ints != 1)):
        raise ValidationError(f"{path}: label values must be 0 or 1")
    return FeatureTable(features=features, labels=ints, age=columns.get("age"))


def read_bonus_table(path) -> np.ndarray:
    """Read a whitespace/comma separated list of bonus values.

    Blank lines and ``#`` comments are ignored.  The table must be
    nondecreasing; its length fixes the selection capacity at length - 1.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
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


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if value != value else value
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


@contextmanager
def _writing(path):
    try:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """Deterministic JSON: sorted keys, NaN as null, round-trip floats."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with _writing(path) as handle:
        handle.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """Deterministic CSV table; floats use round-trip formatting."""
    with _writing(path) as handle:
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
