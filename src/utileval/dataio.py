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
at most ``_BLOCK`` (1 024) rows, and each block goes to the file before the
next is formatted: no text of the whole report is held.  A block's values
are formatted together in NumPy (:func:`_float_rows`): Schubfach picks the
shortest digits of every value at once, and a table lays them out, so each
text equals ``float.__repr__`` of the value, byte for byte (a Tier-1 test
compares them on random bit patterns and on the edges of the algorithm and
of repr's layout).  A CSV table given as a 2-D float array is written the
same way, NaN and infinities included.  :func:`write_json` also writes a report's CSV tables.  A curve
that is in the report and in a table is formatted once a block: the block's
CSV lines go to the table, and its JSON list, made from them by three
``str.replace`` copies, to the report, before the next block is formatted;
no text is kept.  1 024 rows of a two-column curve are about 40 KB of CSV text.  A Tier-1 test
keeps the traced peak of ``evaluate --utility c:2`` on 100 000 rows, the
whole command, below 14 MB.
"""

from __future__ import annotations

import csv
import functools
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

# Float text.  Each double's digits are those of float.__repr__: the shortest
# decimal that reads back as the same double, and of those the nearest, ties
# to an even last digit.  They are chosen as Schubfach chooses them
# (Giulietti, "The Schubfach way to render doubles", 2020, as the JDK's
# DoubleToDecimal does it), for a whole array of bit patterns at once in
# uint64 arithmetic, and laid out as repr lays them out: fixed notation where
# the value is 0.ddd * 10**d for d from -3 to 16, else d.ddde+XX.  Each text
# is a row of four little-endian uint64 words, 32 bytes of pieces padded with
# NUL bytes, and one bytes.translate drops the NULs of a whole block.
_WORD = np.dtype("<u8")
_LOW32 = (1 << 32) - 1
_LOW63 = (1 << 63) - 1
_INF = 310  # the d that inf is laid out at, and nan at one more
_NO_SIGN = 32  # the point piece of nan, which has neither point nor sign


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 325, of an int or an int64 array."""
    return (e * 913124641741) >> 38


def _words(pieces) -> np.ndarray:
    """The bytes ``pieces``, joined, as little-endian uint64 words."""
    return np.frombuffer(b"".join(pieces), dtype=_WORD)


def _g_table() -> np.ndarray:
    """g of 10**-k for k in [-324, 292]: 10**-k = beta * 2**r with
    2**125 <= beta < 2**126 and g = floor(beta) + 1, as rows (g1, g0) of
    g = g1 * 2**63 + g0."""
    powers = [1]
    for _ in range(324):
        powers.append(powers[-1] * 10)
    g = []
    for k in range(-324, 293):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            beta = (1 << shift) // powers[k]
        else:
            beta = powers[-k] << shift if shift >= 0 else powers[-k] >> -shift
        g.append([(beta + 1) >> 63, (beta + 1) & _LOW63])
    return np.array(g, dtype=np.uint64)


def _exponent_tables() -> dict:
    """What depends on the exponent field bq alone, indexed by 2 bq + (t == 0)
    for the fraction field t: t == 0 above the subnormals is a power of 2,
    whose neighbours below are half as far as those above."""
    key = np.arange(4096)
    bq = key >> 1
    irregular = (key & 1) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + _flog2pow10(-k) + 2
    # a value c 2**q below 2**53 is the integer c >> integer where shifting
    # that back gives c (63 shifts every other c > 0 to 0); nan and inf keep
    # c, 16 digits, and their e puts d at _INF and _INF + 1
    integer = np.where((bq > 1022) & (bq < 1075), 1075 - bq, 63)
    special = bq == 2047
    g = _g_table()
    return {
        "hidden": (bq > 0).astype(np.uint64) << 52,
        # c << shift is 4 c 2**h, the value's middle; the interval's ends
        # are 2**right above it and 2**left below it
        "shift": (h + 2).astype(np.uint64),
        "right": (h + 1).astype(np.uint64),
        "left": (h + 1 - irregular).astype(np.uint64),
        "integer": np.where(special, 0, integer).astype(np.uint64),
        "k": k,
        "integer_k": np.where(special, _INF - 15 - (key & 1), 0),
        "g1": g[k + 324, 0],
        "g0": g[k + 324, 1],
    }


def _layout_tables() -> dict:
    """What depends on the value's d (it is 0.ddd * 10**d) and its
    significant digit count n, indexed by (d + 323) * 18 + n, with d past the
    finite values' for nan and inf: the 17 digits are bytes 7-23 of a row,
    after "0000000"; the bytes [a, p) go first, then a point, then [p, b)
    one byte on."""
    d, n = np.meshgrid(
        np.arange(-323, _INF + 2, dtype=np.int16), np.arange(18, dtype=np.int16), indexing="ij"
    )
    fixed = (d > -4) & (d < 17)
    d1 = np.where(fixed, d, 1)
    a, p = 6 + np.minimum(d1, 1), 7 + d1
    b = 7 + np.where(fixed, np.maximum(n, d1 + 1), n)
    special = d >= _INF
    point = np.where(special, np.where(d > _INF, _NO_SIGN, 0), np.where(fixed | (n > 1), p, 0))
    layout = {
        "left": np.where(special, 0, a * 33 + p),
        "right": np.where(special, 0, p * 33 + b),
        "point": 2 * point,
        "suffix": np.where(special, d - _INF + 1, np.where(fixed, 0, d + 326)),
    }
    return {name: column.astype(np.int16).ravel() for name, column in layout.items()}


@functools.cache
def _text_tables() -> dict:
    """The tables of :func:`_float_rows`, built on first use (about 1.5 ms)."""
    # the bytes [lo, hi) of a row, indexed by lo * 33 + hi
    places = np.arange(33, dtype=np.int8)
    lo, hi = places[:, None, None], places[:, None]
    masks = ((lo <= places[:32]) & (places[:32] < hi)).astype(np.uint8) * np.uint8(0xFF)
    # the sign at byte 0 and the point at byte p, indexed by 2 p + sign
    pieces = [b"-"[:sign].ljust(p, b"\0") + b"." for p in range(_NO_SIGN) for sign in (0, 1)]
    pieces[:2] = [b"", b"-"]
    pieces += [b"", b""]
    # bytes 26-30 of a row: nothing, inf, nan, then e-324 to e+308
    suffixes = [b"", b"inf", b"nan"] + [b"e%+03d" % x for x in range(-324, 309)]
    number = np.arange(10000, dtype=np.int32)
    quads = np.zeros((10000, 8), dtype=np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        quads[:, place] = number // power % 10 + ord("0")
    return {
        **{f"exponent_{name}": column for name, column in _exponent_tables().items()},
        **{f"layout_{name}": column for name, column in _layout_tables().items()},
        "masks": masks.view(_WORD).reshape(-1, 4),
        "pieces": _words(piece.ljust(32, b"\0") for piece in pieces).reshape(-1, 4),
        "suffixes": _words(b"\0\0" + suffix.ljust(6, b"\0") for suffix in suffixes),
        "pow10": 10 ** np.arange(18, dtype=np.uint64),
        # the 4 ASCII digits of 0-9999 in bytes 0-3 of a word, and of 0-9 in
        # byte 7 after 7 zeros
        "quads": quads.view(_WORD).ravel(),
        "first": _words(b"0000000%d" % x for x in range(10)),
        # the trailing zeros of the 4 digits of 0-9999
        "trailing": sum(number % power == 0 for power in (10, 100, 1000, 10000)).astype(np.int8),
    }


def _high64(a, b_high, b_low):
    """The high 64 bits of a * b, for a < 2**63 and b = b_high * 2**32 +
    b_low < 2**59, from products of 32-bit halves."""
    a_high, a_low = a >> 32, a & _LOW32
    middle = a_high * b_low
    middle += a_low * b_high
    a_low *= b_low
    a_low >>= 32
    a_low += middle & _LOW32
    a_low >>= 32
    middle >>= 32
    middle += a_low
    a_high *= b_high
    a_high += middle
    return a_high


def _rop(y1, y0, x1):
    """The JDK's rop(g1, g0, cp) from y1 * 2**64 + y0 = g1 * cp and x1, the
    high 64 bits of g0 * cp: floor(g cp 2**-127), its last bit set where the
    floor drops anything (as the JDK approximates it, which its proof needs)."""
    z = y0 >> 1
    z += x1
    vb = z >> 63
    vb += y1
    z &= _LOW63
    z += _LOW63
    z >>= 63
    vb |= z
    return vb


def _rop_moved(products, g1, g0, j, sign):
    """:func:`_rop` of g (cp + sign 2**j) from ``products`` (y1, y0, x1, p0)
    of g * cp, where p0 is the low 64 bits of g0 * cp; ``j`` is overwritten."""
    y1, y0, x1, p0 = products
    # g1 2**j and g0 2**j as high and low words, then moved by the products
    y0j, p0j = g1 << j, g0 << j
    j = np.subtract(64, j, out=j)
    y1j, x1j = g1 >> j, g0 >> j
    if sign > 0:
        y0j += y0
        p0j += p0
        y1j += y1
        x1j += x1
        y1j += y0j < y0
        x1j += p0j < p0
    else:
        np.subtract(y0, y0j, out=y0j)
        np.subtract(p0, p0j, out=p0j)
        np.subtract(y1, y1j, out=y1j)
        np.subtract(x1, x1j, out=x1j)
        y1j -= y0j > y0
        x1j -= p0j > p0
    del p0j
    return _rop(y1j, y0j, x1j)


def _shortest(bits: np.ndarray, tables: dict):
    """(f, e), a uint64 and an int64 array: each finite double of the uint64
    bit patterns ``bits`` is f * 10**e with the digits of its repr, f
    perhaps with trailing zeros.  A zero gives f = 0,
    e = 0; nan and inf give their 16-digit c and the e that puts them past
    the finite values' decimal points."""
    key = ((bits >> 51) & 0xFFE).view(np.int64)
    c = bits & ((1 << 52) - 1)
    key |= c == 0
    c |= tables["exponent_hidden"].take(key)
    g1 = tables["exponent_g1"].take(key)
    g0 = tables["exponent_g0"].take(key)
    cp = c << tables["exponent_shift"].take(key)
    # g1 * cp = y1 * 2**64 + y0 and g0 * cp = x1 * 2**64 + p0
    y0, p0 = g1 * cp, g0 * cp
    cp_high = cp >> 32
    cp &= _LOW32
    products = (_high64(g1, cp_high, cp), y0, _high64(g0, cp_high, cp), p0)
    del cp, cp_high, y0, p0
    vb = _rop(*products[:3])
    # the interval's ends; an even c includes them
    vbr = _rop_moved(products, g1, g0, tables["exponent_right"].take(key), 1)
    vbl = _rop_moved(products, g1, g0, tables["exponent_left"].take(key), -1)
    del products, g1, g0
    out = c & 1
    vbr -= out
    vbl += out
    del out
    # one multiple of 10 in the interval has the fewest digits; else, of s
    # and s + 1, the one in it, or, both in it, the nearer, ties to even
    s4 = vb & ~np.uint64(3)
    sp4 = s4 // 40 * 40
    upin = vbl <= sp4
    wpin = sp4 + 40 <= vbr
    up = (vbl > s4) | ((s4 + 4 <= vbr) & ((vb & 3) + ((vb >> 2) & 1) > 2))
    s4 >>= 2
    sp4 >>= 2
    f = np.where(upin | wpin, sp4 + wpin * np.uint64(10), s4 + up)
    shift = tables["exponent_integer"].take(key)
    integer = c >> shift
    exact = (integer << shift) == c
    f = np.where(exact, integer, f)
    # 5e-324 and 1e-323 (c = 1 and 2), which the JDK's proof leaves out,
    # get repr's digits too: the tests check both
    e = np.where(exact, tables["exponent_integer_k"].take(key), tables["exponent_k"].take(key))
    return f, e


def _float_rows(bits: np.ndarray) -> np.ndarray:
    """The repr texts of the doubles of the uint64 bit patterns ``bits``, as an
    (n, 4) array of little-endian 32-byte rows padded with NUL bytes; byte 31
    of each row is NUL, for a separator."""
    tables = _text_tables()
    f, e = _shortest(bits, tables)
    length = np.searchsorted(tables["pow10"], f, side="right")
    # 17 digits, in bytes 7-23 of a row, after "0000000"
    f *= tables["pow10"].take(17 - length)
    f = f.view(np.int64)
    high = f // 10**8
    low = f - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    g2 = high // 10**4
    g3 = high - g2 * 10**4
    g4 = low // 10**4
    g5 = low - g4 * 10**4
    quads = tables["quads"]
    digits = np.empty((bits.size, 4), dtype=_WORD)
    digits[:, 0] = tables["first"].take(first)
    digits[:, 1] = quads.take(g2) | (quads.take(g3) << 32)
    digits[:, 2] = quads.take(g4) | (quads.take(g5) << 32)
    digits[:, 3] = 0
    trailing = tables["trailing"]
    zeros = trailing.take(g5) + (g5 == 0) * trailing.take(g4)
    zeros += (low == 0) * (trailing.take(g3) + (g3 == 0) * trailing.take(g2))
    del f, high, low, first, g2, g3, g4, g5
    key = (e + length + 323) * 18 + 17 - zeros
    del e, length, zeros
    masks = tables["masks"]
    rows = masks.take(tables["layout_left"].take(key), axis=0)
    rows &= digits
    digits &= masks.take(tables["layout_right"].take(key), axis=0)
    # the digits after the point go one byte on, past it
    rows.view(np.uint8).reshape(-1)[1:] |= digits.view(np.uint8).reshape(-1)[:-1]
    del digits
    sign = (bits >> 63).view(np.int64)
    rows |= tables["pieces"].take(tables["layout_point"].take(key) + sign, axis=0)
    rows[:, 3] |= tables["suffixes"].take(tables["layout_suffix"].take(key))
    return rows


def _float_lines(block: np.ndarray) -> str:
    """CSV lines of the repr texts of the 2-D float array ``block``.

    A run of one value down a column, as each rate of a ROC curve repeats, is
    formatted once; runs are of equal bits, so -0.0 and 0.0 keep their texts.
    """
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64)
    rows, width = bits.shape
    starts = np.ones(bits.shape, dtype=bool)
    starts[1:] = bits[1:] != bits[:-1]
    if starts.all():
        texts = _float_rows(bits.ravel())
    else:
        # each value's text is that of its run's start: the latest start at
        # or above it in its column, which has the largest rank of those
        rank = (np.cumsum(starts) - 1).reshape(rows, width) * starts
        texts = _float_rows(bits[starts]).take(np.maximum.accumulate(rank, axis=0).ravel(), axis=0)
    # byte 31 of each row: a comma, or a line end after the last column
    separators = _words([b"\0" * 7 + b","] * (width - 1) + [b"\0" * 7 + b"\n"])
    texts.reshape(rows, width, 4)[:, :, 3] |= separators
    return texts.tobytes().translate(None, b"\0").decode("ascii")


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
    # the text of every float, NaN and infinities included, is repr's, which
    # is format_number's
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
