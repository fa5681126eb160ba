import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from utileval import (
    CostCoefficients,
    LabeledScores,
    ValidationError,
    file_digest,
    read_bonus_table,
    read_features,
    read_scores,
    write_csv,
    write_json,
)
from utileval import dataio
from utileval.dataio import _read_table, encode_json, format_number

from conftest import traced_peak
from reference_reader import reference_read_table
from reference_writers import (
    reference_csv_text,
    reference_json_text,
    reference_jsonable,
    reference_scores_text,
)


def test_read_scores_full_columns(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "score,label,group,reference_score,age,a11,a01,a10,a00\n"
        "0.25,1,0,0.3,44,1,2,0.5,1\n"
        "0.75,0,1,0.8,57,1,2,0.5,1\n"
    )
    data = read_scores(path)
    assert data.scores.tolist() == [0.25, 0.75]
    assert data.labels.tolist() == [1, 0]
    assert data.group.tolist() == [0, 1]
    assert data.reference_scores.tolist() == [0.3, 0.8]
    assert data.context["age"].tolist() == [44.0, 57.0]
    assert data.coefficients.a01.tolist() == [2.0, 2.0]


def test_read_scores_minimal_and_blank_lines(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.5,1\n\n0.25,0\n")
    data = read_scores(path)
    assert data.n == 2
    assert data.group is None and data.reference_scores is None
    assert data.context == {} and data.coefficients is None


def test_read_scores_skips_byte_order_mark(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"\xef\xbb\xbfscore,label\n0.5,1\n0.25,0\n")
    data = read_scores(path)
    assert data.scores.tolist() == [0.5, 0.25]
    assert data.labels.tolist() == [1, 0]


def test_read_scores_errors(tmp_path):
    def attempt(text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    with pytest.raises(ValidationError, match="missing required column 'label'"):
        read_scores(attempt("score\n0.5\n"))
    with pytest.raises(ValidationError, match="line 3, column 'score'"):
        read_scores(attempt("score,label\n0.5,1\noops,0\n"))
    with pytest.raises(ValidationError, match="line 2: expected 2 fields, got 3"):
        read_scores(attempt("score,label\n0.5,1,9\n"))
    with pytest.raises(ValidationError, match="duplicate"):
        read_scores(attempt("score,score,label\n0.5,0.5,1\n"))
    with pytest.raises(ValidationError, match="no data rows"):
        read_scores(attempt("score,label\n"))
    with pytest.raises(ValidationError, match="is empty"):
        read_scores(attempt(""))
    with pytest.raises(ValidationError, match="together"):
        read_scores(attempt("score,label,a11\n0.5,1,1\n"))
    with pytest.raises(ValidationError, match="cannot open"):
        read_scores(tmp_path / "missing.csv")
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"score,label\n0.2,0\n0.8,1,caf\xe9\n")
    with pytest.raises(ValidationError, match=r"latin1.csv, line 3: not UTF-8 text \(byte 0xe9\)"):
        read_scores(not_utf8)
    with pytest.raises(ValidationError, match=r"bad.csv, line 3: field larger than field limit"):
        read_scores(attempt("score,label\n0.5,1\n" + "1" * 131073 + ",0\n"))


def test_read_scores_cells_parse_as_before(tmp_path):
    path = tmp_path / "scores.csv"
    # whitespace around cells (including the separators 0x1c-0x1f, which
    # str.strip() removes and float() does not) and a BOM are dropped
    path.write_bytes("\ufeff score ,label\n 0.5 ,\x1c1\x1f\r\n\r\n0.25,\t0\n".encode())
    data = read_scores(path)
    assert data.scores.tolist() == [0.5, 0.25]
    assert data.labels.tolist() == [1, 0]
    with pytest.raises(ValidationError, match="line 3, column 'label': '1x' is not a number"):
        path.write_text("score,label\n0.5,1\n0.25, 1x \n")
        read_scores(path)
    # a blank line in a one-column file is skipped, not read as an empty cell
    single = tmp_path / "single.txt"
    single.write_text("x1\n1\n\n2\n")
    header, columns = _read_table(single, ",")
    assert header == ["x1"] and columns["x1"].tolist() == [1.0, 2.0]


def test_read_scores_semicolon_delimiter(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("score;label\n0.5;1\n0.25;0\n")
    data = read_scores(path, delimiter=";")
    assert data.scores.tolist() == [0.5, 0.25]


def test_write_read_round_trip_is_exact(tmp_path, rng):
    n = 120
    scores = rng.random(n)
    ages = np.round(rng.random(n) * 100, 6)
    # -0.0 is integral, but only its round-trip text keeps its sign
    scores[:3] = [-0.0, 0.0, 1.0]
    ages[:3] = [-0.0, -3.0, 0.0]
    data = LabeledScores(
        scores=scores,
        labels=rng.integers(0, 2, n),
        group=rng.integers(0, 2, n),
        reference_scores=rng.random(n),
        context={"age": ages, "benefit": rng.random(n)},
        coefficients=CostCoefficients(1.0, rng.random(n) * 3, rng.random(n), 1.0),
    )
    path = tmp_path / "round.csv"
    for delimiter in (",", "."):
        path.write_text(reference_scores_text(data, delimiter), encoding="utf-8")
        if delimiter == ".":  # every cell holding a "." is quoted
            assert '"-0.0"' in path.read_text()
        back = read_scores(path, delimiter=delimiter)
        assert np.signbit(back.scores[:3]).tolist() == [True, False, False]
        assert np.signbit(back.context["age"][:3]).tolist() == [True, True, False]
        np.testing.assert_array_equal(back.scores, data.scores)
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.group, data.group)
        np.testing.assert_array_equal(back.reference_scores, data.reference_scores)
        for key in data.context:
            np.testing.assert_array_equal(back.context[key], data.context[key])
        for expected, actual in zip(
            data.coefficients.as_vectors(n), back.coefficients.as_vectors(n)
        ):
            np.testing.assert_array_equal(actual, expected)


def test_read_features(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("label,x1,age\n0,1.5,30\n1,-2.5,70\n1,0.5,50\n")
    table = read_features(path)
    assert table.features.names == ("x1", "age")
    assert table.features.values.shape == (3, 2)
    assert table.labels.tolist() == [0, 1, 1]
    assert table.age.tolist() == [30.0, 70.0, 50.0]
    no_age = tmp_path / "noage.csv"
    no_age.write_text("label,x1\n0,1.5\n1,2.5\n")
    assert read_features(no_age).age is None
    with pytest.raises(ValidationError, match="label values"):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,x1\n2,1.5\n")
        read_features(bad)
    # a label that no integer equals is refused without a cast warning
    for label in ("nan", "inf", "1e300", "0.5"):
        bad.write_text(f"label,x1\n{label},1.5\n")
        with warnings.catch_warnings(), pytest.raises(ValidationError, match="label values"):
            warnings.simplefilter("error")
            read_features(bad)
    with pytest.raises(ValidationError, match="no feature columns"):
        only = tmp_path / "only.csv"
        only.write_text("label\n1\n")
        read_features(only)


def test_read_bonus_table(tmp_path):
    path = tmp_path / "bonus.txt"
    path.write_text("# capacity 4\n0, 1 1.5\n\n2 2 # trailing comment\n")
    values = read_bonus_table(path)
    assert values.tolist() == [0.0, 1.0, 1.5, 2.0, 2.0]
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError, match="no bonus values"):
        read_bonus_table(empty)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"0 1\n# caf\xe9\n2\n")
    with pytest.raises(ValidationError, match="latin1.txt, line 2: not UTF-8 text"):
        read_bonus_table(latin1)


def test_file_digest(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(b"abc")
    # sha256 of "abc" is a fixed reference value
    assert file_digest(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_format_number_round_trip():
    for value in (0.1, 1 / 3, 1e-300, 123456.789, 0.0):
        assert float(format_number(value)) == value
    assert format_number(float("nan")) == "nan"
    assert format_number(np.float64(0.25)) == "0.25"


def test_write_json_deterministic(tmp_path):
    path = tmp_path / "report.json"
    payload = {
        "b": [1.0, float("nan")],
        "a": {"x": np.float64(0.5), "flag": np.bool_(True)},
        "n": np.int64(7),
    }
    write_json(path, payload)
    text = path.read_text()
    parsed = json.loads(text)
    assert parsed["b"][1] is None
    assert parsed["a"]["x"] == 0.5
    assert parsed["a"]["flag"] is True
    assert parsed["n"] == 7
    assert text.index('"a"') < text.index('"b"') < text.index('"n"')


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["name", "value", "count"], [("x", 0.1, 3), ("y", float("nan"), np.int64(4))])
    lines = path.read_text().splitlines()
    assert lines == ["name,value,count", "x,0.1,3", "y,nan,4"]


_SPECIAL_FLOATS = [0.0, -0.0, 1.0, 0.1, 5e-324, -2.2250738585072014e-308, 1e308, math.nan]
_SPECIAL_FLOATS += [math.inf, -math.inf]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
_arrays = st.one_of(
    hnp.arrays(np.float64, _shapes, elements=_finite | _floats),
    hnp.arrays(np.float32, _shapes, elements=st.floats(width=32)),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.bool_, _shapes),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(max_size=6),
    st.sampled_from(["caf\u00e9", "\x00\n\t\x1f\"\\", "\U0001f600", "\ud800"]),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
# lists of floats and of equal-length float rows, with 1 beside 1.0
_float_rows = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.lists(_finite | _floats | st.just(1), min_size=width, max_size=width).map(
            lambda row: row if len(row) % 2 else tuple(row)
        ),
        min_size=1,
        max_size=4,
    )
)
_keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.sampled_from([1.0, -0.0]))
_payloads = st.recursive(
    st.one_of(_scalars, _arrays, _float_rows, st.lists(_floats | st.just(1), max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_payloads)
def test_write_json_equals_indented_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    write_json(path, payload)
    expected = reference_json_text(payload)
    assert path.read_bytes() == expected.encode()
    assert encode_json(payload) + "\n" == expected


def test_write_json_rejects_what_json_rejects(tmp_path):
    for payload in ({"a": b"bytes"}, [1j], np.array([1j]), np.array(0.0), np.array(2.5)):
        with pytest.raises(TypeError):
            json.dumps(reference_jsonable(payload))
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", payload)


def test_write_json_and_csv_take_masked_arrays_as_before(tmp_path):
    masked = np.ma.masked_array([[0.5, 1.5], [2.5, 3.5]], mask=[[False, True], [False, False]])
    assert encode_json({"m": masked}) + "\n" == reference_json_text({"m": masked})
    _assert_csv_as_before(tmp_path, ["x", "y"], masked)


def _assert_csv_as_before(directory, header, rows):
    write_csv(directory / "new.csv", header, rows)
    assert (directory / "new.csv").read_bytes() == reference_csv_text(header, rows).encode()


def test_write_csv_cells_as_before(tmp_path):
    mixed = [
        ("a,b", "", True, np.bool_(False), np.float32(0.1), np.int64(-3), np.uint8(7)),
        ('say "hi"', "line\nbreak", math.nan, math.inf, -math.inf, -0.0, 5e-324),
        (1, 1.0, np.float64(1e22), np.float16(0.5), None, 2**70, "caf\u00e9"),
    ]
    _assert_csv_as_before(tmp_path, ["p", "q", "r", "s", "t", "u", "v"], mixed)
    for rows in (
        np.array([[0.5], [math.nan], [-math.inf]]),
        np.array([[0.1, -0.0], [1e-310, math.inf], [math.nan, 2.0]]),
        # runs of one value down a column, -0.0 beside 0.0 among them
        np.array([[0.0, 0.25], [-0.0, 0.25], [-0.0, 0.5], [0.1, 0.5], [0.1, math.nan]]),
        np.array([[0.25, 0.75]], dtype=np.float32),
        np.empty((0, 2)),
        np.empty((2, 0)),
        np.array([[1, 2], [3, 4]]),
        [],
    ):
        _assert_csv_as_before(tmp_path, ["x", "y"], rows)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32]),
        st.tuples(st.integers(0, 6), st.integers(1, 3)),
        elements=st.floats(width=32),
    )
)
def test_write_csv_float_arrays_as_before(tmp_path_factory, rows):
    _assert_csv_as_before(tmp_path_factory.getbasetemp(), ["a", "b", "c"][: rows.shape[1]], rows)


_PADDING = st.sampled_from(["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", " \x1f"])
_ODD_CELLS = st.sampled_from(
    ["1_0", "inf", "-inf", "nan", "+nan", "Infinity", '"0.5"', '"1,5"', "#1", "1#", "", "0x1", "1e"]
)


def _number_text(value: float, form: str) -> str:
    """``value`` as its repr, in a printf form, or as the integer it is."""
    if form == "repr":
        return repr(value)
    if form == "%d":
        return str(int(value)) if math.isfinite(value) and abs(value) < 1e20 else repr(value)
    return form % value


_number_texts = st.builds(
    _number_text, st.floats(), st.sampled_from(["repr", "%.17g", "%e", "%.3g", "%d"])
)


@st.composite
def _table_files(draw) -> tuple[bytes, str]:
    """A small delimited file with the cell forms, padding, line ends and
    stray lines the row loop has always accepted or refused.  Half of them
    have only numbers and blank lines, the files the fast path reads."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    clean = draw(st.booleans())
    padding = _PADDING.filter(lambda pad: not clean or delimiter not in pad)
    kinds = ["row"] * 6 + ["blank"] + ([] if clean else ["spaces", "ragged", "trailing"])
    width = draw(st.integers(1, 3))
    header = ["score", "label", "age"][:width]
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "\x1c", "  \x1f"])))
        else:
            cells = []
            for _ in range(width + (kind == "ragged")):
                odd = not clean and draw(st.integers(0, 9)) == 0
                text = draw(_ODD_CELLS if odd else _number_texts)
                if draw(st.booleans()) and text[:1] not in ("-", "+"):
                    text = "+" + text
                cells.append(draw(padding) + text + draw(padding))
            lines.append(delimiter.join(cells) + (delimiter if kind == "trailing" else ""))
    ends = draw(
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines))
    )
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode(), delimiter


def _read_outcome(read, path, delimiter):
    try:
        header, columns = read(path, delimiter)
    except ValidationError as exc:
        return ("error", str(exc))
    return ("table", header, {name: column.tobytes() for name, column in columns.items()})


@settings(max_examples=400, deadline=None)
@given(_table_files())
def test_fast_parse_equals_the_row_loop(tmp_path_factory, case):
    content, delimiter = case
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _read_outcome(_read_table, path, delimiter)
    assert not caught
    assert outcome == _read_outcome(reference_read_table, path, delimiter)


def test_clean_files_are_parsed_without_the_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"\xef\xbb\xbfscore;label\r\n0.25;1\r\n\r\n 1e-3 ;+0\r.5;-0\n")

    def no_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr("utileval.dataio._read_rows", no_loop)
    data = read_scores(path, delimiter=";")
    assert data.scores.tolist() == [0.25, 0.001, 0.5]
    assert data.labels.tolist() == [1, 0, 0]
    # an underscore is for float() alone, so the row loop reads this file
    path.write_text("score,label\n0.5,1_0\n")
    with pytest.raises(AssertionError, match="the row loop ran"):
        read_scores(path)


def _evaluate_payload(rows: int) -> dict:
    """A payload shaped like ``evaluate``'s, with two curves of ``rows`` points."""
    rng = np.random.default_rng(2)
    rates = np.cumsum(rng.random((rows, 2)) < 0.5, axis=0) / rows
    roc = np.vstack([[0.0, 0.0], rates])
    utility = np.column_stack([np.sort(rng.random(rows + 1)), rng.random(rows + 1)])
    curves = {"roc": roc, "calibration": np.array([[0.05, 0.1], [0.95, 0.9]]), "utility": utility}
    report = {"metrics": {"auc": 0.75, "u_max": 0.5}, "curves": curves, "intervals": {}}
    return {"report": report, "checks": {}, "bootstrap": {}, "manifest": {"outputs": ["a"]}}


def _curve_tables(payload) -> dict:
    """The CSV tables ``evaluate`` writes beside a payload of
    :func:`_evaluate_payload`: its ROC and utility arrays, and calibration rows."""
    curves = payload["report"]["curves"]
    return {
        "roc.csv": (["fpr", "tpr"], curves["roc"]),
        "calibration.csv": (["mean_predicted", "observed_frequency"], [(0.05, 0.1), (0.95, 0.9)]),
        "utility.csv": (["threshold", "utility"], curves["utility"]),
    }


def _write_with_tables(directory, payload, tables) -> None:
    write_json(directory / "report.json", payload, {directory / n: t for n, t in tables.items()})


def _assert_written_as_before(directory, payload, tables) -> None:
    assert (directory / "report.json").read_text() == reference_json_text(payload)
    for name, (header, rows) in tables.items():
        assert (directory / name).read_text() == reference_csv_text(header, rows), name


def test_report_writing_holds_one_block_at_a_time(tmp_path):
    payload = _evaluate_payload(50_000)
    curve = payload["report"]["curves"]["utility"]
    for path, write in (
        (tmp_path / "report.json", lambda path: write_json(path, payload)),
        (tmp_path / "utility.csv", lambda path: write_csv(path, ["threshold", "utility"], curve)),
    ):
        _, peak = traced_peak(write, path)
        # the whole text would be at least the size of the file
        assert peak < path.stat().st_size / 4, (path.name, peak)


def test_a_report_and_its_tables_hold_less_than_a_table(tmp_path):
    # at the default block size, with the report's curves written to their
    # tables in the same pass: no curve's text is kept, so the peak is a
    # block's text and its JSON copies, under the smallest curve table
    payload = _evaluate_payload(15_000)
    tables = _curve_tables(payload)
    _, peak = traced_peak(_write_with_tables, tmp_path, payload, tables)
    assert peak < (tmp_path / "roc.csv").stat().st_size, peak
    _assert_written_as_before(tmp_path, payload, tables)


def test_each_curve_block_is_formatted_once_for_the_report_and_its_table(tmp_path, monkeypatch):
    monkeypatch.setattr("utileval.dataio._BLOCK", 1000)
    payload = _evaluate_payload(2500)
    tables = _curve_tables(payload)
    formatted = []
    original = dataio._float_lines

    def counting(block):
        formatted.append(len(block))
        return original(block)

    monkeypatch.setattr("utileval.dataio._float_lines", counting)
    _write_with_tables(tmp_path, payload, tables)
    # the report's calibration array, then each 2501-point curve once, in
    # three blocks; the calibration table is rows, not an array
    assert formatted == [2, 1000, 1000, 501, 1000, 1000, 501]
    _assert_written_as_before(tmp_path, payload, tables)


def test_a_table_whose_curve_is_not_finite_is_written_as_before(tmp_path, monkeypatch):
    # a report curve holding NaN or inf goes through the generic encoder, and
    # an array in no report is written as a table alone; both tables stay as
    # write_csv writes them
    monkeypatch.setattr("utileval.dataio._BLOCK", 3)
    payload = _evaluate_payload(7)
    curves = payload["report"]["curves"]
    curves["roc"][2, 0] = math.nan
    curves["utility"][5, 1] = -math.inf
    tables = _curve_tables(payload)
    tables["other.csv"] = (["a", "b"], np.array([[0.5, -0.0], [math.inf, 0.0]]))
    _write_with_tables(tmp_path, payload, tables)
    _assert_written_as_before(tmp_path, payload, tables)


def test_a_report_that_cannot_be_encoded_leaves_no_table(tmp_path):
    payload = _evaluate_payload(5)
    payload["checks"] = {"z": 1j}
    with pytest.raises(TypeError):
        _write_with_tables(tmp_path, payload, _curve_tables(payload))
    assert list(tmp_path.iterdir()) == []


def _float_tables(payload):
    """Every 2-D array in ``payload``."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, np.ndarray):
        return [payload] if payload.ndim == 2 else []
    if isinstance(payload, (list, tuple)):
        return [table for item in payload for table in _float_tables(item)]
    return []


@settings(max_examples=100, deadline=None)
@given(_payloads)
def test_a_report_with_every_array_as_a_table_is_written_as_before(tmp_path_factory, payload):
    directory = tmp_path_factory.mktemp("tables")
    tables = {
        f"t{i}.csv": (["x"] * rows.shape[1], rows) for i, rows in enumerate(_float_tables(payload))
    }
    _write_with_tables(directory, payload, tables)
    _assert_written_as_before(directory, payload, tables)


def test_read_scores_reads_a_pipe_once(tmp_path):
    # the fast path reads a file a second time, which a pipe cannot give
    fifo = tmp_path / "scores.pipe"
    os.mkfifo(fifo)
    text = "score,label\n" + "".join(f"{i / 4000!r},{i % 2}\n" for i in range(4000))
    read = {}
    threads = [
        threading.Thread(target=fifo.write_text, args=(text,), daemon=True),
        threading.Thread(target=lambda: read.update(data=read_scores(fifo)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert read["data"].scores.tolist() == [i / 4000 for i in range(4000)]
