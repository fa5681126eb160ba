import json

import numpy as np
import pytest

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
    write_scores,
)
from utileval.dataio import format_number


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


def test_read_scores_semicolon_delimiter(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("score;label\n0.5;1\n0.25;0\n")
    data = read_scores(path, delimiter=";")
    assert data.scores.tolist() == [0.5, 0.25]


def test_write_read_round_trip_is_exact(tmp_path, rng):
    n = 120
    data = LabeledScores(
        scores=rng.random(n),
        labels=rng.integers(0, 2, n),
        group=rng.integers(0, 2, n),
        reference_scores=rng.random(n),
        context={"age": np.round(rng.random(n) * 100, 6), "benefit": rng.random(n)},
        coefficients=CostCoefficients(1.0, rng.random(n) * 3, rng.random(n), 1.0),
    )
    path = tmp_path / "round.csv"
    write_scores(data, path)
    back = read_scores(path)
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
