import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import utileval

from utileval import (
    BootstrapConfig,
    CostCoefficients,
    paired_max_utility_test,
    read_features,
    read_scores,
    tune_and_compare,
)
from utileval import simstudy
from utileval.cli import _make_out_dir, build_parser, main
from utileval.dataio import file_digest, write_json

from conftest import traced_peak
from reference_writers import reference_csv_text, reference_json_text


def _write_scores(path, n=160, seed=5, with_extras=True, single_class=False):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), 3)
    labels = np.ones(n, dtype=int) if single_class else (rng.random(n) < scores).astype(int)
    lines = []
    if with_extras:
        header = "score,label,group,reference_score,age"
        group = rng.integers(0, 2, n)
        age = rng.integers(18, 95, n)
        for i in range(n):
            ref = float(np.clip(scores[i] * 0.8 + 0.1, 0, 1))
            lines.append(
                f"{scores[i]},{labels[i]},{group[i]},{ref!r},{age[i]}"
            )
    else:
        header = "score,label"
        for i in range(n):
            lines.append(f"{scores[i]},{labels[i]}")
    path.write_text(header + "\n" + "\n".join(lines) + "\n")
    return path


def _read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_evaluate_runs_and_is_reproducible(tmp_path):
    scores = _write_scores(tmp_path / "scores.csv")
    out = tmp_path / "out"
    argv = ["evaluate", str(scores), "--out-dir", str(out), "--utility", "c:1.5"]
    assert main(argv) == 0
    first = _read_all_bytes(out)
    assert set(first) == {
        "evaluate_report.json",
        "evaluate_roc.csv",
        "evaluate_calibration.csv",
        "evaluate_utility.csv",
    }
    report = json.loads(first["evaluate_report.json"])
    metrics = report["report"]["metrics"]
    for key in ("auc", "brier", "accuracy", "ece", "net_trust", "u_max"):
        assert isinstance(metrics[key], float)
    assert report["checks"]["preserves_reference_ranking"] is True
    assert report["manifest"]["command"] == "evaluate"
    assert list(report["manifest"]["inputs"].values())[0]
    # same invocation, same bytes
    assert main(argv) == 0
    assert _read_all_bytes(out) == first


def test_evaluate_interval_nesting(tmp_path):
    scores = _write_scores(tmp_path / "scores.csv", n=120)
    out = tmp_path / "out"
    assert (
        main(
            [
                "evaluate",
                str(scores),
                "--out-dir",
                str(out),
                "--replicates",
                "150",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    report = json.loads((out / "evaluate_report.json").read_text())
    intervals = report["report"]["intervals"]
    for metric in ("auc", "brier", "accuracy", "ece", "net_trust", "u_max"):
        narrow = intervals[f"{metric}@68"]
        wide = intervals[f"{metric}@95"]
        assert wide["low"] <= narrow["low"] <= narrow["high"] <= wide["high"]


def test_evaluate_huge_finite_per_row_coefficients(tmp_path, capsys):
    # two rewards of 1.5e308 sum past the largest float; their mean over three rows does not
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "score,label,a11,a01,a10,a00\n0.9,1,1.5e308,0,0,1\n0.8,1,1.5e308,0,0,1\n0.1,0,0,0,0,0\n"
    )
    out = tmp_path / "out"
    assert main(["evaluate", str(scores), "--out-dir", str(out), "--utility", "columns"]) == 0
    assert capsys.readouterr().err == ""
    metrics = json.loads((out / "evaluate_report.json").read_text())["report"]["metrics"]
    assert (metrics["u_max"], metrics["argmax_threshold"]) == (1e308, 0.1)


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("score\n0.5\n")
    assert main(["evaluate", str(bad), "--out-dir", str(tmp_path / "o1")]) == 2

    scores = _write_scores(tmp_path / "ok.csv", with_extras=False)
    assert (
        main(
            [
                "evaluate",
                str(scores),
                "--out-dir",
                str(tmp_path / "o2"),
                "--utility",
                "nonsense",
            ]
        )
        == 2
    )

    single = _write_scores(tmp_path / "single.csv", single_class=True, with_extras=False)
    assert main(["evaluate", str(single), "--out-dir", str(tmp_path / "o3")]) == 3

    sweep = ["sweep-c", str(scores), "--out-dir", str(tmp_path / "o4")]
    assert main(sweep + ["--replicates", "-1"]) == 2

    # size options above their documented limits are refused before anything
    # of that size is allocated
    too_many_bins = ["--bins", str(2**53 + 1)]
    assert main(["evaluate", str(scores), "--out-dir", str(tmp_path / "o8"), *too_many_bins]) == 2
    for options in (
        ["--samples", "10000001"],
        ["--realizations", "1000001"],
        ["--realizations", "400", "--grid", "10001"],
        ["--realizations", "400", "--bins", "2501"],
    ):
        assert main(["simulate", *options, "--out-dir", str(tmp_path / "o9")]) == 2

    # every bootstrap keeps its replicates, so their count has a documented
    # limit too, and sweep-c's replicates x cost grid table another
    too_many = "replicates must be >= 0 and <= 1000000"
    too_many_cells = "replicates x cost grid length must be <= 4000000"
    for argv, replicates, message in (
        (["evaluate", str(scores)], "1000000000000", too_many),
        (["compare", str(scores), str(scores)], "1000000000000", too_many),
        (["sweep-c", str(scores), "--grid", "1"], "1000001", too_many),
        (["sweep-c", str(scores)], "1000000000000", too_many_cells),
        (["sweep-c", str(scores)], "500001", too_many_cells),
    ):
        capsys.readouterr()
        out = ["--out-dir", str(tmp_path / "o13")]
        assert main([*argv, *out, "--replicates", replicates]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got ") and err.count("\n") == 1

    # an output directory that cannot be created is an input error
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["evaluate", str(scores), "--out-dir", str(blocker / "out")]) == 2
    assert main(["evaluate", str(scores), "--out-dir", str(blocker)]) == 2

    # so is a report path that cannot be written
    (tmp_path / "o5" / "evaluate_report.json").mkdir(parents=True)
    assert main(["evaluate", str(scores), "--out-dir", str(tmp_path / "o5")]) == 2

    # and a delimiter that is not one character
    wide = ["evaluate", str(scores), "--out-dir", str(tmp_path / "o6"), "--delimiter", ";;"]
    assert main(wide) == 2

    # NumPy seeds only from non-negative integers, so --seed rejects the rest
    features = tmp_path / "features.csv"
    features.write_text("label,x\n" + "".join(f"{i % 2},{i % 7}\n" for i in range(60)))
    for argv in (
        ["evaluate", str(scores), "--replicates", "100"],
        ["simulate", "--samples", "50", "--realizations", "1"],
        ["tune", str(features), "--k-grid", "3,5", "--folds", "3", "--repeats", "2"],
    ):
        assert main(argv + ["--out-dir", str(tmp_path / "o7"), "--seed", "-1"]) == 2

    # tune's k grid holds integers, and its tables have documented limits,
    # checked before they are allocated
    tune = ["tune", str(features), "--k-grid", "3,5", "--folds", "3", "--repeats", "2"]
    tune += ["--out-dir", str(tmp_path / "o10")]
    assert main(tune) == 0
    for options, message in (
        (["--grid", "-1"], "grid_size must be >= 1"),
        (["--grid", "0"], "grid_size must be >= 1"),
        (["--k-grid", "inf"], "k must be an integer"),
        (["--k-grid", "nan"], "k must be an integer"),
        (["--k-grid", "5.5,15"], "k must be an integer"),
        (["--repeats", "1000001"], "repeats must be in [1, 1000000]"),
        (["--repeats", "20000", "--grid", "201"], "repeats x grid_size"),
    ):
        capsys.readouterr()
        assert main(tune + options) == 2
        assert message in capsys.readouterr().err

    # a file that is not UTF-8, or has a field over the csv module's limit,
    # is an input error naming the file and line
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"score,label,caf\xe9\n0.2,0,1\n0.8,1,2\n")
    long_field = tmp_path / "long.csv"
    long_field.write_text("label,x\n0,1\n1," + "7" * 131073 + "\n")
    bonus = tmp_path / "bonus.txt"
    bonus.write_bytes(b"0 1 \xff\n")
    equity_scores = _write_scores(tmp_path / "equity.csv")
    for argv, message in (
        (["evaluate", str(latin1)], "latin1.csv, line 1: not UTF-8 text"),
        (["tune", str(latin1)], "latin1.csv, line 1: not UTF-8 text"),
        (["evaluate", str(long_field)], "long.csv, line 3: field larger than field limit"),
        (["tune", str(long_field)], "long.csv, line 3: field larger than field limit"),
        (["equity", str(equity_scores), "--bonus", str(bonus)], "bonus.txt, line 1: not UTF-8"),
    ):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / "o11")]) == 2
        assert message in capsys.readouterr().err

    # a label or group that no integer equals is refused before any cast, so
    # the one error line is all the user sees
    huge_label = tmp_path / "huge_label.csv"
    huge_label.write_text("score,label\n0.5,1e300\n0.2,0\n")
    huge_group = tmp_path / "huge_group.csv"
    huge_group.write_text("score,label,group\n0.5,1,1e300\n0.2,0,0\n")
    for path, message in (
        (huge_label, "label values must be 0 or 1, got 1e+300 at row 0"),
        (huge_group, "group values must be 0 or 1, got 1e+300 at row 0"),
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", str(path), "--out-dir", str(tmp_path / "o12")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    # a constant cost above 2**960 could overflow a float in the products
    # with the outcome counts, so it is refused before any of them is made
    small_tune = ["tune", str(features), "--k-grid", "3,5", "--folds", "3", "--repeats", "1"]
    for argv in (
        ["sweep-c", str(scores), "--grid", "0,1e308", "--replicates", "0"],
        ["evaluate", str(scores), "--utility", "c:1e308"],
        [*small_tune, "--utility", "c:1e308"],
        ["simulate", "--cost", "1e308", "--samples", "50", "--realizations", "1"],
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out-dir", str(tmp_path / "o14")]) == 2
        assert capsys.readouterr().err == "error: coefficient a01 must be <= 2**960, got 1e+308\n"
    costly = ["evaluate", str(scores), "--utility", "c:1e288", "--out-dir", str(tmp_path / "o15")]
    assert main(costly) == 0

    # costs within that bound give utilities whose squares overflow, yet the
    # SEMs over tune's repeats and sweep-c's replicates are finite
    huge_tune = ["tune", str(features), "--k-grid", "3,5", "--folds", "3", "--repeats", "2"]
    assert main([*huge_tune, "--utility", "c:1e288", "--out-dir", str(tmp_path / "o16")]) == 0
    huge_sweep = ["sweep-c", str(scores), "--grid", "0,1e200", "--replicates", "20"]
    assert main([*huge_sweep, "--out-dir", str(tmp_path / "o17")]) == 0

    # argparse's own exit path is surfaced unchanged
    assert main(["no-such-command"]) == 2
    assert main(["--version"]) == 0


@pytest.mark.parametrize(
    "options, message",
    [
        ("evaluate --replicates 3", "interval estimation requires >= 100 replicates, got 3"),
        ("evaluate --bins 1", "bins must be >= 2, got 1"),
        ("compare --replicates 3", "interval estimation requires >= 100 replicates, got 3"),
        ("compare --bins 1 --replicates 0", "bins must be >= 2, got 1"),
        ("sweep-c --grid x", "invalid cost grid 'x'"),
        ("sweep-c --grid -1", "cost parameters must be >= 0, got -1.0"),
        (
            "sweep-c --replicates 1000000",
            "replicates x cost grid length must be <= 4000000, got 1000000 x 8",
        ),
        (
            "evaluate --utility bogus",
            "unknown --utility 'bogus'; expected zero-one, c:<value>, age-contextual or columns",
        ),
        ("evaluate --utility c:x", "invalid cost parameter in --utility 'c:x'"),
        ("compare --utility c:-1", "cost parameter must be a finite value >= 0, got -1.0"),
        ("evaluate --replicates 2000000", "replicates must be >= 0 and <= 1000000, got 2000000"),
        (
            "sweep-c --grid 1 --replicates 2000000",
            "replicates must be >= 0 and <= 1000000, got 2000000",
        ),
        ("tune --utility columns", "--utility columns is not available for feature files"),
        ("tune --k-grid x", "invalid k grid 'x'"),
        ("tune --repeats 0", "repeats must be in [1, 1000000], got 0"),
        ("tune --folds 1", "n_folds must be >= 2, got 1"),
        ("tune --test-fraction 2", "test_fraction must be in (0, 1), got 2.0"),
        ("tune --grid 0", "grid_size must be >= 1, got 0"),
        ("tune --k-grid 5.5", "k must be an integer, got 5.5"),
    ],
)
def test_options_are_checked_before_any_input_is_read(tmp_path, capsys, options, message):
    command, *options = options.split()
    inputs = ["nope.csv"] * (2 if command == "compare" else 1)
    assert main([command, *inputs, *options, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_checks_bins_before_any_draw(tmp_path, capsys, monkeypatch):
    draws = []
    generate = simstudy.generate_realization
    monkeypatch.setattr(
        simstudy, "generate_realization", lambda *args: draws.append(args) or generate(*args)
    )
    argv = ["simulate", "--bins", "1", "--samples", "300", "--realizations", "3"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: bins must be >= 2, got 1\n"
    assert draws == []


def test_compare_checks_bins_without_replicates(tmp_path, capsys):
    scores = str(_write_scores(tmp_path / "ok.csv", with_extras=False))
    argv = ["compare", scores, scores, "--bins", "1", "--replicates", "0"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: bins must be >= 2, got 1\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("bins", [10**12, 2**53])
def test_evaluate_with_far_more_bins_than_rows(tmp_path, bins):
    scores = _write_scores(tmp_path / "scores.csv", with_extras=False)
    out = tmp_path / "out"
    assert main(["evaluate", str(scores), "--bins", str(bins), "--out-dir", str(out)]) == 0
    data = read_scores(scores)
    index = np.minimum(np.floor(data.scores * bins).astype(np.int64), bins - 1)
    expected = []
    for b in np.unique(index):
        mask = index == b
        count = int(mask.sum())
        predicted = float(np.sort(data.scores[mask]).sum() / count)
        expected.append((int(b), predicted, float(data.labels[mask].sum() / count), count))
    lines = (out / "evaluate_calibration.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert [(int(b), float(p), float(o), int(c)) for b, p, o, c in rows] == expected


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # the package needs NumPy alone: not the import, nor the synthetic study,
    # the kNN tuning, the logistic fit or the logit-shift transform
    features = tmp_path / "features.csv"
    features.write_text("label,x\n" + "".join(f"{i % 2},{i % 7}\n" for i in range(60)))
    simulate = ["simulate", "--samples", "200", "--realizations", "2", "--grid", "11"]
    tune = ["tune", str(features), "--k-grid", "3,5", "--folds", "3", "--repeats", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(utileval.__file__).parents[1])}
    code = f"""
import sys, utileval, utileval.cli
for argv, out in (({simulate!r}, "simulate"), ({tune!r}, "tune")):
    assert utileval.cli.main(argv + ["--out-dir", {str(tmp_path)!r} + "/" + out]) == 0
utileval.fit_logistic([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
utileval.monotone_transform([0.0, 0.5, 1.0], "logit-shift", 1.0)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_compare_and_simulate_load_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on first use, which costs a fresh
    # process about 10 ms; the bootstrap intervals and the study's bands use
    # stats.percentiles instead
    a = _write_scores(tmp_path / "model_a.csv", seed=5, with_extras=False)
    compare = ["compare", str(a), str(a), "--utility", "c:2", "--replicates", "100"]
    simulate = ["simulate", "--samples", "200", "--realizations", "3", "--grid", "11"]
    env = {**os.environ, "PYTHONPATH": str(Path(utileval.__file__).parents[1])}
    code = f"""
import sys, utileval.cli
for argv, out in (({compare!r}, "compare"), ({simulate!r}, "simulate")):
    assert utileval.cli.main(argv + ["--out-dir", {str(tmp_path)!r} + "/" + out]) == 0
    print(out, "numpy.ma" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["compare", "False", "simulate", "False"]


def test_compare(tmp_path):
    a = _write_scores(tmp_path / "model_a.csv", seed=5, with_extras=False)
    b = _write_scores(tmp_path / "model_b.csv", seed=5, with_extras=False)
    # same labels (same seed) but different scores
    text = b.read_text().splitlines()
    rows = [line.split(",") for line in text[1:]]
    rng = np.random.default_rng(77)
    for row in rows:
        row[0] = repr(float(np.clip(float(row[0]) + rng.normal(0, 0.25), 0, 1)))
    b.write_text(text[0] + "\n" + "\n".join(",".join(row) for row in rows) + "\n")

    out = tmp_path / "out"
    assert (
        main(
            [
                "compare",
                str(a),
                str(b),
                "--out-dir",
                str(out),
                "--replicates",
                "120",
                "--seed",
                "9",
            ]
        )
        == 0
    )
    report = json.loads((out / "compare_report.json").read_text())
    assert set(report["models"]) == {"model_a", "model_b"}
    assert report["winners"]["auc"] in {"model_a", "model_b"}
    assert len(report["paired_u_max_tests"]) == 1
    pair = report["paired_u_max_tests"][0]
    assert 0.0 < pair["p_value"] <= 1.0
    lines = (out / "compare_metrics.csv").read_text().splitlines()
    assert lines[0] == "model,metric,value,low95,high95"
    assert len(lines) == 1 + 2 * 5

    assert main(["compare", str(a), "--out-dir", str(out)]) == 2
    mismatched = _write_scores(tmp_path / "other.csv", seed=6, with_extras=False)
    assert main(["compare", str(a), str(mismatched), "--out-dir", str(out)]) == 2


@pytest.mark.parametrize("replicates", [0, 120])
def test_compare_paired_entry_matches_paired_test(tmp_path, replicates):
    a = _write_scores(tmp_path / "a.csv", seed=5, with_extras=False)
    # same rows, reversed ranking
    header, *rows = a.read_text().splitlines()
    flipped = [f"{1.0 - float(score)!r},{label}" for score, label in (r.split(",") for r in rows)]
    b = tmp_path / "b.csv"
    b.write_text("\n".join([header, *flipped]) + "\n")
    out = tmp_path / "out"
    argv = ["compare", str(a), str(b), "--out-dir", str(out), "--seed", "9"]
    assert main(argv + ["--replicates", str(replicates)]) == 0
    entry = json.loads((out / "compare_report.json").read_text())["paired_u_max_tests"][0]
    config = BootstrapConfig(replicates=max(replicates, 100), level=0.95, seed=9)
    expected = paired_max_utility_test(
        read_scores(a), read_scores(b), CostCoefficients.zero_one(), config
    )
    assert (entry["a"], entry["b"]) == ("a", "b")
    assert entry["diff_u_max"] == expected.diff
    assert (entry["low"], entry["high"], entry["level"]) == (expected.low, expected.high, 0.95)
    assert entry["p_value"] == expected.p_value


@pytest.mark.parametrize("utility", ["age-contextual", "columns"])
def test_compare_refuses_other_per_row_coefficients(tmp_path, capsys, utility):
    # every file is scored with the first file's per-row coefficients, so a
    # later file may carry their columns only with the same values
    rows = [(i / 40, i % 2, 20 + i, 1.0, i % 3, 0.5, 1.0) for i in range(40)]
    other = [*rows]
    other[3] = (*rows[3][:2], 70, 1.0, 2.5, 0.5, 1.0)
    tables = {
        "a": ("score,label,age,a11,a01,a10,a00", rows),
        "same": ("score,label,age,a11,a01,a10,a00", rows),
        "plain": ("score,label", [row[:2] for row in rows]),
        "other": ("score,label,age,a11,a01,a10,a00", other),
    }
    for name, (header, table) in tables.items():
        lines = [",".join(map(str, row)) for row in table]
        (tmp_path / f"{name}.csv").write_text("\n".join([header, *lines]) + "\n")
    for name, code in (("same", 0), ("plain", 0), ("other", 2)):
        files = [str(tmp_path / "a.csv"), str(tmp_path / f"{name}.csv")]
        argv = ["compare", *files, "--utility", utility, "--replicates", "0"]
        assert main([*argv, "--out-dir", str(tmp_path / name)]) == code
    assert capsys.readouterr().err == (
        f"error: score files must share per-row coefficients: the --utility {utility} "
        "values of 'other' differ from the first file\n"
    )


def test_evaluate_keeps_calibration_bins_whose_means_are_out_of_order(tmp_path):
    # bin 1's mean_predicted, the rounded mean of 42 scores of 0.1, lies below
    # bin 0's lone score, the double just under 0.1
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "score,label\n0.09999999999999999,0\n" + "".join(f"0.1,{i % 2}\n" for i in range(42))
    )
    out = tmp_path / "out"
    assert main(["evaluate", str(scores), "--out-dir", str(out)]) == 0
    lines = (out / "evaluate_calibration.csv").read_text().splitlines()
    assert lines[1:] == ["0,0.09999999999999999,0.0,1", "1,0.09999999999999998,0.5,42"]
    report = json.loads((out / "evaluate_report.json").read_text())
    curve = report["report"]["curves"]["calibration"]
    assert curve == [[0.09999999999999999, 0.0], [0.09999999999999998, 0.5]]


def test_evaluate_memory_stays_bounded_at_100k_rows(tmp_path):
    # the whole command, from reading the scores to writing the report and
    # its tables, keeps no curve's text; a gate whose bound is never raised
    rng = np.random.default_rng(11)
    scores = rng.random(100_000)
    labels = (rng.random(scores.size) < scores).astype(int)
    path = tmp_path / "scores.csv"
    path.write_text(
        "score,label\n" + "".join(map("%r,%d\n".__mod__, zip(scores.tolist(), labels.tolist())))
    )
    argv = ["evaluate", str(path), "--utility", "c:2", "--out-dir", str(tmp_path / "out")]
    code, peak = traced_peak(main, argv)
    assert code == 0
    assert peak < 14e6, peak


def test_simulate_small(tmp_path):
    out = tmp_path / "sim"
    argv = [
        "simulate",
        "--samples",
        "300",
        "--realizations",
        "4",
        "--seed",
        "19",
        "--out-dir",
        str(out),
        "--grid",
        "21",
    ]
    assert main(argv) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["config"]["normal_method"] == "inverse-cdf"
    assert set(summary["bands"]) == {"bayes", "shifted", "coarse"}
    assert 0.3 < summary["positive_rate"]["mean"] < 0.7
    distributions = (out / "simulate_distributions.csv").read_text().splitlines()
    assert len(distributions) == 1 + 3 * 4  # header + classifiers x realizations
    zero_one = (out / "simulate_utility_zero_one.csv").read_text().splitlines()
    assert len(zero_one) == 1 + 3 * 21
    first = _read_all_bytes(out)
    assert main(argv) == 0
    assert _read_all_bytes(out) == first


def test_sweep_c_zero_matches_zero_one_evaluate(tmp_path):
    scores = _write_scores(tmp_path / "scores.csv", with_extras=False)
    eval_out = tmp_path / "eval"
    sweep_out = tmp_path / "sweep"
    assert main(["evaluate", str(scores), "--out-dir", str(eval_out)]) == 0
    assert (
        main(
            [
                "sweep-c",
                str(scores),
                "--out-dir",
                str(sweep_out),
                "--grid",
                "0,1,2",
                "--replicates",
                "0",
            ]
        )
        == 0
    )
    evaluate_report = json.loads((eval_out / "evaluate_report.json").read_text())
    sweep_report = json.loads((sweep_out / "sweep_c_report.json").read_text())
    points = {entry["c"]: entry["u_max"] for entry in sweep_report["models"]["scores"]}
    # c=0 is plain accuracy, identical to the zero-one sweep in evaluate
    assert points[0.0] == evaluate_report["report"]["metrics"]["u_max"]
    assert points[2.0] <= points[0.0]
    with_sem = tmp_path / "sweep2"
    assert (
        main(
            [
                "sweep-c",
                str(scores),
                "--out-dir",
                str(with_sem),
                "--grid",
                "0,1",
                "--replicates",
                "60",
            ]
        )
        == 0
    )
    lines = (with_sem / "sweep_c.csv").read_text().splitlines()
    assert lines[0] == "model,c,u_max,u_max_mean,u_max_sem"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def _write_features(path, n=240, seed=100):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = ((X[:, 0] + X[:, 1] + rng.normal(0, 1.2, n)) > 0).astype(int)
    lines = ["label,x1,x2"] + [
        f"{y[i]},{float(X[i, 0])!r},{float(X[i, 1])!r}" for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tune_command(tmp_path):
    features = _write_features(tmp_path / "features.csv")
    out = tmp_path / "tune"
    argv = [
        "tune",
        str(features),
        "--k-grid",
        "3,9,27",
        "--folds",
        "4",
        "--repeats",
        "2",
        "--seed",
        "12",
        "--out-dir",
        str(out),
    ]
    assert main(argv) == 0
    report = json.loads((out / "tune_report.json").read_text())
    assert report["k_grid"] == [3, 9, 27]
    assert report["chosen_k"]["auc"] and report["chosen_k"]["accuracy"]
    assert len(report["max_utility"]["auc"]["per_repeat"]) == 2
    cv_lines = (out / "tune_cv.csv").read_text().splitlines()
    assert len(cv_lines) == 4
    utility_lines = (out / "tune_utility.csv").read_text().splitlines()
    assert len(utility_lines) == 1 + 2 * 201
    first = _read_all_bytes(out)
    assert main(argv) == 0
    assert _read_all_bytes(out) == first
    # utility families that need missing columns fail cleanly
    assert main(argv[:-1] + [str(tmp_path / "t2"), "--utility", "age-contextual"]) == 2
    assert main(argv[:-1] + [str(tmp_path / "t3"), "--utility", "columns"]) == 2


def _run_tune(tmp_path, repeats):
    features = _write_features(tmp_path / "features.csv", n=90)
    out = tmp_path / f"tune{repeats}"
    options = ["--k-grid", "1,5,15", "--folds", "4", "--grid", "11", "--seed", "21"]
    options += ["--repeats", str(repeats), "--out-dir", str(out)]
    assert main(["tune", str(features), *options]) == 0
    table = read_features(features)
    result = tune_and_compare(
        table.features,
        table.labels,
        [1, 5, 15],
        CostCoefficients.zero_one(),
        repeats=repeats,
        seed=21,
        n_folds=4,
        grid_size=11,
    )
    report = json.loads((out / "tune_report.json").read_text())
    cv = [line.split(",") for line in (out / "tune_cv.csv").read_text().splitlines()]
    utility = [line.split(",") for line in (out / "tune_utility.csv").read_text().splitlines()]
    return result, report, cv, utility


def test_tune_sem_columns_follow_the_axis0_formula(tmp_path):
    result, report, cv, utility = _run_tune(tmp_path, repeats=3)

    def sem(values):
        return np.std(values, axis=0, ddof=1) / math.sqrt(3)

    assert cv[0] == ["k", "mean_cv_auc", "sem_cv_auc", "mean_cv_accuracy", "sem_cv_accuracy"]
    assert [row[0] for row in utility[1:]] == ["auc"] * 11 + ["accuracy"] * 11
    for criterion, cv_column, rows in (
        ("auc", 2, utility[1:12]),
        ("accuracy", 4, utility[12:]),
    ):
        per_repeat = result.max_utility[criterion]
        assert report["max_utility"][criterion]["per_repeat"] == per_repeat.tolist()
        assert report["max_utility"][criterion]["sem"] == float(sem(per_repeat))
        assert report["max_utility"][criterion]["sem"] > 0.0
        assert [float(row[cv_column]) for row in cv[1:]] == sem(result.cv[criterion]).tolist()
        assert [float(row[3]) for row in rows] == sem(result.utility_grid[criterion]).tolist()


def test_tune_single_repeat_has_no_sem(tmp_path):
    _, report, cv, utility = _run_tune(tmp_path, repeats=1)
    assert report["max_utility"]["auc"]["sem"] is None
    assert report["max_utility"]["accuracy"]["sem"] is None
    assert all(row[2] == "" and row[4] == "" for row in cv[1:])
    assert all(row[3] == "" for row in utility[1:])


def test_equity_command(tmp_path):
    rows = [
        "score,label,group,reference_score",
        "0.9,1,0,0.9",
        "0.8,1,0,0.8",
        "0.7,0,1,0.7",
        "0.6,1,1,0.6",
        "0.5,0,0,0.5",
        "0.4,0,1,0.4",
    ]
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(rows) + "\n")
    bonus = tmp_path / "bonus.txt"
    bonus.write_text("0 0.05 0.2\n")
    out = tmp_path / "eq"
    assert (
        main(
            [
                "equity",
                str(scores),
                "--bonus",
                str(bonus),
                "--check-oracle",
                "--out-dir",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "equity_report.json").read_text())
    assert report["capacity"] == 2
    assert report["benefit_source"] == "reference_score"
    assert report["oracle"]["agrees"] is True
    assert len(report["chosen"]) == 2
    profile = (out / "equity_profile.csv").read_text().splitlines()
    assert len(profile) == 4
    # a score file without the required columns is a validation failure
    plain = _write_scores(tmp_path / "plain.csv", with_extras=False)
    assert main(["equity", str(plain), "--bonus", str(bonus), "--out-dir", str(out)]) == 2


def test_equity_benefit_column_is_used(tmp_path):
    rows = [
        "score,label,group,reference_score,benefit",
        "0.9,1,0,0.9,5",
        "0.8,1,1,0.8,4",
        "0.7,0,0,0.7,3",
    ]
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(rows) + "\n")
    bonus = tmp_path / "bonus.txt"
    bonus.write_text("0 0\n")
    out = tmp_path / "eq"
    assert main(["equity", str(scores), "--bonus", str(bonus), "--out-dir", str(out)]) == 0
    report = json.loads((out / "equity_report.json").read_text())
    assert report["benefit_source"] == "benefit"
    assert report["total_utility"] == 5.0


def _write_golden_inputs():
    """Small seeded inputs, written to the working directory under relative names."""
    scores = _write_scores(Path("scores.csv"), n=160, seed=5)
    header, *rows = scores.read_text().splitlines()
    other = [f"{abs(float(row.split(',')[0]) - 0.3)!r},{row.split(',')[1]}" for row in rows]
    Path("scores_b.csv").write_text("\n".join(["score,label", *other]) + "\n")
    rng = np.random.default_rng(100)
    X = rng.normal(size=(120, 2))
    y = ((X[:, 0] + X[:, 1] + rng.normal(0, 1.2, 120)) > 0).astype(int)
    Path("features.csv").write_text(
        "label,x1,x2\n"
        + "".join(f"{y[i]},{float(X[i, 0])!r},{float(X[i, 1])!r}\n" for i in range(120))
    )
    Path("bonus.txt").write_text("0 0.05 0.2\n")


_GOLDEN_COMMANDS = {
    "contextual": ["evaluate", "scores.csv", "--utility", "age-contextual"],
    "contextual_replicates": [
        "evaluate", "scores.csv", "--utility", "age-contextual", "--replicates", "100", "--seed", "4"
    ],
    "zero_one": ["evaluate", "scores.csv", "--replicates", "100", "--seed", "3"],
    "compare": ["compare", "scores.csv", "scores_b.csv", "--replicates", "100", "--seed", "9"],
    "sweep_c": ["sweep-c", "scores.csv", "scores_b.csv", "--replicates", "20"],
    "simulate": ["simulate", "--samples", "200", "--realizations", "3", "--grid", "21"],
    "tune": ["tune", "features.csv", "--k-grid", "3,9", "--folds", "3", "--repeats", "2"],
    "equity": ["equity", "scores.csv", "--bonus", "bonus.txt"],
}

# SHA-256 of every report whose values follow neither NumPy's exp and log nor the
# BLAS build (not simulate's or tune's), recorded with the per-value JSON and
# CSV writers that the one-pass encoder replaced; a writer change that moves any
# byte fails
_GOLDEN_DIGESTS = {
    "compare/compare_metrics.csv": (
        "41deb654e2d6785fa32a0775563f9fb43bc3ebcd107aee951434b1afade36a3e"
    ),
    "compare/compare_report.json": (
        "96743d6de491b32669e56ce5cacea97b8db6c01e62915c50240f97fdff78ad2c"
    ),
    "contextual/evaluate_calibration.csv": (
        "aa4cd488128c41a914c9ab0b6b89c09918a3f62f5cc8b47f8448034bd2133165"
    ),
    "contextual/evaluate_report.json": (
        "fdc1bff391bf1c695b6a4d98d9fb32834bd9d3d1846243a8ebeb5cad99236681"
    ),
    "contextual/evaluate_roc.csv": (
        "1613f296d7757032160c43a3da65cd097c4e9b47655f28485d5f76b09f3526bc"
    ),
    "contextual/evaluate_utility.csv": (
        "2653b9dece525568e58f2c52ade462cdd91e9b8cb52c6468737423211f406559"
    ),
    "contextual_replicates/evaluate_calibration.csv": (
        "aa4cd488128c41a914c9ab0b6b89c09918a3f62f5cc8b47f8448034bd2133165"
    ),
    "contextual_replicates/evaluate_report.json": (
        "7d23be4ed33fb23f310906020eba320865e247e10161e03540f078c8e5780fc4"
    ),
    "contextual_replicates/evaluate_roc.csv": (
        "1613f296d7757032160c43a3da65cd097c4e9b47655f28485d5f76b09f3526bc"
    ),
    "contextual_replicates/evaluate_utility.csv": (
        "2653b9dece525568e58f2c52ade462cdd91e9b8cb52c6468737423211f406559"
    ),
    "equity/equity_profile.csv": (
        "5287d716e34453c61efbe6dd215e1cccffd39a7dc8bdbf4823d684a215259961"
    ),
    "equity/equity_report.json": (
        "7a5d5ff3bfe9f4bc13383900b06e6d93d9ab343c7c2b566bd95889cc69204979"
    ),
    "sweep_c/sweep_c.csv": (
        "8556696fefe08d7ae7321176eea6751cc2e981df91aaa34d7f7d9f9f025071ba"
    ),
    "sweep_c/sweep_c_report.json": (
        "0890e2a6c7a6d3886a5349548e315fb52940c622bceaa0d3d91cb7e122eeaedd"
    ),
    "zero_one/evaluate_calibration.csv": (
        "aa4cd488128c41a914c9ab0b6b89c09918a3f62f5cc8b47f8448034bd2133165"
    ),
    "zero_one/evaluate_report.json": (
        "b1e18a323bee557d944e0c9081ba790595cc0195a28def1f03f1389eec21895d"
    ),
    "zero_one/evaluate_roc.csv": (
        "1613f296d7757032160c43a3da65cd097c4e9b47655f28485d5f76b09f3526bc"
    ),
    "zero_one/evaluate_utility.csv": (
        "4825ae3d4691a77d3471cf17137647406bdbd741077e8e6c8fb2ac127238a8d2"
    ),
}


def _run_golden_commands(monkeypatch) -> dict[str, bytes]:
    """Run every golden command in the working directory; return the bytes the
    per-value reference writers give for each report's payload."""
    _write_golden_inputs()
    expected = {}

    def writer(path, payload, tables):
        expected[Path(path).as_posix()] = reference_json_text(payload).encode()
        tables = {
            table: (header, rows if isinstance(rows, np.ndarray) else list(rows))
            for table, (header, rows) in tables.items()
        }
        for table, (header, rows) in tables.items():
            expected[Path(table).as_posix()] = reference_csv_text(header, rows).encode()
        write_json(path, payload, tables)

    # every report and table goes through the one report writer
    monkeypatch.setattr("utileval.cli.write_json", writer)
    for name, argv in _GOLDEN_COMMANDS.items():
        assert main([*argv, "--out-dir", f"out/{name}"]) == 0, name
    return expected


def test_report_bytes_match_reference_writers_and_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = _run_golden_commands(monkeypatch)
    reports = sorted(path for path in Path("out").rglob("*") if path.is_file())
    assert {path.as_posix(): path.read_bytes() for path in reports} == expected
    digests = {path.relative_to("out").as_posix(): file_digest(path) for path in reports}
    assert {k: v for k, v in digests.items() if k in _GOLDEN_DIGESTS} == _GOLDEN_DIGESTS


def test_every_option_a_command_defines_is_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_golden_inputs()
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    unread = {}
    for name, argv in _GOLDEN_COMMANDS.items():
        args = build_parser().parse_args([*argv, "--out-dir", "out"], RecordingNamespace())
        reads.clear()
        _make_out_dir(args)
        assert args.func(args) == 0
        # the manifest copies every option from vars(args), which reads none
        unread[name] = sorted(set(vars(args)) - reads - {"func", "command"})
    assert not any(unread.values()), unread


_FUZZ_CELLS = {
    "score": st.floats(0, 1).map(repr),
    "reference_score": st.floats(0, 1).map(repr),
    "label": st.sampled_from(["0", "1"]),
    "group": st.sampled_from(["0", "1"]),
    "age": st.integers(18, 95).map(str),
    "a11": st.just("1"),
    "a01": st.floats(0, 3).map(repr),
    "a10": st.floats(0, 3).map(repr),
    "a00": st.just("1"),
}
_FUZZ_ODD_CELLS = [
    "", " ", "nan", "inf", "-inf", "-0.5", "1.5", "2", "1e300", "1e400", "abc", "0x1", "café"
]
_FUZZ_DEFECTS = [
    "odd cell",
    "ragged row",
    "not UTF-8",
    "missing column",
    "duplicate column",
    "one class",
    "no rows",
]


@st.composite
def _fuzz_file(draw, defect: str, columns=()) -> bytes:
    """A small delimited file with one defect of the given kind, or none.

    ``columns`` are optional columns the file always has (before a defect).
    """
    header = ["score", "label"]
    extras = draw(st.sets(st.sampled_from(["age", "group", "reference_score", "x1", "a"])))
    for extra in extras | set(columns):
        header += ["a11", "a01", "a10", "a00"] if extra == "a" else [extra]
    if defect == "missing column":
        del header[draw(st.integers(0, len(header) - 1))]
    if defect == "duplicate column":
        header.append(draw(st.sampled_from(header)))
    n_rows = 0 if defect == "no rows" else draw(st.integers(1, 24))
    rows = [
        [
            "1" if defect == "one class" and name == "label" else draw(
                _FUZZ_CELLS.get(name, st.floats(-2, 2).map(repr))
            )
            for name in header
        ]
        for _ in range(n_rows)
    ]
    if defect == "odd cell":
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, len(header) - 1))] = draw(
            st.sampled_from(_FUZZ_ODD_CELLS)
        )
    if defect == "ragged row":
        row = rows[draw(st.integers(0, n_rows - 1))]
        row[:] = row[: draw(st.integers(0, len(row) - 1))] or ["0", "0", "0", *row]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join(",".join(row) for row in [header, *rows]).encode()
    if draw(st.booleans()):
        data += newline.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if defect == "not UTF-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


_FUZZ_COMMANDS = [
    ["evaluate", "--utility", "zero-one"],
    ["evaluate", "--utility", "age-contextual"],
    ["evaluate", "--utility", "columns"],
    ["evaluate", "--replicates", "100", "--bins", "3"],
    ["tune", "--k-grid", "1,3", "--folds", "2", "--repeats", "2", "--grid", "5"],
    ["tune", "--k-grid", "2", "--folds", "3", "--repeats", "1", "--utility", "age-contextual"],
    ["equity"],
    ["equity", "--check-oracle"],
    ["compare", "--replicates", "100", "--utility", "c:1"],
    ["compare", "--replicates", "0", "--utility", "age-contextual"],
    ["sweep-c", "--replicates", "3", "--grid", "0,1,2"],
]
# these commands compare score files on shared rows; they read the file twice
_FUZZ_TWO_FILES = {"compare", "sweep-c"}


# 12 examples for each of 8 kinds keeps the whole test near 100 examples
@pytest.mark.parametrize("defect", ["none", *_FUZZ_DEFECTS])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_inputs_keep_the_exit_code_contract(defect, data):
    argv = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    # equity reads both columns; without them it stops before its own checks
    columns = ("group", "reference_score") if argv[0] == "equity" else ()
    content = data.draw(_fuzz_file(defect, columns))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.csv"
        path.write_bytes(content)
        paths = [str(path)] * (2 if argv[0] in _FUZZ_TWO_FILES else 1)
        command = [argv[0], *paths, *argv[1:], "--out-dir", str(Path(directory) / "out")]
        if argv[0] == "equity":
            bonus = Path(directory) / "bonus.txt"
            bonus.write_text("0 0.5 1\n")
            command += ["--bonus", str(bonus)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            # a warning would reach the user's terminal beside the error line
            warnings.simplefilter("error")
            code = main(command)
        # an exception escaping main fails the test; a refusal is one error line
        assert code in (0, 2, 3)
        assert stderr.getvalue().startswith("error: ") == (code != 0)
        assert stderr.getvalue().count("\n") == (code != 0)
        if code == 0:
            first = _read_all_bytes(Path(directory) / "out")
            assert main(command) == 0
            assert _read_all_bytes(Path(directory) / "out") == first


# option values that allocate nothing: each is refused, or cheap on tiny inputs
_FUZZ_VALUES = [
    "0", "1", "2", "-1", "0.5", "1e308", "1e-320", "99999999999999999999999",
    "nan", "inf", "-inf", "", "abc",
]
# per command, each fuzzed option and the cheap value it has otherwise
_FUZZ_OPTIONS = {
    "evaluate": {"--utility": "zero-one", "--bins": "10", "--replicates": "0", "--seed": "0"},
    "compare": {"--utility": "c:1", "--bins": "10", "--replicates": "0", "--seed": "0"},
    "simulate": {
        "--samples": "20",
        "--realizations": "2",
        "--cost": "1",
        "--bins": "5",
        "--grid": "5",
        "--seed": "0",
    },
    "sweep-c": {"--grid": "0,1", "--replicates": "2", "--seed": "0"},
    "tune": {
        "--k-grid": "1,3",
        "--folds": "2",
        "--repeats": "1",
        "--test-fraction": "0.3",
        "--grid": "5",
        "--utility": "zero-one",
        "--seed": "0",
    },
    "equity": {},
}
_FUZZ_LISTS = {("sweep-c", "--grid"), ("tune", "--k-grid")}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_option_values_keep_the_exit_code_contract(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    scores = root / "fuzz_scores.csv"
    features = root / "fuzz_features.csv"
    bonus = root / "fuzz_bonus.txt"
    if not bonus.exists():
        _write_scores(scores, n=40, seed=9)
        _write_features(features, n=40, seed=9)
        bonus.write_text("0 0.5 1\n")
    command = data.draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    inputs = {"compare": [scores] * 2, "sweep-c": [scores] * 2, "simulate": [], "tune": [features]}
    argv = [command, *map(str, inputs.get(command, [scores]))]
    for option, cheap in _FUZZ_OPTIONS[command].items():
        value = cheap
        if data.draw(st.integers(0, 2)) == 0:
            value = data.draw(st.sampled_from(_FUZZ_VALUES))
            if option == "--utility":
                value = "c:" + value
            elif (command, option) in _FUZZ_LISTS and data.draw(st.booleans()):
                value = "1," + value
        argv += [option, value]
    if command == "equity":
        argv += ["--bonus", str(bonus)]
    argv += ["--out-dir", str(root / "fuzz_out")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3), argv
    lines = stderr.getvalue().splitlines()
    # argparse puts its usage lines before its one error line
    assert sum("error: " in line for line in lines) == (code != 0), (argv, lines)
    assert not lines or code != 0, (argv, lines)
