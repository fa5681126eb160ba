import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import utileval

from utileval import BootstrapConfig, CostCoefficients, paired_max_utility_test, read_scores
from utileval.cli import main


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

    # argparse's own exit path is surfaced unchanged
    assert main(["no-such-command"]) == 2
    assert main(["--version"]) == 0


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


def test_importing_the_cli_loads_no_scipy():
    # SciPy is imported where it is used; loading it costs every command
    env = {**os.environ, "PYTHONPATH": str(Path(utileval.__file__).parents[1])}
    code = "import sys, utileval.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


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


def test_tune_command(tmp_path):
    rng = np.random.default_rng(100)
    n = 240
    X = rng.normal(size=(n, 2))
    y = ((X[:, 0] + X[:, 1] + rng.normal(0, 1.2, n)) > 0).astype(int)
    lines = ["label,x1,x2"] + [
        f"{y[i]},{float(X[i, 0])!r},{float(X[i, 1])!r}" for i in range(n)
    ]
    features = tmp_path / "features.csv"
    features.write_text("\n".join(lines) + "\n")
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
