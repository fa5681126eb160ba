"""Seeded inputs, CLI invocations and output checks of the four workloads.

Inputs come from the benchmark's own copy of the simulation model (three
standard normal features, logistic labels), seeded by the workload seed, so
they do not change when the program's generator does.  The program receives
only the files and ``--seed``.

Each ``prepare_*`` writes the inputs under ``work`` and returns a
:class:`Workload`: the CLI arguments, the units of work one run does, the
measured input properties, and ``check(out_dir)``, which returns the problems
found in one run's reports (empty when they are right).  Checks compare
against the program's reference functions (``auc_pairwise``,
``empirical_utility``) evaluated on the same input files, and, for the
bootstrap, against the benchmark's own rank-sum AUC on the same seeded draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import rankdata

ROWS = 15000
COMPARE_REPLICATES = 100
SIM_REALIZATIONS = 20
TUNE_REPEATS = 20
K_GRID = (5, 15, 45, 85, 151, 201)
TUNE_DATA = "data/breast_cancer.csv"


@dataclass
class Workload:
    argv: list[str]
    units: float
    unit: str
    inputs: dict
    check: Callable[[Path], list[str]] = field(repr=False)


def _expit(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _draw(seed: int, n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2401]))
    x1, x2, x3 = rng.standard_normal((3, n))
    bayes = _expit(0.5 * x1 - x2 + 0.5 * x3)
    return {
        "bayes": bayes,
        "shifted": _expit(0.5 * x1 - x2 + 0.5 * x3 + 1.0),
        "coarse": _expit(0.5 * x1 - x2),
        "label": (rng.random(n) < bayes).astype(np.int64),
        "age": rng.integers(18, 96, n),
        "group": rng.integers(0, 2, n),
    }


def _write_table(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    cells = [
        [repr(float(v)) if values.dtype.kind == "f" else str(int(v)) for v in values]
        for values in columns.values()
    ]
    lines = [",".join(names)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _properties(path: Path, scores: np.ndarray | None, labels: np.ndarray) -> dict:
    props = {
        "rows": int(labels.size),
        "positive_rate": float(labels.mean()),
        "bytes": os.path.getsize(path),
    }
    if scores is not None:
        props["distinct_score_ratio"] = np.unique(scores).size / scores.size
    return props


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _bootstrap_auc(scores: np.ndarray, labels: np.ndarray, seed: int) -> np.ndarray:
    """AUC on each of the program's bootstrap resamples, from the same draws
    (one index vector per replicate, single-class draws redrawn) but with a
    rank-sum AUC of the benchmark's own."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    n = labels.size
    values = np.empty(COMPARE_REPLICATES)
    for b in range(COMPARE_REPLICATES):
        while True:
            idx = rng.integers(0, n, n)
            positive = labels[idx] == 1
            n_pos = int(positive.sum())
            if 0 < n_pos < n:
                break
        ranks = rankdata(scores[idx])
        values[b] = (ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (n - n_pos))
    return values


def prepare_resample(root: Path, work: Path, seed: int) -> Workload:
    from utileval.dataio import read_scores
    from utileval.metrics import auc_pairwise

    draw = _draw(seed, ROWS)
    files = {"bayes": work / "bayes.csv", "coarse3": work / "coarse3.csv"}
    _write_table(files["bayes"], {"score": draw["bayes"], "label": draw["label"]})
    _write_table(
        files["coarse3"], {"score": np.round(draw["coarse"], 3), "label": draw["label"]}
    )
    datasets = {name: read_scores(path) for name, path in files.items()}
    expected_auc = {name: auc_pairwise(data) for name, data in datasets.items()}
    expected_intervals = {}
    for name, data in datasets.items():
        values = _bootstrap_auc(data.scores, data.labels, seed)
        expected_intervals[name] = {
            "auc@95": np.percentile(values, [2.5, 97.5]).tolist(),
            "auc@68": np.percentile(values, [16.0, 84.0]).tolist(),
        }

    def check(out: Path) -> list[str]:
        report = _load_json(out / "compare_report.json")
        problems = []
        for name, auc in expected_auc.items():
            entry = report["models"][name]
            if not abs(entry["auc"] - auc) <= 1e-12:
                problems.append(f"{name}: auc {entry['auc']!r} != pairwise {auc!r}")
            intervals = entry["intervals"]
            for key, (low, high) in expected_intervals[name].items():
                got = intervals[key]
                if not (abs(got["low"] - low) <= 1e-12 and abs(got["high"] - high) <= 1e-12):
                    problems.append(
                        f"{name}: {key} [{got['low']!r}, {got['high']!r}] != rank-sum "
                        f"bootstrap [{low!r}, {high!r}]"
                    )
            for key, wide in intervals.items():
                if not key.endswith("@95"):
                    continue
                narrow = intervals[key[:-3] + "@68"]
                if not wide["low"] <= narrow["low"] <= narrow["high"] <= wide["high"]:
                    problems.append(f"{name}: {key[:-3]} 68% interval not inside 95%")
        for test in report["paired_u_max_tests"]:
            if not 2.0 / COMPARE_REPLICATES <= test["p_value"] <= 1.0:
                problems.append(f"p-value {test['p_value']!r} outside [2/R, 1]")
        return problems

    rel = [str(files[name].relative_to(root)) for name in files]
    return Workload(
        argv=["compare", *rel, "--utility", "c:2", "--replicates", str(COMPARE_REPLICATES)],
        units=COMPARE_REPLICATES,
        unit="replicates",
        inputs={
            name: _properties(files[name], data.scores, data.labels)
            for name, data in datasets.items()
        },
        check=check,
    )


def prepare_contextual(root: Path, work: Path, seed: int, rows: int = ROWS) -> Workload:
    from utileval.core import DecisionRule
    from utileval.dataio import read_scores
    from utileval.utility import age_discounted_coeffs, empirical_utility

    draw = _draw(seed, rows)
    path = work / "contextual.csv"
    _write_table(
        path,
        {
            "score": draw["bayes"],
            "label": draw["label"],
            "age": draw["age"],
            "group": draw["group"],
            "reference_score": draw["shifted"],
        },
    )
    data = read_scores(path)
    coefficients = age_discounted_coeffs(data)

    def check(out: Path) -> list[str]:
        metrics = _load_json(out / "evaluate_report.json")["report"]["metrics"]
        u_max = metrics["u_max"]
        curve_max = max(float(row["utility"]) for row in _read_rows(out / "evaluate_utility.csv"))
        pointwise = empirical_utility(
            data, coefficients, DecisionRule(metrics["argmax_threshold"])
        )
        problems = []
        if u_max.hex() != curve_max.hex():
            problems.append(f"u_max {u_max!r} != max of utility curve {curve_max!r}")
        if u_max.hex() != pointwise.hex():
            problems.append(f"u_max {u_max!r} != pointwise utility {pointwise!r} at argmax")
        return problems

    return Workload(
        argv=["evaluate", str(path.relative_to(root)), "--utility", "age-contextual"],
        units=rows,
        unit="rows",
        inputs={"contextual": _properties(path, data.scores, data.labels)},
        check=check,
    )


def prepare_simulate(root: Path, work: Path, seed: int) -> Workload:
    def check(out: Path) -> list[str]:
        maxima: dict[str, dict[str, str]] = {}
        for row in _read_rows(out / "simulate_distributions.csv"):
            maxima.setdefault(row["realization"], {})[row["classifier"]] = row["max_utility"]
        problems = [
            f"realization {r}: bayes {m.get('bayes')} != shifted {m.get('shifted')}"
            for r, m in maxima.items()
            if m.get("bayes") is None or float(m["bayes"]).hex() != float(m["shifted"]).hex()
        ]
        if len(maxima) != SIM_REALIZATIONS:
            problems.append(f"{len(maxima)} realization rows, expected {SIM_REALIZATIONS}")
        return problems

    return Workload(
        argv=["simulate", "--samples", str(ROWS), "--realizations", str(SIM_REALIZATIONS)],
        units=SIM_REALIZATIONS,
        unit="realizations",
        inputs={"simulate": {"rows": ROWS, "realizations": SIM_REALIZATIONS, "bytes": 0}},
        check=check,
    )


def prepare_tune(root: Path, work: Path, seed: int) -> Workload:
    from utileval.dataio import read_features

    path = root / TUNE_DATA
    table = read_features(path)
    props = _properties(path, None, table.labels)
    props["features"] = len(table.features.names)

    def check(out: Path) -> list[str]:
        report = _load_json(out / "tune_report.json")
        chosen = report["chosen_k"]["auc"] + report["chosen_k"]["accuracy"]
        problems = [f"chosen k {k} not in the k grid" for k in chosen if k not in K_GRID]
        if len(chosen) != 2 * TUNE_REPEATS:
            problems.append(f"{len(chosen)} chosen k values, expected {2 * TUNE_REPEATS}")
        return problems

    return Workload(
        argv=[
            "tune",
            TUNE_DATA,
            "--k-grid",
            ",".join(map(str, K_GRID)),
            "--repeats",
            str(TUNE_REPEATS),
        ],
        units=TUNE_REPEATS,
        unit="repeats",
        inputs={"breast_cancer": props},
        check=check,
    )


PREPARE = {
    "resample": prepare_resample,
    "contextual": prepare_contextual,
    "simulate": prepare_simulate,
    "tune": prepare_tune,
}


def check_outputs(
    workload: Workload, out: Path, reference: dict[str, str] | None
) -> tuple[list[str], dict[str, str]]:
    """Problems with one run's reports, and the SHA-256 of each report file.

    With a ``reference`` (the digests of the set's first run) every file must
    match it byte for byte; the workload's own checks run only on reports that
    do, or on the first run.
    """
    if not out.is_dir():
        return ["no reports written"], {}
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    if reference is not None and digests != reference:
        return ["report bytes differ from the first run"], digests
    try:
        return workload.check(out), digests
    except Exception as exc:  # a malformed report fails the run, not the benchmark
        return [f"report unreadable: {exc!r}"], digests
