"""Command line interface.

Six subcommands cover the common workflows: ``evaluate`` one score file,
``compare`` several scorers on shared rows, ``simulate`` the built-in
synthetic study, ``sweep-c`` a one-parameter cost family, ``tune`` kNN by two
selection criteria, and ``equity`` for capacity-constrained selection.

Every command writes one structured JSON report (including a run manifest
with the full configuration, seeds and input digests) plus flat CSV tables
for anything curve-shaped.  Outputs carry no timestamps and all randomness is
seed-derived, so re-running a command with identical inputs and options
produces byte-identical files.  Exit codes: 0 on success, 2 on input or
option validation failures, 3 when the data is statistically degenerate for
the requested analysis.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import utileval
from .core import (
    CostCoefficients,
    DecisionRule,
    DegenerateDataError,
    EvalReport,
    LabeledScores,
    ValidationError,
)
from .dataio import (
    FormattedArray,
    file_digest,
    read_bonus_table,
    read_features,
    read_scores,
    write_csv,
    write_json,
)
from .metrics import (
    accuracy,
    auc_rank,
    brier,
    calibration_curve,
    ece,
    net_trust,
    roc_points,
)
from .ranking import (
    EquityUtility,
    equity_brute_force,
    equity_select,
    preserves_ranking,
    preserves_ranking_by_group,
)
from .simstudy import CLASSIFIERS, NORMAL_METHOD, SimStudyConfig, simulate
from .simstudy import generate_realization  # noqa: F401  perfbench traces it through cli
from .stats import (
    BOOTSTRAP_METRICS,
    MAX_REPLICATE_CELLS,
    BootstrapConfig,
    PairedTestResult,
    percentile_interval,
    resample,
    sem,
)
from .learners import tune_and_compare
from .utility import (
    age_discounted_coeffs,
    bayes_threshold,
    cost_family,
    max_utilities,
    utility_curve,
)

VERSION = utileval.__version__

_INTERVAL_METRICS = ("auc", "brier", "accuracy", "ece", "net_trust", "u_max")


def _resolve_utility(spec: str, data: LabeledScores | None = None, age=None) -> CostCoefficients:
    """Interpret the --utility option."""
    if spec == "zero-one":
        return CostCoefficients.zero_one()
    if spec.startswith("c:"):
        try:
            c = float(spec[2:])
        except ValueError:
            raise ValidationError(f"invalid cost parameter in --utility {spec!r}") from None
        return cost_family(c)
    if spec == "age-contextual":
        if data is not None:
            return age_discounted_coeffs(data)
        if age is None:
            raise ValidationError(
                "--utility age-contextual requires an 'age' column in the input"
            )
        return age_discounted_coeffs(
            LabeledScores(
                scores=np.zeros(len(age)),
                labels=np.zeros(len(age), dtype=np.int64),
                context={"age": age},
            )
        )
    if spec == "columns":
        if data is None or data.coefficients is None:
            raise ValidationError(
                "--utility columns requires a11,a01,a10,a00 columns in the score file"
            )
        return data.coefficients
    raise ValidationError(
        f"unknown --utility {spec!r}; expected zero-one, c:<value>, "
        "age-contextual or columns"
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_reports(args, out: Path, inputs, report: str, payload: dict, tables: dict) -> None:
    """Write ``payload`` to ``out / report`` and each ``{name: (header, rows)}``
    table to ``out / name``; the payload's ``manifest`` lists exactly those files."""
    options = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in vars(args).items()
        if key != "func"
    }
    payload["manifest"] = {
        "tool": {"name": "utileval", "version": VERSION},
        "command": args.command,
        "options": options,
        "inputs": {str(path): file_digest(path) for path in inputs},
        "outputs": sorted([report, *tables]),
    }
    write_json(out / report, payload)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)


def _unique_names(paths) -> list[str]:
    names = []
    for path in paths:
        stem = Path(path).stem
        name = stem
        suffix = 2
        while name in names:
            name = f"{stem}_{suffix}"
            suffix += 1
        names.append(name)
    return names


def _read_same_rows(args) -> tuple[list[LabeledScores], list[str]]:
    """Read the score files, which must describe the same labeled rows."""
    datasets = [read_scores(path, delimiter=args.delimiter) for path in args.scores]
    names = _unique_names(args.scores)
    first = datasets[0]
    for name, data in zip(names[1:], datasets[1:]):
        if data.n != first.n or not np.array_equal(data.labels, first.labels):
            raise ValidationError(
                f"score files must describe the same rows: labels of {name!r} "
                "differ from the first file"
            )
    return datasets, names


def _bootstrap(datasets, coefficients, args, metrics=_INTERVAL_METRICS):
    """Replicates of ``metrics`` on every file, all cut from one draw stream."""
    config = BootstrapConfig(replicates=args.replicates or 100, seed=args.seed)
    statistics = {name: partial(BOOTSTRAP_METRICS[name], bins=args.bins) for name in metrics}
    return resample(datasets, statistics, config.replicates, config.seed, coefficients)


def _intervals(values) -> dict:
    """68% and 95% intervals of every metric from its one replicate sample."""
    intervals = {}
    for metric in _INTERVAL_METRICS:
        low68, high68 = np.percentile(values[metric], [16.0, 84.0])
        intervals[f"{metric}@68"] = (float(low68), float(high68), 0.68)
        intervals[f"{metric}@95"] = (*percentile_interval(values[metric], 0.95), 0.95)
    return intervals


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    data = read_scores(args.scores, delimiter=args.delimiter)
    coefficients = _resolve_utility(args.utility, data=data)
    curve = utility_curve(data, coefficients)
    roc = roc_points(data)
    calibration = calibration_curve(data, bins=args.bins)
    utility = np.column_stack([curve.thresholds, curve.utilities])
    # read-only curves go into the report without a copy
    roc.setflags(write=False)
    utility.setflags(write=False)
    metrics = {
        "auc": auc_rank(data),
        "brier": brier(data),
        "accuracy": accuracy(data, DecisionRule(0.5)),
        "ece": ece(calibration),
        "net_trust": net_trust(data),
        "u_max": curve.max_utility,
        "argmax_threshold": curve.best_threshold,
    }
    if coefficients.is_constant:
        metrics["analytic_threshold"] = bayes_threshold(coefficients)
    intervals: dict = {}
    diagnostics: dict = {}
    if args.replicates:
        values, redraws = _bootstrap([data], coefficients, args)
        intervals = _intervals(values[0])
        diagnostics = {metric: {"redraws": count} for metric, count in redraws[0].items()}
    report = EvalReport(
        metrics=metrics,
        curves={
            "roc": roc,
            "calibration": [
                (b.mean_predicted, b.observed_frequency) for b in calibration.bins
            ],
            "utility": utility,
        },
        intervals=intervals,
    )
    checks = {}
    if data.reference_scores is not None:
        checks["preserves_reference_ranking"] = preserves_ranking(
            data.scores, data.reference_scores
        )
        if data.group is not None:
            checks["preserves_reference_ranking_by_group"] = preserves_ranking_by_group(
                data.scores, data.reference_scores, data.group
            )
    # the report's own curve arrays, not to_dict()'s list copies; each of them
    # is formatted once for the JSON report and for its CSV table
    curves = {name: FormattedArray(points) for name, points in report.curves.items()}
    body = {**replace(report, curves={}).to_dict(), "curves": curves}
    payload = {"report": body, "checks": checks, "bootstrap": diagnostics}
    tables = {
        "evaluate_roc.csv": (["fpr", "tpr"], curves["roc"]),
        "evaluate_calibration.csv": (
            ["bin_index", "mean_predicted", "observed_frequency", "count"],
            [
                (b.bin_index, b.mean_predicted, b.observed_frequency, b.count)
                for b in calibration.bins
            ],
        ),
        "evaluate_utility.csv": (["threshold", "utility"], curves["utility"]),
    }
    _write_reports(args, out, [args.scores], "evaluate_report.json", payload, tables)
    return 0


_COMPARE_METRICS = ("auc", "accuracy", "brier", "net_trust", "u_max")


def cmd_compare(args) -> int:
    if len(args.scores) < 2:
        raise ValidationError("compare requires at least two score files")
    out = _out_dir(args)
    datasets, names = _read_same_rows(args)
    coefficients = _resolve_utility(args.utility, data=datasets[0])
    table = {}
    for name, data in zip(names, datasets):
        curve = utility_curve(data, coefficients)
        table[name] = {
            "auc": auc_rank(data),
            "accuracy": accuracy(data, DecisionRule(0.5)),
            "brier": brier(data),
            "net_trust": net_trust(data),
            "u_max": curve.max_utility,
            "argmax_threshold": curve.best_threshold,
        }
    # the paired tests reuse the u_max replicates behind the intervals (100
    # replicates of u_max alone without --replicates)
    values, _ = _bootstrap(
        datasets, coefficients, args, _INTERVAL_METRICS if args.replicates else ("u_max",)
    )
    if args.replicates:
        for name, replicates in zip(names, values):
            table[name]["intervals"] = {
                key: {"low": low, "high": high, "level": level}
                for key, (low, high, level) in _intervals(replicates).items()
            }
    pairwise = []
    for i in range(len(datasets)):
        for j in range(i + 1, len(datasets)):
            result = PairedTestResult.from_diffs(
                table[names[i]]["u_max"] - table[names[j]]["u_max"],
                values[i]["u_max"] - values[j]["u_max"],
                0.95,
            )
            pairwise.append(
                {
                    "a": names[i],
                    "b": names[j],
                    "diff_u_max": result.diff,
                    "low": result.low,
                    "high": result.high,
                    "level": result.level,
                    "p_value": result.p_value,
                }
            )
    winners = {}
    for metric in _COMPARE_METRICS:
        ordered = sorted(
            table, key=lambda name: table[name][metric], reverse=metric != "brier"
        )
        winners[metric] = ordered[0]
    payload = {"models": table, "paired_u_max_tests": pairwise, "winners": winners}
    rows = []
    for name in names:
        for metric in _COMPARE_METRICS:
            entry = table[name]
            interval = entry.get("intervals", {}).get(f"{metric}@95")
            rows.append(
                (
                    name,
                    metric,
                    entry[metric],
                    "" if interval is None else interval["low"],
                    "" if interval is None else interval["high"],
                )
            )
    tables = {"compare_metrics.csv": (["model", "metric", "value", "low95", "high95"], rows)}
    _write_reports(args, out, args.scores, "compare_report.json", payload, tables)
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    config = SimStudyConfig(
        n_samples=args.samples,
        n_realizations=args.realizations,
        master_seed=args.seed,
    )
    summary, curves, calibration = simulate(
        config, (CostCoefficients.zero_one(), cost_family(args.cost)), args.grid, args.bins
    )
    rate = summary.positive_rate
    payload = {
        "config": {
            "n_samples": config.n_samples,
            "n_realizations": config.n_realizations,
            "master_seed": config.master_seed,
            "normal_method": NORMAL_METHOD,
            "cost_parameter": args.cost,
        },
        "bands": summary.bands,
        "positive_rate": {
            "mean": float(rate.mean()),
            "p16": float(np.percentile(rate, 16.0)),
            "p50": float(np.percentile(rate, 50.0)),
            "p84": float(np.percentile(rate, 84.0)),
        },
    }
    metric_names = sorted(next(iter(summary.values.values())).keys())
    rows = [
        (name, r, *(summary.values[name][metric][r] for metric in metric_names))
        for name in CLASSIFIERS
        for r in range(config.n_realizations)
    ]
    tables = {
        "simulate_distributions.csv": (["classifier", "realization", *metric_names], rows),
        "simulate_calibration.csv": (
            [
                "classifier",
                "bin_index",
                "mean_predicted",
                "observed_mean",
                "observed_p16",
                "observed_p84",
                "mean_count",
            ],
            [(name, *row) for name in CLASSIFIERS for row in calibration[name]],
        ),
    }
    for bands, filename in zip(
        curves, ("simulate_utility_zero_one.csv", "simulate_utility_cost.csv")
    ):
        rows = [
            (name, *row)
            for name, stats in bands.stats.items()
            for row in zip(bands.thresholds, stats["mean"], stats["p16"], stats["p84"])
        ]
        tables[filename] = (["classifier", "threshold", "mean_utility", "p16", "p84"], rows)
    _write_reports(args, out, [], "simulate_summary.json", payload, tables)
    return 0


def _parse_grid(text: str, what: str) -> list[float]:
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ValidationError(f"invalid {what} grid {text!r}") from None
    if not values:
        raise ValidationError(f"empty {what} grid")
    return values


def cmd_sweep_c(args) -> int:
    out = _out_dir(args)
    datasets, names = _read_same_rows(args)
    grid = _parse_grid(args.grid, "cost")
    for c in grid:
        if c < 0:
            raise ValidationError(f"cost parameters must be >= 0, got {c}")
    if args.replicates * len(grid) > MAX_REPLICATE_CELLS:
        raise ValidationError(
            f"replicates x cost grid length must be <= {MAX_REPLICATE_CELLS}, "
            f"got {args.replicates} x {len(grid)}"
        )

    costs = [cost_family(c) for c in grid]

    def sweep_maxima(replicate, _=None) -> list[float]:
        return max_utilities(replicate.starts, replicate.positives_before, costs)

    points = {
        name: [utility_curve(data, c).max_utility for c in costs]
        for name, data in zip(names, datasets)
    }
    values, _ = resample(datasets, {"u_max": sweep_maxima}, args.replicates, args.seed)
    rows = []
    models = {}
    for name, replicates in zip(names, values):
        models[name] = []
        for column, c in enumerate(grid):
            entry = {"c": c, "u_max": points[name][column]}
            if args.replicates >= 2:
                column_values = replicates["u_max"][:, column]
                entry["u_max_mean"] = float(column_values.mean())
                entry["u_max_sem"] = sem(column_values)
            models[name].append(entry)
            rows.append(
                (
                    name,
                    c,
                    points[name][column],
                    entry.get("u_max_mean", ""),
                    entry.get("u_max_sem", ""),
                )
            )
    payload = {"grid": grid, "replicates": args.replicates, "models": models}
    tables = {"sweep_c.csv": (["model", "c", "u_max", "u_max_mean", "u_max_sem"], rows)}
    _write_reports(args, out, args.scores, "sweep_c_report.json", payload, tables)
    return 0


def cmd_tune(args) -> int:
    out = _out_dir(args)
    table = read_features(args.features, delimiter=args.delimiter)
    if args.utility == "columns":
        raise ValidationError("--utility columns is not available for feature files")
    coefficients = _resolve_utility(args.utility, age=table.age)
    result = tune_and_compare(
        table.features,
        table.labels,
        _parse_grid(args.k_grid, "k"),
        coefficients,
        repeats=args.repeats,
        seed=args.seed,
        n_folds=args.folds,
        test_fraction=args.test_fraction,
        grid_size=args.grid,
    )

    def repeat_sem(values, single):
        """SEM over the repeats (axis 0) as Python floats; ``single`` for one repeat."""
        if result.repeats < 2:
            return single
        return sem(values)

    max_utility = {}
    cv_header = ["k"]
    cv_rows = [[k] for k in result.k_grid]
    utility_rows = []
    for criterion, per_repeat in result.max_utility.items():
        max_utility[criterion] = {
            "per_repeat": per_repeat,
            "mean": float(per_repeat.mean()),
            "sem": repeat_sem(per_repeat, None),
        }
        cv = result.cv[criterion]
        cv_header += [f"mean_cv_{criterion}", f"sem_cv_{criterion}"]
        sems = repeat_sem(cv, [""] * len(cv_rows))
        for column, row in enumerate(cv_rows):
            row += [float(cv[:, column].mean()), sems[column]]
        grid = result.utility_grid[criterion]
        utility_rows += [
            (criterion, *cells)
            for cells in zip(
                result.thresholds.tolist(),
                grid.mean(axis=0).tolist(),
                repeat_sem(grid, [""] * result.thresholds.size),
            )
        ]
    payload = {
        "k_grid": list(result.k_grid),
        "repeats": result.repeats,
        "chosen_k": result.chosen_k,
        "max_utility": max_utility,
    }
    tables = {
        "tune_cv.csv": (cv_header, cv_rows),
        "tune_utility.csv": (
            ["criterion", "threshold", "mean_utility", "sem_utility"],
            utility_rows,
        ),
    }
    _write_reports(args, out, [args.features], "tune_report.json", payload, tables)
    return 0


def cmd_equity(args) -> int:
    out = _out_dir(args)
    data = read_scores(args.scores, delimiter=args.delimiter)
    if data.reference_scores is None:
        raise ValidationError("equity selection requires a reference_score column")
    if data.group is None:
        raise ValidationError("equity selection requires a group column")
    bonus = read_bonus_table(args.bonus)
    benefit = data.context.get("benefit", data.reference_scores)
    spec = EquityUtility(benefit=benefit, group_bonus=bonus)
    result = equity_select(data.reference_scores, data.group, spec)
    oracle = None
    if args.check_oracle:
        brute = equity_brute_force(data.reference_scores, data.group, spec)
        oracle = {
            "total_utility": brute.total_utility,
            "group1_count": brute.group1_count,
            "chosen": brute.chosen,
            "agrees": bool(
                brute.total_utility == result.total_utility
                and np.array_equal(brute.chosen, result.chosen)
            ),
        }
    payload = {
        "capacity": spec.capacity,
        "benefit_source": "benefit" if "benefit" in data.context else "reference_score",
        "chosen": result.chosen,
        "group1_count": result.group1_count,
        "total_utility": result.total_utility,
        "utility_by_group1_count": result.utility_by_group1_count,
        "oracle": oracle,
    }
    profile = [
        (j, value, int(value == value)) for j, value in enumerate(result.utility_by_group1_count)
    ]
    tables = {"equity_profile.csv": (["group1_count", "utility", "feasible"], profile)}
    _write_reports(args, out, [args.scores, args.bonus], "equity_report.json", payload, tables)
    return 0


def _seed(text: str) -> int:
    """Parse --seed: NumPy seeds every stream from a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    common.add_argument(
        "--out-dir", default=".", help="directory for report files (default .)"
    )
    common.add_argument(
        "--delimiter", default=",", help="input field delimiter (default ,)"
    )
    utility_help = (
        "utility family: zero-one, c:<value>, age-contextual, or columns "
        "(read a11,a01,a10,a00 from the file)"
    )

    parser = argparse.ArgumentParser(
        prog="utileval",
        description="Utility-focused evaluation of probabilistic binary classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"utileval {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "evaluate", parents=[common], help="evaluate one score file"
    )
    p.add_argument("scores", help="delimited file with score and label columns")
    p.add_argument("--utility", default="zero-one", help=utility_help)
    p.add_argument("--bins", type=int, default=10, help="calibration bins (default 10)")
    p.add_argument(
        "--replicates",
        type=int,
        default=0,
        help="bootstrap replicates for intervals (default 0 = no intervals)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare", parents=[common], help="compare scorers sharing the same rows"
    )
    p.add_argument("scores", nargs="+", help="two or more score files with identical labels")
    p.add_argument("--utility", default="zero-one", help=utility_help)
    p.add_argument("--bins", type=int, default=10, help="calibration bins (default 10)")
    p.add_argument(
        "--replicates", type=int, default=1000, help="bootstrap replicates (default 1000)"
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "simulate", parents=[common], help="run the built-in synthetic study"
    )
    p.add_argument("--samples", type=int, default=15000, help="samples per realization")
    p.add_argument("--realizations", type=int, default=400, help="number of realizations")
    p.add_argument(
        "--cost", type=float, default=1.0, help="cost parameter for the second utility panel"
    )
    p.add_argument("--bins", type=int, default=10, help="calibration bins (default 10)")
    p.add_argument("--grid", type=int, default=201, help="threshold grid size (default 201)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep-c", parents=[common], help="attainable utility across a cost grid"
    )
    p.add_argument("scores", nargs="+", help="score files with identical labels")
    p.add_argument(
        "--grid",
        default="0,0.25,0.5,0.75,1,1.5,2,3",
        help="comma-separated cost parameters (default 0,0.25,0.5,0.75,1,1.5,2,3)",
    )
    p.add_argument(
        "--replicates",
        type=int,
        default=200,
        help="bootstrap resamples for mean/SEM columns (default 200; 0 = point only)",
    )
    p.set_defaults(func=cmd_sweep_c)

    p = sub.add_parser(
        "tune", parents=[common], help="select k for kNN by AUC and by accuracy"
    )
    p.add_argument("features", help="delimited file with label and feature columns")
    p.add_argument(
        "--k-grid",
        default="5,15,45,85,151,201",
        help="comma-separated neighbor counts (default 5,15,45,85,151,201)",
    )
    p.add_argument("--folds", type=int, default=20, help="cross-validation folds (default 20)")
    p.add_argument("--repeats", type=int, default=20, help="train/test repetitions (default 20)")
    p.add_argument(
        "--test-fraction", type=float, default=0.3, help="held-out fraction (default 0.3)"
    )
    p.add_argument("--grid", type=int, default=201, help="threshold grid size (default 201)")
    p.add_argument("--utility", default="zero-one", help=utility_help)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "equity", parents=[common], help="capacity-constrained selection across two groups"
    )
    p.add_argument("scores", help="score file with reference_score and group columns")
    p.add_argument("--bonus", required=True, help="file with capacity+1 nondecreasing bonus values")
    p.add_argument(
        "--check-oracle",
        action="store_true",
        help="also run the exhaustive oracle (at most 20 rows) and report agreement",
    )
    p.set_defaults(func=cmd_equity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
