"""Resampling-based uncertainty: one bootstrap engine, intervals, a paired test.

All resampling draws whole rows jointly, so scores, labels and any per-sample
side information stay aligned.  :func:`resample` draws each row sample once
from the seeded stream and offers it to every statistic of every row-aligned
dataset; a statistic undefined on a draw (AUC on a single-class sample) skips
it, so each statistic gets exactly the values it would get if it were
resampled alone.  Intervals are plain percentile intervals of the replicate
values; with a shared seed the replicate stream is identical across levels,
which makes narrower intervals exact subsets of wider ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    CostCoefficients,
    DecisionRule,
    DegenerateDataError,
    LabeledScores,
    ValidationError,
    as_float_vector,
)
from .metrics import accuracy, auc_rank, brier, calibration_curve, ece, net_trust
from .utility import utility_curve

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "PairedTestResult",
    "bootstrap_ci",
    "paired_max_utility_test",
    "percentile_interval",
    "resample",
    "sem",
    "BOOTSTRAP_METRICS",
    "MAX_REPLICATES",
    "MAX_REPLICATE_CELLS",
]

_MIN_INTERVAL_REPLICATES = 100

# ``resample`` keeps every replicate value of every statistic; a statistic
# returning g values per replicate keeps replicates x g of them
MAX_REPLICATES = 1_000_000
MAX_REPLICATE_CELLS = 4_000_000


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, interval level and seed for bootstrap intervals.

    Interval estimation requires at least 100 replicates.
    """

    replicates: int = 1000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.replicates) != self.replicates or self.replicates < 1:
            raise ValidationError(f"replicates must be a positive integer, got {self.replicates}")
        object.__setattr__(self, "replicates", int(self.replicates))
        if self.replicates < _MIN_INTERVAL_REPLICATES:
            raise ValidationError(
                f"interval estimation requires >= {_MIN_INTERVAL_REPLICATES} replicates, "
                f"got {self.replicates}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must be in (0, 1), got {self.level}")


def _max_utility(
    data: LabeledScores, coefficients: CostCoefficients | None, bins: int = 10
) -> float:
    if coefficients is None:
        raise ValidationError("the u_max metric requires cost coefficients")
    return utility_curve(data, coefficients).max_utility


# name -> statistic(data, coefficients, bins=10)
BOOTSTRAP_METRICS = {
    "auc": lambda data, _, bins=10: auc_rank(data),
    "brier": lambda data, _, bins=10: brier(data),
    "accuracy": lambda data, _, bins=10: accuracy(data, DecisionRule(0.5)),
    "ece": lambda data, _, bins=10: ece(calibration_curve(data, bins=bins)),
    "net_trust": lambda data, _, bins=10: net_trust(data),
    "u_max": _max_utility,
}


def resample(datasets, statistics, replicates: int, seed: int, coefficients=None):
    """Bootstrap every statistic on every row-aligned dataset from one stream.

    Each step draws ``integers(0, n, n)`` row indices from the stream seeded
    with ``SeedSequence([seed])``, counts how often each row was drawn, takes
    every dataset (and per-row ``coefficients``) once, its runs derived from
    the dataset's one sort and those counts (no sample is sorted), and calls
    ``statistics[name](data, coefficients)`` on the resampled pair for every
    dataset and statistic that still has fewer than ``replicates`` values.
    A statistic raising :class:`DegenerateDataError` skips the draw, which
    counts as one of its redraws; 100 redraws per replicate exhaust its
    budget.  Returns ``(values, redraws)``: per dataset, a mapping from
    statistic name to its replicate array (one row per replicate) and to its
    redraw count.  ``replicates`` may be at most :data:`MAX_REPLICATES`.
    """
    if not 0 <= replicates <= MAX_REPLICATES:
        raise ValidationError(
            f"replicates must be >= 0 and <= {MAX_REPLICATES}, got {replicates}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    n = datasets[0].n
    values = [{name: [] for name in statistics} for _ in datasets]
    redraws = [dict.fromkeys(statistics, 0) for _ in datasets]
    pending = [(i, name) for i in range(len(datasets)) for name in statistics]
    while pending := [(i, name) for i, name in pending if len(values[i][name]) < replicates]:
        idx = rng.integers(0, n, n)
        counts = np.bincount(idx, minlength=n)
        resampled = [data.take(idx, counts) for data in datasets]
        sub = None if coefficients is None else coefficients.take(idx)
        for i, name in pending:
            try:
                values[i][name].append(statistics[name](resampled[i], sub))
            except DegenerateDataError:
                redraws[i][name] += 1
                if redraws[i][name] >= 100 * replicates:
                    raise DegenerateDataError(
                        f"bootstrap for {name!r} exhausted its redraw budget; "
                        "the data is too close to single-class"
                    ) from None
    return [{name: np.array(v) for name, v in per.items()} for per in values], redraws


def percentile_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    """Central percentile interval of replicate values at ``level``."""
    tail = 100.0 * (1.0 - level) / 2.0
    low, high = np.percentile(values, [tail, 100.0 - tail])
    return float(low), float(high)


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with a percentile interval and resampling diagnostics."""

    point: float
    low: float
    high: float
    level: float
    replicates: int
    redraws: int
    values: np.ndarray


def bootstrap_ci(
    data: LabeledScores,
    metric: str,
    config: BootstrapConfig,
    coefficients: CostCoefficients | None = None,
    bins: int = 10,
) -> BootstrapResult:
    """Percentile bootstrap interval for a named metric.

    Rows are resampled with replacement; resamples on which the metric is
    undefined (a single-class draw for AUC) are redrawn and counted in
    ``redraws``.
    """
    if metric not in BOOTSTRAP_METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of {sorted(BOOTSTRAP_METRICS)}"
        )
    evaluate = partial(BOOTSTRAP_METRICS[metric], bins=bins)
    point = evaluate(data, coefficients)
    values, redraws = resample(
        [data], {metric: evaluate}, config.replicates, config.seed, coefficients
    )
    low, high = percentile_interval(values[0][metric], config.level)
    return BootstrapResult(
        point=float(point),
        low=low,
        high=high,
        level=config.level,
        replicates=config.replicates,
        redraws=redraws[0][metric],
        values=values[0][metric],
    )


@dataclass(frozen=True)
class PairedTestResult:
    """Paired bootstrap comparison of attainable utility between two scorers."""

    diff: float
    low: float
    high: float
    p_value: float
    level: float
    replicates: int
    diffs: np.ndarray

    @classmethod
    def from_diffs(cls, diff: float, diffs: np.ndarray, level: float) -> "PairedTestResult":
        """Interval and two-sided p-value of paired replicate differences.

        The p-value is twice the smaller tail fraction of ``diffs`` around
        zero, clamped to [2/replicates, 1].
        """
        replicates = diffs.size
        low, high = percentile_interval(diffs, level)
        frac_low = np.count_nonzero(diffs <= 0.0) / replicates
        frac_high = np.count_nonzero(diffs >= 0.0) / replicates
        p_value = min(1.0, max(2.0 / replicates, 2.0 * min(frac_low, frac_high)))
        return cls(float(diff), low, high, float(p_value), level, replicates, diffs)


def paired_max_utility_test(
    data_a: LabeledScores,
    data_b: LabeledScores,
    coefficients: CostCoefficients,
    config: BootstrapConfig,
) -> PairedTestResult:
    """Bootstrap the difference in sweep-maximal utility on shared rows.

    Both datasets must score the same labeled rows; each replicate resamples
    one set of row indices and applies it to both sides, so the replicate
    differences are paired.
    """
    if data_a.n != data_b.n:
        raise ValidationError(
            f"paired test needs equal sizes, got {data_a.n} and {data_b.n}"
        )
    if not np.array_equal(data_a.labels, data_b.labels):
        raise ValidationError("paired test needs identical labels on both sides")
    values, _ = resample(
        [data_a, data_b], {"u_max": _max_utility}, config.replicates, config.seed, coefficients
    )
    return PairedTestResult.from_diffs(
        _max_utility(data_a, coefficients) - _max_utility(data_b, coefficients),
        values[0]["u_max"] - values[1]["u_max"],
        config.level,
    )


def sem(values) -> float:
    """Standard error of the mean: sample standard deviation over sqrt(n)."""
    arr = as_float_vector(values, "sem input")
    if arr.size < 2:
        raise ValidationError("sem requires at least 2 values")
    return float(arr.std(ddof=1) / math.sqrt(arr.size))
