"""Resampling-based uncertainty: one bootstrap engine, intervals, a paired test.

All resampling draws whole rows jointly, so scores, labels and any per-sample
side information stay aligned.  :func:`resample` draws each row sample once
from the seeded stream and offers it to every statistic of every row-aligned
dataset; a statistic undefined on a draw (AUC on a single-class sample) skips
it, so each statistic gets exactly the values it would get if it were
bootstrapped alone.  A statistic takes only the draw (:class:`Replicate`),
read as counts per run of the dataset's one sort, from which the built-in
statistics compute what they would compute on the drawn dataset, bit for
bit, without building it; u_max reads the coefficients its source holds.
Intervals are plain percentile intervals of the replicate values; with a
shared seed the replicate stream is identical across levels, which makes
narrower intervals exact subsets of wider ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import (
    CostCoefficients,
    DegenerateDataError,
    LabeledScores,
    ValidationError,
    as_integer,
    rule_outcomes,
)
from .metrics import (
    auc_from_runs,
    brier_terms,
    calibration_block_stats,
    calibration_blocks,
    net_trust_terms,
)
from .metrics import auc_rank  # noqa: F401  perfbench traces it through stats
from .utility import ContributionDigits, drawn_run_sums, max_utilities, per_sample_max
from .utility import utility_curve  # noqa: F401  perfbench traces it through stats

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "PairedTestResult",
    "Replicate",
    "bootstrap_ci",
    "check_replicates",
    "paired_max_utility_test",
    "percentile_interval",
    "percentiles",
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
        object.__setattr__(self, "replicates", as_integer(self.replicates, "replicates"))
        if self.replicates < 1:
            raise ValidationError(f"replicates must be a positive integer, got {self.replicates}")
        if self.replicates < _MIN_INTERVAL_REPLICATES:
            raise ValidationError(
                f"interval estimation requires >= {_MIN_INTERVAL_REPLICATES} replicates, "
                f"got {self.replicates}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must be in (0, 1), got {self.level}")
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))


class _Source:
    """What every draw of one dataset reads, made once per :func:`resample` call."""

    def __init__(self, data: LabeledScores, coefficients: CostCoefficients | None) -> None:
        self.data = data
        self.coefficients = coefficients
        self._blocks: dict = {}

    @cached_property
    def key(self) -> np.ndarray:
        # one bincount of a draw's keys counts each run's negatives and positives
        return 2 * self.data.runs.run_of_row + self.data.labels

    @cached_property
    def digits(self) -> ContributionDigits:
        """The exact per-sample contributions of the rows."""
        return ContributionDigits(self.data.labels, self.coefficients)

    @cached_property
    def digit_positions(self) -> list:
        """Every digit position of :attr:`digits`, made once for every draw."""
        return list(self.digits)

    @cached_property
    def brier_terms(self) -> np.ndarray:
        return brier_terms(self.data)

    @cached_property
    def net_trust_terms(self) -> np.ndarray:
        return net_trust_terms(self.data)

    @cached_property
    def half_run(self) -> int:
        """The first run that the rule ``score >= 0.5`` accepts."""
        return int(self.data.runs.first_accepted(0.5))

    def blocks(self, bins: int):
        if bins not in self._blocks:
            self._blocks[bins] = calibration_blocks(self.data.runs.values, bins)
        return self._blocks[bins]


class Replicate:
    """One bootstrap draw of one dataset, read as counts per run.

    ``indices`` are the drawn rows of ``data``, at which u_max reads the
    coefficients given to :func:`resample` (the source's).  ``counts[k]`` holds
    the draws of run ``k`` of ``data.runs`` that are negative and positive; a
    run the draw missed stays as an empty run, so the draw keeps the dataset's
    own run numbering.  ``starts`` and ``positives_before`` lay the draw's runs
    out as in :class:`~utileval.core.ScoreRuns`.  :func:`resample` makes one
    per dataset and draw; every array is computed on first use.
    """

    def __init__(self, source: _Source, indices: np.ndarray) -> None:
        self._source = source
        self.data = source.data
        self.indices = indices

    @cached_property
    def counts(self) -> np.ndarray:
        size = self.data.runs.starts.size - 1
        keys = self._source.key[self.indices]
        return np.bincount(keys, minlength=2 * size).reshape(size, 2)

    @cached_property
    def drawn(self) -> np.ndarray:
        """Draws per run."""
        return self.counts[:, 0] + self.counts[:, 1]

    @cached_property
    def _before(self) -> np.ndarray:
        # row k: the negatives and the positives drawn before run k
        before = np.empty((self.counts.shape[0] + 1, 2), dtype=self.counts.dtype)
        before[0] = 0
        np.cumsum(self.counts, axis=0, out=before[1:])
        return before

    @cached_property
    def starts(self) -> np.ndarray:
        return self._before[:, 0] + self._before[:, 1]

    @cached_property
    def positives_before(self) -> np.ndarray:
        return self._before[:, 1]


def _whole(data: LabeledScores, coefficients: CostCoefficients | None) -> Replicate:
    """The draw of every row once: statistics read the dataset itself."""
    return Replicate(_Source(data, coefficients), np.arange(data.n))


def _auc(replicate: Replicate, bins: int = 10) -> float:
    n_pos = replicate.positives_before[-1]
    if n_pos == 0 or n_pos == replicate.data.n:
        raise DegenerateDataError("AUC undefined: dataset contains only one class")
    return float(
        auc_from_runs(replicate.starts, replicate.positives_before, replicate.counts[:, 1])
    )


def _accuracy(replicate: Replicate, bins: int = 10) -> float:
    # the rule score >= 0.5 accepts every run from half_run on
    tp, _, _, tn = rule_outcomes(
        replicate.starts, replicate.positives_before, replicate._source.half_run
    )
    return float((tp + tn) / replicate.data.n)


def _ece(replicate: Replicate, bins: int = 10) -> float:
    # metrics.ece of metrics.calibration_curve on the drawn dataset, summed in
    # the same order, from the running sums at the calibration block edges
    edges = replicate._source.blocks(bins)[1]
    sorted_scores = np.repeat(replicate.data.runs.values, replicate.drawn)
    n = replicate.data.n
    total = 0.0
    for count, observed, predicted in calibration_block_stats(
        sorted_scores, replicate.starts, replicate.positives_before, edges
    ):
        total += (count / n) * abs(observed - predicted)
    return total


def _mean_of_drawn(terms: np.ndarray, replicate: Replicate) -> float:
    # the sum and division of np.mean, without its Python wrapper
    return float(terms[replicate.indices].sum() / replicate.data.n)


def _max_utility(replicate: Replicate, bins: int = 10) -> float:
    source = replicate._source
    coefficients = source.coefficients
    if coefficients is None:
        raise ValidationError("the u_max metric requires cost coefficients")
    if coefficients.is_constant:
        return max_utilities(replicate.starts, replicate.positives_before, [coefficients])[0]
    # the drawn rows' coefficients are the source's, so their exact
    # contributions are the source's, made once and gathered per draw; the
    # drawn dataset's candidate rules start at the runs the draw hit, then the
    # all-reject tail
    idx, drawn = replicate.indices, replicate.drawn
    run = np.append(np.flatnonzero(drawn), drawn.size)
    sums = drawn_run_sums(
        source.digit_positions, idx, replicate.data.runs.run_of_row[idx], drawn.size
    )
    return per_sample_max(source.digits, sums, run)


# name -> statistic(replicate, bins=10), each equal bit for bit
# to the metric of the drawn dataset
BOOTSTRAP_METRICS = {
    "auc": _auc,
    "brier": lambda r, bins=10: _mean_of_drawn(r._source.brier_terms, r),
    "accuracy": _accuracy,
    "ece": _ece,
    "net_trust": lambda r, bins=10: _mean_of_drawn(r._source.net_trust_terms, r),
    "u_max": _max_utility,
}


def check_replicates(replicates: int) -> None:
    """Refuse a replicate count below 0 or above :data:`MAX_REPLICATES`."""
    if not 0 <= replicates <= MAX_REPLICATES:
        raise ValidationError(
            f"replicates must be >= 0 and <= {MAX_REPLICATES}, got {replicates}"
        )


def resample(datasets, statistics, replicates: int, seed: int, coefficients=None):
    """Bootstrap every statistic on every row-aligned dataset from one stream.

    Each step draws ``integers(0, n, n)`` row indices from the stream seeded
    with ``SeedSequence([seed])`` and calls ``statistics[name](replicate)``
    for every dataset and statistic that still has fewer than ``replicates``
    values, where ``replicate`` is the dataset's :class:`Replicate` of the
    draw (shared by the dataset's statistics), whose source holds
    ``coefficients``.  A statistic raising :class:`DegenerateDataError` skips
    the draw, which counts as one of its redraws; 100 redraws per replicate
    exhaust its budget.  Returns ``(values, redraws)``: per dataset, a
    mapping from statistic name to its replicate array (one row per
    replicate) and to its redraw count.  ``replicates`` must pass
    :func:`check_replicates`, and every dataset and per-sample
    ``coefficients`` must hold ``n`` rows.
    """
    check_replicates(replicates)
    rng = np.random.default_rng(np.random.SeedSequence([as_integer(seed, "seed")]))
    n = datasets[0].n
    for data in datasets[1:]:
        if data.n != n:
            raise ValidationError(f"datasets must be row-aligned, got {n} and {data.n} rows")
    own = None if coefficients is None else coefficients.n_samples
    if own is not None and own != n:
        raise ValidationError(f"coefficient length {own} does not match data length {n}")
    sources = [_Source(data, coefficients) for data in datasets]
    values = [{name: [] for name in statistics} for _ in datasets]
    redraws = [dict.fromkeys(statistics, 0) for _ in datasets]
    pending = [(i, name) for i in range(len(datasets)) for name in statistics]
    while pending := [(i, name) for i, name in pending if len(values[i][name]) < replicates]:
        idx = rng.integers(0, n, n)
        draws = [Replicate(source, idx) for source in sources]
        for i, name in pending:
            try:
                values[i][name].append(statistics[name](draws[i]))
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
    low, high = percentiles(values, [tail, 100.0 - tail])
    return float(low), float(high)


def percentiles(values, q) -> np.ndarray:
    """``np.percentile(values, q, axis=0)`` with the default ``"linear"``
    method, bit for bit, for at least one row of float64 ``values`` (1-D or
    2-D) and a sequence ``q`` of percentiles in [0, 100].

    NumPy picks the partition positions with ``np.unique``, which imports
    ``numpy.ma`` on first use; this takes the same sorted set of positions
    without it.  The same partition of the same copy puts the same element at
    each position, so ties of -0.0 and 0.0 resolve as in NumPy, and a NaN
    makes its column NaN.
    """
    arr = np.array(values, dtype=np.float64, order="C")
    n = arr.shape[0]
    virtual = (n - 1) * (np.asarray(q, dtype=np.float64) / 100)
    below = np.floor(virtual)
    above = below + 1
    # at or past the last row both neighbours are the last row
    last = virtual >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    kth = sorted({0, -1, *below.tolist(), *above.tolist()})
    arr.partition(np.array(kth, dtype=np.intp), axis=0)
    gamma = (virtual - below).reshape(virtual.shape + (1,) * (arr.ndim - 1))
    low, high = arr[below], arr[above]
    step = high - low
    out = low + step * gamma
    np.subtract(high, step * (1 - gamma), out=out, where=gamma >= 0.5)
    np.copyto(out, arr[-1], where=np.isnan(arr[-1]))
    return out


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

    Rows are drawn with replacement; draws on which the metric is
    undefined (a single-class draw for AUC) are redrawn and counted in
    ``redraws``.
    """
    if metric not in BOOTSTRAP_METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of {sorted(BOOTSTRAP_METRICS)}"
        )
    evaluate = partial(BOOTSTRAP_METRICS[metric], bins=bins)
    point = evaluate(_whole(data, coefficients))
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
        _max_utility(_whole(data_a, coefficients)) - _max_utility(_whole(data_b, coefficients)),
        values[0]["u_max"] - values[1]["u_max"],
        config.level,
    )


def sem(values):
    """Standard error of the mean along the first axis: sample standard
    deviation over sqrt(n).

    The SEM of a vector is a float; a 2-D array gives one SEM per column, as a
    list.  An array holding a magnitude above 2**500 is scaled by a power of
    two first, which is exact, so that no square overflows; any other array is
    not scaled.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("sem input values must be numbers") from None
    if arr.ndim not in (1, 2) or arr.shape[0] < 2:
        raise ValidationError(
            f"sem requires at least 2 rows of a vector or 2-D array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("sem input contains a non-finite value")
    exponent = 0
    peak = float(np.max(np.abs(arr), initial=0.0))
    if peak > 2.0**500:
        exponent = math.frexp(peak)[1]
        arr = np.ldexp(arr, -exponent)
    return np.ldexp(arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0]), exponent).tolist()
