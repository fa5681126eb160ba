"""Ranking and calibration metrics for scored binary data.

Two deliberately independent AUC estimators are provided: a direct pairwise
comparison (the definition, quadratic in the class sizes) and a mid-rank
estimator (the fast path).  They agree to within accumulated rounding error on
every dataset with both classes present, and the test suite holds them to 1e-12
of each other.

The mid-rank AUC, the ROC points and the calibration bins read the dataset's
one sort, ``LabeledScores.runs``; none of them sorts the scores itself.  The
AUC itself is :func:`auc_from_runs`, which also reads runs built without a
sort (kNN cross-validation bins its integer neighbour counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfusionCounts,
    DecisionRule,
    DegenerateDataError,
    LabeledScores,
    ValidationError,
    confusion_at,
    rule_outcomes,
)

__all__ = [
    "auc_pairwise",
    "auc_rank",
    "auc_from_runs",
    "roc_points",
    "brier",
    "brier_terms",
    "accuracy",
    "CalibrationBin",
    "CalibrationCurve",
    "calibration_curve",
    "calibration_blocks",
    "calibration_block_stats",
    "check_bins",
    "MAX_BINS",
    "ece",
    "net_trust",
    "net_trust_terms",
]

_PAIRWISE_CHUNK = 512

# above 2**53 not every bin count is a float, so ``scores * bins`` would bin
# by a rounded count
MAX_BINS = 2**53


def _split_classes(data: LabeledScores) -> tuple[np.ndarray, np.ndarray]:
    positive = data.scores[data.labels == 1]
    negative = data.scores[data.labels == 0]
    if positive.size == 0 or negative.size == 0:
        raise DegenerateDataError(
            "AUC undefined: dataset contains only one class"
        )
    return positive, negative


def auc_pairwise(data: LabeledScores) -> float:
    """AUC as the mean pairwise comparison outcome.

    Every (positive, negative) score pair contributes 1 when the positive
    outscores the negative, 1/2 on a tie, and 0 otherwise.  Quadratic cost,
    chunked to bound memory; intended as the reference implementation.
    """
    positive, negative = _split_classes(data)
    total = 0.0
    for start in range(0, positive.size, _PAIRWISE_CHUNK):
        block = positive[start : start + _PAIRWISE_CHUNK, None] - negative[None, :]
        total += float(np.count_nonzero(block > 0)) + 0.5 * float(
            np.count_nonzero(block == 0)
        )
    return total / (float(positive.size) * float(negative.size))


def auc_rank(data: LabeledScores) -> float:
    """AUC via the rank-sum identity with mid-ranks for ties."""
    if data.n_positive == 0 or data.n_negative == 0:
        raise DegenerateDataError("AUC undefined: dataset contains only one class")
    return float(auc_from_runs(data.runs.starts, data.runs.positives_before))


def auc_from_runs(starts, positives_before, positives=None):
    """Mid-rank AUC from tie runs in ascending score order, along the last axis.

    ``starts`` and ``positives_before`` are laid out as in
    :class:`~utileval.core.ScoreRuns`: each run's first sorted position and
    the positives sorted before it, followed by the row and positive totals.
    ``positives`` may give each run's positives, the steps of
    ``positives_before``, when they are at hand.  A 2-D pair gives one AUC per
    row.  Empty runs add nothing, so empty histogram bins may stand in the run
    list.  Both classes must be present.
    """
    if positives is None:
        positives = np.diff(positives_before, axis=-1)
    # a tie run occupying sorted positions [start, end) has mid-rank
    # (start + 1 + end) / 2 in 1-based terms; the sum is exact in integers
    twice_ranks = starts[..., :-1] + starts[..., 1:] + 1
    rank_sum = np.matmul(positives[..., None, :], twice_ranks[..., :, None])[..., 0, 0] / 2
    n_pos = positives_before[..., -1]
    n_neg = starts[..., -1] - n_pos
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / np.multiply(n_pos, n_neg, dtype=np.float64)


# runs whose rule counts roc_points makes at a time
_ROC_BLOCK = 1 << 16


def roc_points(data: LabeledScores) -> np.ndarray:
    """ROC curve as an (m, 2) array of (fpr, tpr) points.

    One point per unique score used as an inclusive threshold, traversed from
    high to low, preceded by (0, 0); the lowest threshold accepts everything so
    the final point is (1, 1).  Trapezoidal area under these points equals the
    mid-rank AUC.
    """
    if data.n_positive == 0 or data.n_negative == 0:
        raise DegenerateDataError("ROC undefined: dataset contains only one class")
    runs = data.runs
    points = np.zeros((runs.starts.size, 2))
    # one point per run, from the highest score down: run k is row -1 - k,
    # and its rates are divided straight into the rows a block of runs at a time
    by_run = points[:0:-1]
    for start in range(0, by_run.shape[0], _ROC_BLOCK):
        block = slice(start, min(start + _ROC_BLOCK, by_run.shape[0]))
        tp, fp, _, _ = rule_outcomes(runs.starts, runs.positives_before, block)
        np.divide(fp, data.n_negative, out=by_run[block, 0])
        np.divide(tp, data.n_positive, out=by_run[block, 1])
    return points


def brier_terms(data: LabeledScores) -> np.ndarray:
    """Per-row squared difference between score and label."""
    diff = data.scores - data.labels
    return diff * diff


def brier(data: LabeledScores) -> float:
    """Mean squared difference between score and label."""
    return float(np.mean(brier_terms(data)))


def accuracy(data: LabeledScores, rule: DecisionRule) -> float:
    """Fraction of correct predictions under ``rule``."""
    counts: ConfusionCounts = confusion_at(data, rule)
    return (counts.tp + counts.tn) / counts.n


@dataclass(frozen=True)
class CalibrationBin:
    bin_index: int
    mean_predicted: float
    observed_frequency: float
    count: int


@dataclass(frozen=True)
class CalibrationCurve:
    """Occupied equal-width score bins with their observed positive rates."""

    bins: tuple[CalibrationBin, ...]
    n_bins: int
    n: int


def calibration_curve(data: LabeledScores, bins: int = 10) -> CalibrationCurve:
    """Equal-width calibration bins over [0, 1]; empty bins are omitted.

    Samples are processed in score order so the per-bin sums — and therefore
    the curve and anything derived from it — are exactly invariant to
    permutations of the input rows.  ``bins`` may be at most
    :data:`MAX_BINS`; only occupied bins are visited, so the cost does not
    grow with ``bins``.
    """
    runs = data.runs
    indices, edges = calibration_blocks(runs.values, bins)
    # every block of the dataset's own runs holds a row
    blocks = calibration_block_stats(runs.sorted_scores, runs.starts, runs.positives_before, edges)
    out = tuple(
        CalibrationBin(int(index), mean_predicted, observed_frequency, count)
        for index, (count, observed_frequency, mean_predicted) in zip(indices, blocks, strict=True)
    )
    return CalibrationCurve(bins=out, n_bins=int(bins), n=data.n)


def check_bins(bins: int) -> None:
    """Refuse a calibration bin count below 2 or above :data:`MAX_BINS`."""
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    if bins > MAX_BINS:
        raise ValidationError(f"bins must be <= 2**53 ({MAX_BINS}), got {bins}")


def calibration_blocks(values, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of ascending run ``values`` cut into blocks that share a bin.

    Equal scores share a bin, so each occupied bin is a block of whole runs,
    ending where the bin index changes.  Returns the bin index of each block
    and the run where each block starts, followed by the run count.
    """
    check_bins(bins)
    run_bin = np.minimum((values * bins).astype(np.int64), bins - 1)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(run_bin)) + 1, [run_bin.size]])
    return run_bin[edges[:-1]], edges


def calibration_block_stats(sorted_scores, starts, positives_before, edges):
    """Yield ``(count, observed_frequency, mean_predicted)`` of each non-empty
    block that starts at the runs ``edges`` (see :func:`calibration_blocks`), for
    runs laid out as in :class:`~utileval.core.ScoreRuns` over ``sorted_scores``;
    the mean sums the block's slice of ``sorted_scores``, so row order changes no bit."""
    bounds = starts[edges].tolist()
    positives = positives_before[edges].tolist()
    for start, end, before, after in zip(bounds, bounds[1:], positives, positives[1:]):
        count = end - start
        if count:
            yield count, (after - before) / count, float(sorted_scores[start:end].sum() / count)


def ece(curve: CalibrationCurve) -> float:
    """Expected calibration error: count-weighted mean absolute bin gap."""
    if curve.n == 0 or not curve.bins:
        raise ValidationError("calibration curve is empty")
    total = 0.0
    for b in curve.bins:
        total += (b.count / curve.n) * abs(b.observed_frequency - b.mean_predicted)
    return total


def net_trust_terms(data: LabeledScores) -> np.ndarray:
    """Per-row contribution to :func:`net_trust`."""
    predicted = data.scores >= 0.5
    confidence = np.where(predicted, data.scores, 1.0 - data.scores)
    correct = predicted == (data.labels == 1)
    return np.where(correct, confidence, 1.0 - confidence)


def net_trust(data: LabeledScores) -> float:
    """Confidence-weighted agreement score.

    Each sample is predicted at threshold 0.5; its confidence is the predicted
    class probability (score for a positive call, one minus score otherwise).
    Correct predictions contribute the confidence, incorrect ones contribute
    one minus the confidence; the result is the mean contribution.
    """
    return float(np.mean(net_trust_terms(data)))
