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
)

__all__ = [
    "auc_pairwise",
    "auc_rank",
    "auc_from_runs",
    "roc_points",
    "brier",
    "accuracy",
    "CalibrationBin",
    "CalibrationCurve",
    "calibration_curve",
    "MAX_BINS",
    "ece",
    "net_trust",
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


def auc_from_runs(starts, positives_before):
    """Mid-rank AUC from tie runs in ascending score order, along the last axis.

    ``starts`` and ``positives_before`` are laid out as in
    :class:`~utileval.core.ScoreRuns`: each run's first sorted position and
    the positives sorted before it, followed by the row and positive totals.
    A 2-D pair gives one AUC per row.  Empty runs add nothing, so empty
    histogram bins may stand in the run list.  Both classes must be present.
    """
    positives = np.diff(positives_before, axis=-1)
    # a tie run occupying sorted positions [start, end) has mid-rank
    # (start + 1 + end) / 2 in 1-based terms; the sum is exact in integers
    twice_ranks = starts[..., :-1] + starts[..., 1:] + 1
    rank_sum = np.matmul(positives[..., None, :], twice_ranks[..., :, None])[..., 0, 0] / 2
    n_pos = positives_before[..., -1]
    n_neg = starts[..., -1] - n_pos
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / np.multiply(n_pos, n_neg, dtype=np.float64)


def roc_points(data: LabeledScores) -> np.ndarray:
    """ROC curve as an (m, 2) array of (fpr, tpr) points.

    One point per unique score used as an inclusive threshold, traversed from
    high to low, preceded by (0, 0); the lowest threshold accepts everything so
    the final point is (1, 1).  Trapezoidal area under these points equals the
    mid-rank AUC.
    """
    if data.n_positive == 0 or data.n_negative == 0:
        raise DegenerateDataError("ROC undefined: dataset contains only one class")
    # one point per run, from the highest score down
    accepted, tp = data.runs.accepted(np.arange(data.runs.starts.size - 2, -1, -1))
    tpr = tp / data.n_positive
    fpr = (accepted - tp) / data.n_negative
    return np.concatenate([[[0.0, 0.0]], np.column_stack([fpr, tpr])])


def brier(data: LabeledScores) -> float:
    """Mean squared difference between score and label."""
    diff = data.scores - data.labels
    return float(np.mean(diff * diff))


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
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    if bins > MAX_BINS:
        raise ValidationError(f"bins must be <= 2**53 ({MAX_BINS}), got {bins}")
    runs = data.runs
    # equal scores share a bin, so each occupied bin is a block of whole runs,
    # ending where the bin index changes, and a contiguous slice of the sorted
    # scores
    run_bin = np.minimum((runs.values * bins).astype(np.int64), bins - 1)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(run_bin)) + 1, [run_bin.size]])
    out = []
    for first, last in zip(edges[:-1], edges[1:]):
        start, end = runs.starts[first], runs.starts[last]
        count = int(end - start)
        positives = runs.positives_before[last] - runs.positives_before[first]
        out.append(
            CalibrationBin(
                bin_index=int(run_bin[first]),
                mean_predicted=float(runs.sorted_scores[start:end].sum() / count),
                observed_frequency=float(positives / count),
                count=count,
            )
        )
    return CalibrationCurve(bins=tuple(out), n_bins=int(bins), n=data.n)


def ece(curve: CalibrationCurve) -> float:
    """Expected calibration error: count-weighted mean absolute bin gap."""
    if curve.n == 0 or not curve.bins:
        raise ValidationError("calibration curve is empty")
    total = 0.0
    for b in curve.bins:
        total += (b.count / curve.n) * abs(b.observed_frequency - b.mean_predicted)
    return total


def net_trust(data: LabeledScores) -> float:
    """Confidence-weighted agreement score.

    Each sample is predicted at threshold 0.5; its confidence is the predicted
    class probability (score for a positive call, one minus score otherwise).
    Correct predictions contribute the confidence, incorrect ones contribute
    one minus the confidence; the result is the mean contribution.
    """
    predicted = data.scores >= 0.5
    confidence = np.where(predicted, data.scores, 1.0 - data.scores)
    correct = predicted == (data.labels == 1)
    trust = np.where(correct, confidence, 1.0 - confidence)
    return float(np.mean(trust))
