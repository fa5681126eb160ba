"""Synthetic three-scorer study on a known generative model.

Each realization draws three independent standard normal features and labels
from a logistic model, then scores the samples with three classifiers that are
interesting to compare:

``bayes``
    the true conditional positive probability;
``shifted``
    the same log-odds plus a constant — perfectly order-preserving but
    systematically miscalibrated;
``coarse``
    the calibrated probability given only two of the three features — well
    calibrated but strictly less informative.

Normal variates are produced by applying the inverse normal CDF
(:func:`utileval.special.ndtri`) to uniforms from a PCG64 generator
("inverse-cdf" method), and each realization derives its own stream from
(master_seed, realization_index), so results are bit-reproducible for a fixed
configuration no matter how realizations are scheduled.  The drawing order
within a realization is fixed: the three feature vectors, then one uniform
vector for the labels.

:func:`simulate` draws each realization once and fills every table of the
study from it; :func:`run_study` and :func:`utility_threshold_curves` call it.
The draws depend on NumPy alone: its generator and its ``exp`` and ``log``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CostCoefficients, LabeledScores, ValidationError, as_integer, rule_outcomes
from .metrics import brier, calibration_curve, check_bins, ece, net_trust
from .special import expit, ndtri
from .stats import percentiles
from .utility import utility_at_thresholds, utility_curve

__all__ = [
    "CLASSIFIERS",
    "NORMAL_METHOD",
    "BAND_PERCENTILES",
    "SimStudyConfig",
    "Realization",
    "StudySummary",
    "ThresholdBands",
    "generate_realization",
    "simulate",
    "run_study",
    "utility_threshold_curves",
]

CLASSIFIERS = ("bayes", "shifted", "coarse")
NORMAL_METHOD = "inverse-cdf"
BAND_PERCENTILES = (16.0, 50.0, 84.0)

# size limits, checked before any allocation; per scorer, the pooled calibration
# keeps one entry (a few hundred bytes) per realization and occupied bin
MAX_SAMPLES = 10_000_000
MAX_REALIZATIONS = 1_000_000
MAX_GRID_CELLS = 4_000_000
MAX_CALIBRATION_CELLS = 1_000_000

_METRICS = (
    "max_utility",
    "accuracy_best",
    "accuracy_at_half",
    "brier",
    "ece",
    "net_trust",
)


@dataclass(frozen=True)
class SimStudyConfig:
    n_samples: int = 15000
    n_realizations: int = 400
    master_seed: int = 0
    coefficients: CostCoefficients = field(default_factory=CostCoefficients.zero_one)

    def __post_init__(self) -> None:
        for name in ("n_samples", "n_realizations", "master_seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if not 10 <= self.n_samples <= MAX_SAMPLES:
            raise ValidationError(
                f"n_samples must be in [10, {MAX_SAMPLES}], got {self.n_samples}"
            )
        if not 1 <= self.n_realizations <= MAX_REALIZATIONS:
            raise ValidationError(
                f"n_realizations must be in [1, {MAX_REALIZATIONS}], got {self.n_realizations}"
            )


@dataclass(frozen=True)
class Realization:
    """Scores of the three classifiers and the sampled labels."""

    bayes_scores: np.ndarray
    shifted_scores: np.ndarray
    coarse_scores: np.ndarray
    labels: np.ndarray

    def dataset(self, classifier: str) -> LabeledScores:
        if classifier not in CLASSIFIERS:
            raise ValidationError(
                f"unknown classifier {classifier!r}; expected one of {CLASSIFIERS}"
            )
        return LabeledScores(
            scores=getattr(self, f"{classifier}_scores"), labels=self.labels
        )


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n)
    # rng.random can return exactly 0.0; nudge into (0, 1) for the inverse CDF
    return ndtri(np.where(u > 0.0, u, 2.0**-54))


def generate_realization(config: SimStudyConfig, index: int) -> Realization:
    """Draw realization ``index`` of the study, deterministically."""
    if index < 0 or index >= config.n_realizations:
        raise ValidationError(
            f"realization index {index} outside [0, {config.n_realizations})"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, int(index)])
    )
    n = config.n_samples
    x1, x2, x3 = (_standard_normals(rng, n) for _ in range(3))
    log_odds = 0.5 * x1 - x2 + 0.5 * x3
    bayes = expit(log_odds)
    shifted = expit(log_odds + 1.0)
    coarse = expit(0.5 * x1 - x2)
    labels = (rng.random(n) < bayes).astype(np.int64)
    return Realization(
        bayes_scores=bayes,
        shifted_scores=shifted,
        coarse_scores=coarse,
        labels=labels,
    )


@dataclass(frozen=True)
class StudySummary:
    """Per-realization metric values and their percentile bands.

    ``values[classifier][metric]`` is a vector with one entry per realization;
    ``bands[classifier][metric]`` is the (16th, 50th, 84th) percentile triple.
    ``accuracy_best`` is the accuracy at the accuracy-maximizing threshold
    (identical to ``max_utility`` when the configured coefficients are the
    accuracy coefficients); ``accuracy_at_half`` fixes the threshold at 0.5.
    """

    config: SimStudyConfig
    normal_method: str
    values: dict[str, dict[str, np.ndarray]]
    positive_rate: np.ndarray
    bands: dict[str, dict[str, tuple[float, float, float]]]


@dataclass(frozen=True)
class ThresholdBands:
    """Pointwise utility-versus-threshold summary across realizations.

    ``stats[classifier]`` holds ``mean``, ``p16`` and ``p84`` vectors aligned
    with ``thresholds``.
    """

    thresholds: np.ndarray
    coefficients: CostCoefficients
    stats: dict[str, dict[str, np.ndarray]]


def _mean_and_band(block: np.ndarray) -> tuple:
    """Mean, 16th and 84th percentile over the realizations (axis 0)."""
    p16, p84 = percentiles(block, [16.0, 84.0])
    return block.mean(axis=0), p16, p84


def _pooled_bin(bin_index: int, bins: list) -> tuple:
    mean, p16, p84 = _mean_and_band(np.array([b.observed_frequency for b in bins]))
    predicted = np.mean([b.mean_predicted for b in bins])
    count = np.mean([b.count for b in bins])
    return (bin_index, float(predicted), float(mean), float(p16), float(p84), float(count))


def simulate(
    config: SimStudyConfig, curve_coefficients=(), grid_size: int = 201, bins: int = 10
) -> tuple[StudySummary, tuple[ThresholdBands, ...], dict[str, list[tuple]]]:
    """Draw every realization once and fill every table of the study from it.

    Each scorer's dataset, and so its one sort, feeds the metric series, one
    ``grid_size``-point threshold grid over [0, 1] (a :class:`ThresholdBands`)
    per ``curve_coefficients`` entry, and the ``bins``-bin calibration.
    Returns ``(summary, curves, calibration)``; ``calibration[classifier]``
    holds ``(bin_index, mean_predicted, observed_mean, observed_p16,
    observed_p84, mean_count)`` per bin, pooled over the realizations in it.
    """
    grid_size = as_integer(grid_size, "grid_size")
    bins = as_integer(bins, "bins")
    if grid_size < 2:
        raise ValidationError(f"grid_size must be >= 2, got {grid_size}")
    realizations = config.n_realizations
    occupied = min(bins, config.n_samples)  # calibration bins a realization can occupy
    if realizations * grid_size > MAX_GRID_CELLS or realizations * occupied > MAX_CALIBRATION_CELLS:
        raise ValidationError(
            f"realizations x grid_size must be <= {MAX_GRID_CELLS} and realizations x min(bins, "
            f"n_samples) <= {MAX_CALIBRATION_CELLS}, got {realizations} x {grid_size}, {occupied}"
        )
    check_bins(bins)
    zero_one = CostCoefficients.zero_one()
    reuse_sweep = config.coefficients.is_constant and config.coefficients == zero_one
    # [classifier, metric, realization] and [curve, classifier, realization, threshold]
    series = np.empty((len(CLASSIFIERS), len(_METRICS), realizations))
    grids = np.empty((len(curve_coefficients), len(CLASSIFIERS), realizations, grid_size))
    positive_rate = np.empty(realizations)
    thresholds = np.linspace(0.0, 1.0, grid_size)
    pooled: dict = {name: {} for name in CLASSIFIERS}
    for r in range(realizations):
        realization = generate_realization(config, r)
        positive_rate[r] = realization.labels.mean()
        for k, name in enumerate(CLASSIFIERS):
            data = realization.dataset(name)
            u_max = utility_curve(data, config.coefficients).max_utility
            calibration = calibration_curve(data, bins=10)
            tp, _, _, tn = rule_outcomes(
                data.runs.starts, data.runs.positives_before, data.runs.first_accepted(0.5)
            )
            series[k, :, r] = (
                u_max,
                u_max if reuse_sweep else utility_curve(data, zero_one).max_utility,
                (tp + tn) / data.n,
                brier(data),
                ece(calibration),
                net_trust(data),
            )
            for grid, coefficients in zip(grids, curve_coefficients):
                grid[k, r] = utility_at_thresholds(data, coefficients, thresholds)
            if bins != 10:  # else the ECE's curve is the one pooled
                calibration = calibration_curve(data, bins=bins)
            for b in calibration.bins:
                pooled[name].setdefault(b.bin_index, []).append(b)
    values = {name: dict(zip(_METRICS, rows)) for name, rows in zip(CLASSIFIERS, series)}
    bands = {
        name: {metric: tuple(percentiles(s, BAND_PERCENTILES)) for metric, s in per.items()}
        for name, per in values.items()
    }
    curves = tuple(
        ThresholdBands(
            thresholds,
            coefficients,
            {
                name: dict(zip(("mean", "p16", "p84"), _mean_and_band(block)))
                for name, block in zip(CLASSIFIERS, grid)
            },
        )
        for grid, coefficients in zip(grids, curve_coefficients)
    )
    calibration = {
        name: [_pooled_bin(index, pooled[name][index]) for index in sorted(pooled[name])]
        for name in CLASSIFIERS
    }
    return StudySummary(config, NORMAL_METHOD, values, positive_rate, bands), curves, calibration


def run_study(config: SimStudyConfig) -> StudySummary:
    """Evaluate all realizations and summarize with 16/50/84 bands."""
    return simulate(config)[0]


def utility_threshold_curves(
    config: SimStudyConfig,
    coefficients: CostCoefficients | None = None,
    grid_size: int = 201,
) -> ThresholdBands:
    """Mean and 16/84 bands of utility on a fixed threshold grid over [0, 1]."""
    if coefficients is None:
        coefficients = config.coefficients
    return simulate(config, (coefficients,), grid_size)[1][0]
