"""Expected-utility evaluation of threshold rules, and exhaustive sweeps.

The empirical utility of a rule is the sample mean of per-outcome rewards and
penalties.  A sweep evaluates every decision vector a threshold rule can
produce on the data: one candidate threshold per unique score plus a sentinel
strictly above the maximum (the all-reject rule).  Because predictions use the
inclusive >= convention, this candidate set realizes every achievable decision
vector, so the sweep maximum dominates the utility of any real threshold.

Both the sweep and the pointwise evaluator reduce to the same arithmetic
expression over exact integer confusion counts (constant coefficients) or to
the correctly rounded mean of the per-sample contributions, summed exactly as
integers (per-sample coefficients).  The maximum is therefore not merely close
to, but bitwise equal to, the best pointwise value — a property the rest of the
package relies on, e.g. to show that strictly increasing score transforms leave
the attainable utility exactly unchanged.

Every threshold statistic reads the dataset's one sort, ``LabeledScores.runs``:
the candidate thresholds are its run values, the constant-coefficient
confusion counts are its run counts and the per-sample sums are per-run sums
in exact integers, gathered through its run of each row, so no sweep sorts
the scores again and every sweep takes O(n log n) time and O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    CostCoefficients,
    DecisionRule,
    LabeledScores,
    ValidationError,
    as_float,
    as_float_vector,
    confusion_at,
)
from .ranking import preserves_ranking
from .special import expit, logit

__all__ = [
    "UtilityCurve",
    "empirical_utility",
    "candidate_thresholds",
    "utility_curve",
    "utility_at_thresholds",
    "max_utilities",
    "bayes_threshold",
    "cost_family",
    "age_discounted_coeffs",
    "monotone_transform",
]

def _utility_from_counts(tp, fp, fn, tn, n, a11, a01, a10, a00):
    # shared between the pointwise evaluator (scalars) and the sweep (vectors);
    # identical operation order keeps the two bit-for-bit consistent
    return (a11 * tp - a01 * fp - a10 * fn + a00 * tn) / n


def _outcomes(accepted, tp, n: int, n_pos: int):
    """``tp, fp, fn, tn`` of the rules accepting ``accepted`` rows, ``tp`` of
    them positive, out of ``n`` rows with ``n_pos`` positives, as float
    arrays; every count is below 2**53, so each is exact and multiplies as
    its integer would."""
    tp = np.asarray(tp, dtype=np.float64)
    fp = accepted - tp
    return tp, fp, n_pos - tp, n - n_pos - fp


def _contributions(
    data: LabeledScores, coefficients: CostCoefficients
) -> tuple[list[int], list[int], int]:
    """Per-sample utility contribution when predicted positive / negative, as
    integers ``accepted``, ``rejected`` and one shared ``scale``: the mean
    utility of a decision vector whose contributions sum to ``total`` is
    ``total / scale``.  Python's int / int rounds that correctly, subnormal
    results included, and the mean of finite values cannot overflow."""
    a11, a01, a10, a00 = coefficients.as_vectors(data.n)
    positive = data.labels == 1
    values = np.concatenate([np.where(positive, a11, -a01), np.where(positive, -a10, a00)])
    mantissa, exponent = np.frexp(values)
    # |mantissa| is 0 or in [0.5, 1), so scaling by 2**53 gives an exact int64
    mantissa = (mantissa * 2.0**53).astype(np.int64)
    exponent -= 53
    # row i contributes ints[i] * 2**lo exactly; lo <= 0 keeps scale an int
    lo = min(int(exponent.min()), 0)
    ints = [m << s for m, s in zip(mantissa.tolist(), (exponent - lo).tolist())]
    return ints[: data.n], ints[data.n :], data.n << -lo


def empirical_utility(
    data: LabeledScores, coefficients: CostCoefficients, rule: DecisionRule
) -> float:
    """Mean utility of applying ``rule`` to ``data`` under ``coefficients``."""
    if coefficients.is_constant:
        counts = confusion_at(data, rule)
        return float(
            _utility_from_counts(
                counts.tp,
                counts.fp,
                counts.fn,
                counts.tn,
                counts.n,
                coefficients.a11,
                coefficients.a01,
                coefficients.a10,
                coefficients.a00,
            )
        )
    accepted, rejected, scale = _contributions(data, coefficients)
    predicted = rule.apply(data.scores).tolist()
    return sum(a if p else r for a, r, p in zip(accepted, rejected, predicted)) / scale


@dataclass(frozen=True)
class UtilityCurve:
    """Utility at every candidate threshold, in increasing threshold order.

    ``best_threshold`` is the smallest threshold attaining ``max_utility``;
    the final candidate sits strictly above the largest score and encodes the
    all-reject rule.
    """

    thresholds: np.ndarray
    utilities: np.ndarray
    best_threshold: float
    max_utility: float


def candidate_thresholds(data: LabeledScores) -> np.ndarray:
    """Every unique score, ascending, then a sentinel just above the largest."""
    values = data.runs.values
    return np.append(values, math.nextafter(float(values[-1]), math.inf))


def _sweep(data: LabeledScores, coefficients: CostCoefficients, run: np.ndarray) -> np.ndarray:
    """Utility of each rule that accepts every run of ``data.runs`` from ``run[i]`` on."""
    runs = data.runs
    if coefficients.is_constant:
        c = coefficients
        counts = _outcomes(*runs.accepted(run), data.n, data.n_positive)
        return _utility_from_counts(*counts, data.n, c.a11, c.a01, c.a10, c.a00)
    accepted, rejected, scale = _contributions(data, coefficients)
    # per_run[k]: how the all-accept total moves when run k is rejected
    per_run = [0] * (runs.starts.size - 1)
    for k, a, r in zip(runs.run_of_row.tolist(), accepted, rejected):
        per_run[k] += r - a
    change = [0, *accumulate(per_run)]
    total = sum(accepted)
    return np.array([(total + change[k]) / scale for k in run.tolist()])


def utility_curve(data: LabeledScores, coefficients: CostCoefficients) -> UtilityCurve:
    """Evaluate the utility of every achievable threshold rule on ``data``."""
    thresholds = candidate_thresholds(data)
    # candidate k accepts every run from k on
    utilities = _sweep(data, coefficients, np.arange(thresholds.size))
    best = int(np.argmax(utilities))
    return UtilityCurve(
        thresholds=thresholds,
        utilities=utilities,
        best_threshold=float(thresholds[best]),
        max_utility=float(utilities[best]),
    )


def utility_at_thresholds(
    data: LabeledScores, coefficients: CostCoefficients, thresholds
) -> np.ndarray:
    """Empirical utility of ``data`` at each of an arbitrary threshold vector.

    Vectorized but arithmetically identical to calling
    :func:`empirical_utility` once per threshold.
    """
    grid = as_float_vector(thresholds, "thresholds")
    return _sweep(data, coefficients, data.runs.first_accepted(grid))


def max_utilities(starts, positives_before, coefficient_sets) -> list[float]:
    """The largest utility of any threshold rule under each constant set of
    ``coefficient_sets``, for runs laid out as in
    :class:`~utileval.core.ScoreRuns`.

    Each value has the bits of :func:`utility_curve`'s ``max_utility`` on the
    dataset of those runs.  Empty runs may stand in the run list: the rule
    that starts at an empty run is the rule that starts at the run after it.
    """
    n, n_pos = int(starts[-1]), int(positives_before[-1])
    counts = _outcomes(n - starts, n_pos - positives_before, n, n_pos)
    out = []
    for c in coefficient_sets:
        if not c.is_constant:
            raise ValidationError("max_utilities requires constant coefficients")
        out.append(float(_utility_from_counts(*counts, n, c.a11, c.a01, c.a10, c.a00).max()))
    return out


def bayes_threshold(coefficients: CostCoefficients) -> float:
    """Optimal decision threshold on calibrated scores, constant mode only.

    With non-negative rewards/penalties the expected-utility-maximizing rule
    accepts whenever the true positive probability reaches
    ``(a01 + a00) / (a11 + a00 + a10 + a01)``.
    """
    if not coefficients.is_constant:
        raise ValidationError(
            "analytic threshold requires constant coefficients; "
            "per-sample coefficients induce per-sample thresholds"
        )
    numerator = coefficients.a01 + coefficients.a00
    denominator = (
        coefficients.a11 + coefficients.a00 + coefficients.a10 + coefficients.a01
    )
    return numerator / denominator


def cost_family(c: float) -> CostCoefficients:
    """One-parameter cost family: unit rewards for correct decisions, a false
    positive costs ``c`` and a false negative costs ``c / 2``.

    ``c = 0`` reduces to plain accuracy.
    """
    c = as_float(c, "cost parameter")
    if not math.isfinite(c) or c < 0.0:
        raise ValidationError(f"cost parameter must be a finite value >= 0, got {c}")
    return CostCoefficients.constant(1.0, c, 0.5 * c, 1.0)


def age_discounted_coeffs(data: LabeledScores) -> CostCoefficients:
    """Per-sample coefficients whose error costs shrink linearly with age.

    Requires an ``age`` context column in years on [0, 100].  Correct outcomes
    earn a unit reward; a false positive costs ``3 * (1 - age/100)`` and a
    false negative ``0.5 * (1 - age/100)``.
    """
    age = data.context.get("age")
    if age is None:
        raise ValidationError("age-discounted coefficients require an 'age' context column")
    if np.any((age < 0.0) | (age > 100.0)):
        bad = int(np.flatnonzero((age < 0.0) | (age > 100.0))[0])
        raise ValidationError(
            f"age out of range at row {bad}: {age[bad]} not in [0, 100]"
        )
    weight = 1.0 - age / 100.0
    return CostCoefficients(1.0, 3.0 * weight, 0.5 * weight, 1.0)


def monotone_transform(scores: np.ndarray, kind: str, parameter) -> np.ndarray:
    """Apply a strictly increasing map from [0, 1] into [0, 1].

    Kinds: ``"affine"`` with parameter ``(scale, offset)``, ``scale > 0``;
    ``"power"`` with exponent parameter ``> 0``; ``"logit-shift"`` adding a
    constant on the log-odds scale.  The output is checked to preserve the
    exact order and tie structure of the input — a transform that collapses
    distinct floats is rejected — so ranking metrics and attainable utilities
    are provably unchanged.
    """
    scores = as_float_vector(scores, "scores")
    if np.any((scores < 0.0) | (scores > 1.0)):
        raise ValidationError("scores must lie in [0, 1]")
    if kind == "affine":
        try:
            scale, offset = (float(parameter[0]), float(parameter[1]))
        except (TypeError, IndexError) as exc:
            raise ValidationError(
                "affine transform expects a (scale, offset) parameter pair"
            ) from exc
        if not math.isfinite(scale) or scale <= 0.0:
            raise ValidationError(f"affine scale must be > 0, got {scale}")
        out = scale * scores + offset
    elif kind == "power":
        exponent = float(parameter)
        if not math.isfinite(exponent) or exponent <= 0.0:
            raise ValidationError(f"power exponent must be > 0, got {exponent}")
        out = scores**exponent
    elif kind == "logit-shift":
        shift = float(parameter)
        if not math.isfinite(shift):
            raise ValidationError("logit shift must be finite")
        out = expit(logit(scores) + shift)
    else:
        raise ValidationError(f"unknown transform kind {kind!r}")
    if np.any((out < 0.0) | (out > 1.0)) or not np.all(np.isfinite(out)):
        raise ValidationError(
            f"{kind} transform with parameter {parameter!r} leaves [0, 1]"
        )
    if not preserves_ranking(out, scores):
        raise ValidationError(
            f"{kind} transform with parameter {parameter!r} is not strictly "
            "increasing on these scores (distinct values collapsed)"
        )
    return out
