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
of the dataset read as the draw of every row once (:func:`drawn_run_sums`),
so no sweep sorts the scores again and every sweep takes O(n log n) time and
O(n) memory.  The per-sample sweep sums exact integers, in any order, as
24-bit digits in int64 (:class:`ContributionDigits`), one digit position at
a time, and divides every rule's total by long division in int64, a block of
rules at a time, rounding as Python's int / int does; the pointwise
evaluator sums Python ints of the same mantissas and divides them as Python
ints, an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CostCoefficients,
    DecisionRule,
    LabeledScores,
    ValidationError,
    as_float,
    as_float_vector,
    confusion_at,
    rule_outcomes,
)
from .ranking import preserves_ranking
from .special import expit, logit

__all__ = [
    "UtilityCurve",
    "empirical_utility",
    "utility_curve",
    "utility_at_thresholds",
    "max_utilities",
    "ContributionDigits",
    "drawn_run_sums",
    "per_sample_max",
    "bayes_threshold",
    "cost_family",
    "age_discounted_coeffs",
    "monotone_transform",
]

def _utility_from_counts(tp, fp, fn, tn, n, a11, a01, a10, a00):
    # shared between the pointwise evaluator (scalars) and the sweep (vectors),
    # and max_utilities sums in the same order; identical operation order
    # keeps them bit-for-bit consistent
    return (a11 * tp - a01 * fp - a10 * fn + a00 * tn) / n


def _mantissas(
    labels: np.ndarray, coefficients: CostCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's utility contribution when predicted positive (row 0) and
    negative (row 1), exactly, as ``mantissa * 2**exponent`` with int64
    mantissas below 2**53 in magnitude."""
    a11, a01, a10, a00 = coefficients.as_vectors(labels.size)
    positive = labels == 1
    values = np.empty((2, labels.size))
    np.copyto(values[0], a11)
    np.negative(a01, out=values[0], where=~positive)
    np.negative(a10, out=values[1], where=positive)
    np.copyto(values[1], a00, where=~positive)
    mantissa, exponent = np.frexp(values, out=(values, None))
    # |mantissa| is 0 or in [0.5, 1), so scaling by 2**53 gives an exact int64
    mantissa *= 2.0**53
    exponent -= 53
    return mantissa.astype(np.int64), exponent


def _contributions(
    labels: np.ndarray, coefficients: CostCoefficients
) -> tuple[list[int], list[int], int]:
    """Per-sample utility contribution when predicted positive / negative, as
    Python ints ``accepted``, ``rejected`` and one shared ``scale``: the mean
    utility of a decision vector whose contributions sum to ``total`` is
    ``total / scale``.  Python's int / int rounds that correctly, subnormal
    results included, and the mean of finite values cannot overflow."""
    mantissa, exponent = _mantissas(labels, coefficients)
    # row i contributes ints[i] * 2**lo exactly; lo <= 0 keeps scale an int
    lo = min(int(exponent.min()), 0)
    ints = [m << s for m, s in zip(mantissa.ravel().tolist(), (exponent - lo).ravel().tolist())]
    return ints[: labels.size], ints[labels.size :], labels.size << -lo


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
    accepted, rejected, scale = _contributions(data.labels, coefficients)
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


def _candidate_thresholds(data: LabeledScores) -> np.ndarray:
    """Every unique score, ascending, then a sentinel just above the largest."""
    values = data.runs.values
    return np.append(values, math.nextafter(float(values[-1]), math.inf))


def _sweep(data: LabeledScores, coefficients: CostCoefficients, run, digits=None) -> np.ndarray:
    """Utility of each rule that accepts every run of ``data.runs`` from ``run[i]`` on,
    or from each run in turn where ``run`` is ``slice(None)``."""
    runs = data.runs
    if coefficients.is_constant:
        c = coefficients
        counts = rule_outcomes(runs.starts, runs.positives_before, run)
        return _utility_from_counts(*counts, data.n, c.a11, c.a01, c.a10, c.a00)
    # the dataset itself is the draw of every row once
    if digits is None:
        digits = ContributionDigits(data.labels, coefficients)
    sums = drawn_run_sums(digits, slice(None), runs.run_of_row, runs.starts.size - 1)
    return _per_sample_sweep(digits, sums, run)


# per-sample totals are summed in signed digits of this many bits: a sum of
# fewer than 2**38 of them is exact in int64
_DIGIT_BITS = 24
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
# rows whose digits at one position are made, or summed, at a time
_ROW_BLOCK = 1 << 16
# zero digits appended below a total before it is divided: a nonzero total
# over n < 2**38 then has a quotient of at least 2**(24 * 4 - 38) = 2**58
_GUARD_DIGITS = 4
# bytes of digits (4 of each total's and 4 of its quotient's a digit) of
# the rules divided at a time
_DIVIDE_BYTES = 1 << 17


class ContributionDigits:
    """Each row's utility contribution when accepted and when rejected, as
    exact integer digits.

    Row ``i`` contributes ``accepted[i] * 2**lo`` when predicted positive and
    ``rejected[i] * 2**lo`` when predicted negative, for integers ``accepted``
    and ``rejected`` (each value's 53-bit mantissa, shifted to the lowest
    exponent ``lo``).  Iterating makes those integers' signed 24-bit digits
    one position ``d`` (worth ``2**(24 * d)``) at a time, as two int32 arrays
    by row: ``accepted``'s digits, and ``rejected``'s minus ``accepted``'s.
    ``positions`` digits hold the total of any ``n`` of the contributions.
    """

    def __init__(self, labels: np.ndarray, coefficients: CostCoefficients) -> None:
        mantissa, shift = _mantissas(labels, coefficients)
        zero = mantissa == 0
        self.n = labels.size
        self.lo = int(shift[~zero].min()) if not zero.all() else 0
        shift -= self.lo
        shift[zero] = 0
        self._shift = shift.astype(np.int16)  # below 2**12, the span of float exponents
        self._negative = mantissa < 0
        self._magnitude = np.abs(mantissa, out=mantissa).view(np.uint64)
        # every |value| * 2**-lo is below 2**(shift + 53), so n of them sum below
        # 2**(max shift + 53 + bit length of n)
        bits = int(shift.max()) + 53 + self.n.bit_length()
        self.positions = -(-bits // _DIGIT_BITS)

    def __iter__(self):
        # unlike a generator's locals, map keeps no position while making the next
        return map(self._position, range(self.positions))

    def _position(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        # bits low .. low + 23 of magnitude << shift: a left shift of at most
        # 24 bits (the wrap past 64 bits leaves the low ones), or a right
        # shift, past every bit from 53 on; made a block of rows at a time,
        # so no uint64 array of every row is made
        low = _DIGIT_BITS * position
        digits = np.empty(self.n, dtype=np.int32), np.empty(self.n, dtype=np.int32)
        for start in range(0, self.n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            offset = self._shift[:, rows] - low
            up = np.clip(offset, 0, _DIGIT_BITS, out=offset).astype(np.uint8)
            offset = np.subtract(low, self._shift[:, rows], out=offset)
            down = np.clip(offset, 0, 63, out=offset).astype(np.uint8)
            bits = self._magnitude[:, rows] << up
            bits >>= down
            bits &= _DIGIT_MASK
            for digit, half in zip(digits, bits):
                digit[rows] = half
        for digit, negative in zip(digits, self._negative):
            np.negative(digit, out=digit, where=negative)
        accepted, rejected = digits
        rejected -= accepted
        return accepted, rejected


def drawn_run_sums(positions, rows, run_of_rows: np.ndarray, size: int):
    """Per digit position of ``positions``, the all-accept total and the
    prefix sums over ``size`` runs of the rejected-minus-accepted digits, of
    the drawn ``rows`` (an index array, where repeats count again, or
    ``slice(None)``, every row once) that lie in runs ``run_of_rows``."""
    for accepted, change in positions:
        total = int(accepted[rows].sum(dtype=np.int64))
        # no digits of a position stay longer than they are read
        del accepted
        prefix = np.zeros(size + 1, dtype=np.int64)
        change = change[rows]
        for start in range(0, change.size, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            # values of the target's dtype keep np.add.at on its fast path
            np.add.at(prefix[1:], run_of_rows[block], change[block].astype(np.int64))
        del change
        np.cumsum(prefix, out=prefix)
        yield total, prefix
        del prefix


def _exact_totals(digits: ContributionDigits, sums, run) -> np.ndarray:
    """The exact total of the rule that accepts every run from ``run[i]`` on
    (from each run in turn where ``run`` is ``slice(None)``), as row ``i`` of
    little-endian two's complement bytes, 3 a digit and one of sign; ``sums``
    yields each digit position's total and prefix sums."""
    for position, (total, prefix) in enumerate(sums):
        if position == 0:
            carry = prefix[run] + total
            totals = np.empty((carry.size, 3 * digits.positions + 1), dtype=np.uint8)
        else:
            carry += prefix[run]
            carry += total
        del prefix
        # the low 3 bytes of the carry are its low digit in two's complement
        low = carry.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :3]
        totals[:, 3 * position : 3 * position + 3] = low
        carry >>= _DIGIT_BITS
    # the total fits in the positions, so what is carried out is 0 or -1
    totals[:, -1] = carry & 0xFF
    return totals


def _means(totals: np.ndarray, n: int, lo: int) -> np.ndarray:
    """``total * 2**lo / n`` for each total of :func:`_exact_totals`, rounded
    to nearest, ties to even, subnormals included, bit for bit as Python's
    int / int is (a negative total that underflows gives -0.0), a block of
    rules at a time."""
    out = np.empty(totals.shape[0])
    width = (totals.shape[1] - 1) // 3 + _GUARD_DIGITS
    step = max(1, _DIVIDE_BYTES // (8 * width))
    for start in range(0, out.size, step):
        out[start : start + step] = _divide(totals[start : start + step], n, lo)
    return out


def _divide(totals: np.ndarray, n: int, lo: int) -> np.ndarray:
    """One block of :func:`_means`: long division of each |total| by ``n``
    in int64, one digit at a time from the top, then the quotient's top 54
    bits rounded half to even, with a sticky bit for every bit below."""
    rules, positions = totals.shape[0], (totals.shape[1] - 1) // 3
    negative = totals[:, -1] != 0
    # digit i of a rule: the 4 bytes from its byte 3i on, less the top one
    digits = np.ndarray((rules, positions), "<u4", totals, strides=(totals.strides[0], 3))
    digits = digits & np.uint32(_DIGIT_MASK)
    # a negative total's magnitude, without a carry: 0 below the total's
    # lowest nonzero digit d, 2**24 - d at it and 0xFFFFFF - d above it
    lowest = np.argmax(digits != 0, axis=1)
    flip = np.arange(positions) >= lowest[:, None]
    flip &= negative[:, None]
    np.subtract(np.uint32(_DIGIT_MASK), digits, out=digits, where=flip)
    digits.ravel()[np.arange(0, digits.size, positions) + lowest] += negative
    width = positions + _GUARD_DIGITS
    # row j holds the quotient's digit worth 2**(24 * (positions - 1 - j) + lo);
    # three zero rows below the last pad the window read below
    quotient = np.zeros((width + 3, rules), dtype=np.int32)
    remainder = np.zeros(rules, dtype=np.int64)
    product = np.empty(rules, dtype=np.int64)
    for j in range(width):
        # remainder < n <= 2**38, so remainder * 2**24 + digit < 2**62
        remainder <<= _DIGIT_BITS
        if j < positions:
            remainder += digits[:, positions - 1 - j]
        np.floor_divide(remainder, n, out=quotient[j])
        remainder -= np.multiply(quotient[j], n, out=product, dtype=np.int64)
    # the quotient's four digits from its top nonzero one, which has ``bits``
    # bits; a zero total reads zeros
    nonzero = quotient[:width] != 0
    top = np.argmax(nonzero, axis=0)
    first = top * rules + np.arange(rules)
    window = np.take(quotient, first + np.arange(0, 4 * rules, rules)[:, None]).astype(np.int64)
    sticky = np.count_nonzero(nonzero, axis=0) > np.count_nonzero(window, axis=0)
    sticky |= remainder != 0
    bits = np.frexp(window[0].astype(np.float64))[1].astype(np.int64)
    # the window's top 54 of its 72 + bits bits
    high = window[0] << _DIGIT_BITS | window[1]
    low = window[2] << _DIGIT_BITS | window[3]
    head = high << (30 - bits) | low >> (bits + 18)
    sticky |= low & ((1 << (bits + 18)) - 1) != 0
    # the mean lies in [2**(scale - 1), 2**scale); a subnormal one keeps only
    # its bits from 2**-1074 up
    scale = _DIGIT_BITS * (positions - 1 - top) + bits + lo
    extra = np.clip(-1021 - scale, 0, 54)
    sticky |= head & ((1 << extra) - 1) != 0
    head >>= extra
    mantissa = head >> 1
    mantissa += head & 1 & (sticky | mantissa)
    out = np.ldexp(mantissa.astype(np.float64), scale - 53 + extra)
    return np.negative(out, out=out, where=negative)


def _per_sample_sweep(digits: ContributionDigits, sums, run) -> np.ndarray:
    """Utility of each rule that accepts every run from ``run[i]`` on (from
    each run in turn where ``run`` is ``slice(None)``), under the per-row
    contributions ``digits``; ``sums`` yields, per digit position,
    the all-accept total of the rows and the prefix sums over their runs of
    the rejected-minus-accepted digits (:func:`drawn_run_sums`).  The last
    run, past every row, is the all-reject rule.

    Each value is the correctly rounded mean of the rows' exact contributions.
    Runs no row lies in may stand in the run list: the rule that starts at an
    empty run is the rule that starts at the run after it.
    """
    return _means(_exact_totals(digits, sums, run), digits.n, digits.lo)


def per_sample_max(digits: ContributionDigits, sums, run) -> float:
    """The first maximum of :func:`_per_sample_sweep`, bit for bit, from one
    division: correctly rounded division is monotone, so the largest exact
    total has the largest mean."""
    totals = _exact_totals(digits, sums, run)
    # the largest total by its bytes from the top, the sign byte signed; the
    # candidates stay in rule order, so the first is the first maximum
    sign = totals[:, -1].view(np.int8)
    rows = np.flatnonzero(sign == sign.max())
    for byte in range(totals.shape[1] - 2, -1, -1):
        if rows.size == 1:
            break
        column = totals[rows, byte]
        rows = rows[column == column.max()]
    best = _means(totals[rows[:1]], digits.n, digits.lo)[0]
    if best == 0.0:
        # a zero maximum may tie with a -0.0 of a negative total, and the
        # first maximum sets its sign, as in utility_curve
        utilities = _means(totals, digits.n, digits.lo)
        best = utilities[np.argmax(utilities)]
    return float(best)


def utility_curve(
    data: LabeledScores, coefficients: CostCoefficients, digits: ContributionDigits | None = None
) -> UtilityCurve:
    """Evaluate the utility of every achievable threshold rule on ``data``.

    ``digits``, for per-sample ``coefficients``, is
    ``ContributionDigits(data.labels, coefficients)`` when it is made already,
    as for several score columns of one labelled sample.
    """
    thresholds = _candidate_thresholds(data)
    # candidate k accepts every run from k on
    utilities = _sweep(data, coefficients, slice(None), digits)
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
    n = int(starts[-1])
    # the numerator of _utility_from_counts is summed in its order, in place
    tp, fp, fn, tn = rule_outcomes(starts, positives_before)
    totals, term = np.empty_like(tp), np.empty_like(tp)
    out = []
    for c in coefficient_sets:
        if not c.is_constant:
            raise ValidationError("max_utilities requires constant coefficients")
        np.multiply(c.a11, tp, out=totals)
        totals -= np.multiply(c.a01, fp, out=term)
        totals -= np.multiply(c.a10, fn, out=term)
        totals += np.multiply(c.a00, tn, out=term)
        # correctly rounded division by n > 0 is monotone, so the largest
        # numerator gives the largest utility; a zero maximum may tie with a
        # -0.0 from a negative numerator that underflowed, so it takes the
        # first maximum, as utility_curve does
        best = totals.max() / n
        if best == 0.0:
            totals /= n
            best = totals[np.argmax(totals)]
        out.append(float(best))
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

    Requires an ``age`` context column in years on [0, 100] (a
    :class:`~utileval.dataio.FeatureTable` offers its own).  Correct outcomes
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
