"""Core data model: scored datasets, cost coefficients, decision rules, reports.

Every downstream module shares the same decision convention: a score is turned
into a positive prediction exactly when it is greater than or equal to the
threshold.  Scores are probabilities (or probability-like values) in [0, 1];
thresholds are unrestricted reals so that an "accept nothing" rule can be
expressed by a threshold strictly above every observed score.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

__all__ = [
    "ValidationError",
    "DegenerateDataError",
    "CostCoefficients",
    "ScoreRuns",
    "LabeledScores",
    "DecisionRule",
    "ConfusionCounts",
    "EvalReport",
    "confusion_at",
    "validate",
    "as_float",
    "as_float_vector",
    "as_binary_vector",
    "MAX_COEFFICIENT",
]

# the largest constant coefficient: with int64 outcome counts (below 2**63),
# every product and partial sum of a constant-coefficient utility stays below
# 2**1023, so no float overflows
MAX_COEFFICIENT = 2.0**960


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class DegenerateDataError(ValueError):
    """Raised when data is too degenerate for a statistic to be defined."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _unchecked(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, without ``__post_init__``.

    Only for row subsets of an instance that passed its checks: the subset's
    arrays are slices of arrays that already did, made read-only here.
    """
    instance = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = _readonly(value)
        object.__setattr__(instance, name, value)
    return instance


def as_float(value, name: str) -> float:
    """``value`` as a float; one that is not a number is refused, naming ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def _vector(values, name: str, n: int | None) -> np.ndarray:
    """``values`` as a non-empty 1-D float array, of length ``n`` if given."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        for row, value in enumerate(np.atleast_1d(np.asarray(values, dtype=object))):
            try:
                float(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(
                    f"{name} values must be numbers, got {value!r} at row {row}"
                ) from None
        raise ValidationError(f"{name} values must be numbers") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValidationError(f"length mismatch: {n} rows but {arr.size} {name} values")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def as_float_vector(values, name: str, n: int | None = None) -> np.ndarray:
    """``values`` as a non-empty, finite 1-D float array.

    ``name`` names the vector in every error; with ``n`` the vector must hold
    ``n`` values.  The first non-finite value is reported with its row.
    """
    arr = _vector(values, name, n)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"{name} contains a non-finite value at row {bad}: {arr[bad]}")
    return arr


def as_binary_vector(values, name: str, n: int | None = None) -> np.ndarray:
    """``values`` as a non-empty 1-D int64 array of 0s and 1s.

    The values are compared as floats before any integer cast, so a value no
    integer equals (NaN, inf, 1e300, 0.5) is refused, naming its row, rather
    than cast.  ``name`` and ``n`` are as in :func:`as_float_vector`.
    """
    arr = _vector(values, name, n)
    binary = (arr == 0.0) | (arr == 1.0)
    if not binary.all():
        bad = int(np.argmin(binary))
        note = "" if math.isfinite(arr[bad]) else " (non-finite)"
        raise ValidationError(f"{name} values must be 0 or 1, got {arr[bad]} at row {bad}{note}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class CostCoefficients:
    """Rewards and penalties for the four decision outcomes.

    ``a11`` rewards true positives, ``a00`` true negatives; ``a01`` penalizes
    false positives and ``a10`` false negatives.  All four are non-negative and
    at least one must be strictly positive.  Each may be a scalar (constant
    mode) or a per-sample vector (contextual mode); mixing is allowed and
    scalars broadcast against the vectors.  A scalar may be at most
    :data:`MAX_COEFFICIENT` (``2**960``); per-sample utilities are summed
    exactly, so vectors need no such bound.
    """

    a11: float | np.ndarray
    a01: float | np.ndarray
    a10: float | np.ndarray
    a00: float | np.ndarray

    def __post_init__(self) -> None:
        n = None
        for name in ("a11", "a01", "a10", "a00"):
            raw = getattr(self, name)
            try:
                arr = np.asarray(raw, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                # named below: a scalar by as_float, a vector row by as_float_vector
                arr = np.asarray(raw, dtype=object)
            if arr.ndim == 0:
                value = as_float(raw, f"coefficient {name}")
                if not math.isfinite(value):
                    raise ValidationError(f"coefficient {name} is not finite")
                if value < 0.0:
                    raise ValidationError(f"coefficient {name} must be >= 0, got {value}")
                if value > MAX_COEFFICIENT:
                    raise ValidationError(f"coefficient {name} must be <= 2**960, got {value}")
                object.__setattr__(self, name, value)
            elif arr.ndim == 1:
                arr = as_float_vector(arr, f"coefficient {name}", n)
                if np.any(arr < 0.0):
                    raise ValidationError(f"coefficient {name} must be >= 0 everywhere")
                n = arr.size
                object.__setattr__(self, name, _readonly(arr))
            else:
                raise ValidationError(f"coefficient {name} must be scalar or one-dimensional")
        if all(np.max(np.asarray(getattr(self, name))) == 0.0 for name in ("a11", "a01", "a10", "a00")):
            raise ValidationError("all cost coefficients are zero; at least one must be positive")

    @classmethod
    def zero_one(cls) -> "CostCoefficients":
        """Plain accuracy: unit reward for being right, no explicit penalties."""
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def constant(cls, a11: float, a01: float, a10: float, a00: float) -> "CostCoefficients":
        values = {"a11": a11, "a01": a01, "a10": a10, "a00": a00}
        return cls(**{name: as_float(v, f"coefficient {name}") for name, v in values.items()})

    @property
    def is_constant(self) -> bool:
        return all(isinstance(getattr(self, name), float) for name in ("a11", "a01", "a10", "a00"))

    @property
    def n_samples(self) -> int | None:
        """Vector length in contextual mode, or None when fully constant."""
        for name in ("a11", "a01", "a10", "a00"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                return int(value.size)
        return None

    def as_vectors(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Broadcast all four coefficients to length-``n`` float vectors."""
        own = self.n_samples
        if own is not None and own != n:
            raise ValidationError(f"coefficient length {own} does not match data length {n}")
        out = []
        for name in ("a11", "a01", "a10", "a00"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                out.append(value)
            else:
                out.append(np.full(n, value))
        return tuple(out)

    def take(self, indices: np.ndarray) -> "CostCoefficients":
        """Row-subset contextual coefficients; constants pass through.

        The subset is not checked again: its values passed the checks already.
        """
        if self.is_constant:
            return self
        parts = {}
        for name in ("a11", "a01", "a10", "a00"):
            value = getattr(self, name)
            parts[name] = value[indices] if isinstance(value, np.ndarray) else value
        return _unchecked(CostCoefficients, **parts)


@dataclass(frozen=True)
class ScoreRuns:
    """Scores sorted once and cut into runs of equal value.

    Run ``k`` covers ``sorted_scores[starts[k]:starts[k + 1]]`` and
    ``positives_before[k]`` counts the positives sorted before it; both arrays
    end with one extra entry (``n`` and ``n_pos``), the empty all-reject tail.
    ``run_of_row[i]`` is the run of row ``i`` and ``values[k]`` the score of
    run ``k`` (``sorted_scores[starts[:-1]]``).  :meth:`resampled` derives the
    runs of a row sample from them without sorting again.
    """

    sorted_scores: np.ndarray
    starts: np.ndarray
    positives_before: np.ndarray
    run_of_row: np.ndarray
    values: np.ndarray

    def resampled(self, labels: np.ndarray, indices: np.ndarray) -> "ScoreRuns":
        """The runs of the row sample ``indices``, derived from this sort.

        ``labels[j]`` is the label of row ``indices[j]``.  Each run's draws and
        positives are counted from the runs of the drawn rows; runs the sample
        misses are dropped and the rest renumbered in order.  The sample's
        sorted scores repeat each run's value (so a run holding both -0.0 and
        0.0 reads one sign there); every other array equals that of a fresh
        sort of ``scores[indices]``.
        """
        run = self.run_of_row[indices]
        size = self.starts.size - 1
        # one count of 2 * run + label: the negatives and positives of each run
        counts = np.bincount(2 * run + labels, minlength=2 * size).reshape(size, 2)
        positives = counts[:, 1]
        drawn = counts[:, 0] + positives
        hit = np.flatnonzero(drawn)
        renumber = np.cumsum(drawn > 0) - 1
        drawn = drawn[hit]
        values = self.values[hit]
        return ScoreRuns(
            _readonly(np.repeat(values, drawn)),
            _readonly(np.concatenate([[0], np.cumsum(drawn)])),
            _readonly(np.concatenate([[0], np.cumsum(positives[hit])])),
            _readonly(renumber[run]),
            _readonly(values),
        )

    def first_accepted(self, thresholds) -> np.ndarray:
        """Per threshold, the first run that ``score >= t`` accepts; the run
        count (the empty tail) where it accepts none."""
        return np.searchsorted(self.values, thresholds, side="left")

    def accepted(self, run) -> tuple[np.ndarray, np.ndarray]:
        """Accepted-row and true-positive counts of the rules that accept
        every run from ``run`` on."""
        n, n_pos = self.starts[-1], self.positives_before[-1]
        return n - self.starts[run], n_pos - self.positives_before[run]


@dataclass(frozen=True)
class LabeledScores:
    """A scored, labeled dataset plus optional side information.

    ``scores`` must lie in [0, 1]; ``labels`` are binary.  ``group`` (binary)
    supports group-wise analyses, ``reference_scores`` hold a second scorer to
    compare rankings against, ``context`` carries named real columns (for
    example age), and ``coefficients`` may hold per-row utility coefficients
    read from data files.  Arrays are normalized to read-only float/int views;
    instances are immutable and safe to share across threads.
    """

    scores: np.ndarray
    labels: np.ndarray
    group: np.ndarray | None = None
    reference_scores: np.ndarray | None = None
    context: Mapping[str, np.ndarray] = field(default_factory=dict)
    coefficients: CostCoefficients | None = None

    def __post_init__(self) -> None:
        scores = as_float_vector(self.scores, "scores")
        if np.any((scores < 0.0) | (scores > 1.0)):
            bad = int(np.flatnonzero((scores < 0.0) | (scores > 1.0))[0])
            raise ValidationError(
                f"score out of range at row {bad}: {scores[bad]} not in [0, 1]"
            )
        n = scores.size
        object.__setattr__(self, "scores", _readonly(scores))
        object.__setattr__(self, "labels", _readonly(as_binary_vector(self.labels, "label", n)))
        if self.group is not None:
            object.__setattr__(self, "group", _readonly(as_binary_vector(self.group, "group", n)))
        if self.reference_scores is not None:
            ref = as_float_vector(self.reference_scores, "reference_scores", n)
            object.__setattr__(self, "reference_scores", _readonly(ref))
        ctx = {
            key: _readonly(as_float_vector(values, f"context column {key!r}", n))
            for key, values in dict(self.context).items()
        }
        object.__setattr__(self, "context", ctx)
        if self.coefficients is not None:
            cn = self.coefficients.n_samples
            if cn is not None and cn != n:
                raise ValidationError(
                    f"length mismatch: {n} rows but {cn} coefficient rows"
                )

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return self.n - self.n_positive

    @cached_property
    def runs(self) -> ScoreRuns:
        """The one sort of the scores, made on first use and then shared."""
        # the order within a run of equal scores is unspecified; no array below
        # depends on it, as equal floats have equal bits, except -0.0 and 0.0
        order = np.argsort(self.scores)
        ordered = self.scores[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ordered)) + 1, [self.n]])
        if ordered[0] == 0.0:  # the zero run lists its signs in row order
            ordered[: starts[1]] = self.scores[self.scores == 0.0]
        positives = np.concatenate([[0], np.cumsum(self.labels[order])])[starts]
        run_of_row = np.empty(self.n, dtype=np.int64)
        run_of_row[order] = np.repeat(np.arange(starts.size - 1), np.diff(starts))
        values = ordered[starts[:-1]]
        return ScoreRuns(
            *(_readonly(a) for a in (ordered, starts, positives, run_of_row, values))
        )

    def take(self, indices) -> "LabeledScores":
        """Row subset (used by resampling code); keeps all columns.

        The subset's rows passed the construction checks already, so they are
        not run again.  Its ``runs`` come from :meth:`ScoreRuns.resampled`,
        never from a sort.
        """
        idx = np.asarray(indices, dtype=np.int64)
        subset = _unchecked(
            LabeledScores,
            scores=self.scores[idx],
            labels=self.labels[idx],
            group=None if self.group is None else self.group[idx],
            reference_scores=None
            if self.reference_scores is None
            else self.reference_scores[idx],
            context={k: _readonly(v[idx]) for k, v in self.context.items()},
            coefficients=None if self.coefficients is None else self.coefficients.take(idx),
        )
        # seeds the subset's cached ``runs`` property
        subset.__dict__["runs"] = self.runs.resampled(subset.labels, idx)
        return subset


def validate(data: LabeledScores) -> LabeledScores:
    """Re-run all construction-time checks and hand the dataset back.

    Construction already validates, so this is primarily useful after external
    code has produced a ``LabeledScores`` through unpickling or similar paths.
    """
    if not isinstance(data, LabeledScores):
        raise ValidationError(f"expected LabeledScores, got {type(data).__name__}")
    LabeledScores.__post_init__(data)
    return data


@dataclass(frozen=True)
class DecisionRule:
    """Threshold rule: predict positive iff score >= threshold."""

    threshold: float

    def __post_init__(self) -> None:
        t = as_float(self.threshold, "threshold")
        if not math.isfinite(t):
            raise ValidationError("threshold must be finite")
        object.__setattr__(self, "threshold", t)

    def apply(self, scores: np.ndarray) -> np.ndarray:
        """Boolean prediction vector under the inclusive >= convention."""
        return np.asarray(scores) >= self.threshold


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer")
            object.__setattr__(self, name, int(value))

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion_at(data: LabeledScores, rule: DecisionRule) -> ConfusionCounts:
    """Count the four outcomes of applying ``rule`` to ``data``."""
    predicted = rule.apply(data.scores)
    positive = data.labels == 1
    tp = int(np.count_nonzero(predicted & positive))
    fp = int(np.count_nonzero(predicted & ~positive))
    fn = int(np.count_nonzero(~predicted & positive))
    tn = int(np.count_nonzero(~predicted & ~positive))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _check_curve(name: str, points) -> np.ndarray:
    """``points`` as a read-only (m, 2) float array of finite, x-ordered points.

    A read-only (m, 2) float64 array is kept as it is; anything else is copied.
    """
    if isinstance(points, np.ndarray):
        keep = points.dtype == np.float64 and not points.flags.writeable
    else:
        keep, points = False, list(points)
    try:
        curve = points if keep else np.array(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"curve {name!r} is not a sequence of (x, y) points") from exc
    if curve.size == 0:
        curve = curve.reshape(0, 2)
    if curve.ndim != 2 or curve.shape[1] != 2:
        raise ValidationError(f"curve {name!r} is not a sequence of (x, y) points")
    # the first point that is not finite or lies left of its predecessor
    bad = ~np.isfinite(curve).all(axis=1)
    bad[1:] |= curve[1:, 0] < curve[:-1, 0]
    if bad.any():
        x, y = curve[int(np.argmax(bad))].tolist()
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"curve {name!r} contains non-finite point ({x}, {y})")
        raise ValidationError(f"curve {name!r} is not ordered by x at x={x}")
    return _readonly(curve)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Structured evaluation result: flat metrics, curves, and intervals.

    ``metrics`` maps metric name to value; ``curves`` maps curve name to an
    x-ordered sequence of (x, y) points, stored as a read-only (m, 2) float
    array; ``intervals`` maps a name such as ``"auc@95"`` to a (low, high,
    level) triple.  Serialization uses shortest round-trip float
    representation, so every value survives a JSON round trip bit-exactly
    (within the usual 17 significant digits of a double).
    """

    metrics: dict[str, float]
    curves: dict[str, np.ndarray] = field(default_factory=dict)
    intervals: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        metrics = {}
        for key, value in dict(self.metrics).items():
            value = float(value)
            if not math.isfinite(value):
                raise ValidationError(f"metric {key!r} is not finite")
            metrics[str(key)] = value
        object.__setattr__(self, "metrics", metrics)
        curves = {str(k): _check_curve(k, v) for k, v in dict(self.curves).items()}
        object.__setattr__(self, "curves", curves)
        intervals = {}
        for key, triple in dict(self.intervals).items():
            low, high, level = (float(triple[0]), float(triple[1]), float(triple[2]))
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValidationError(f"interval {key!r} is not finite")
            if low > high:
                raise ValidationError(f"interval {key!r} has low {low} > high {high}")
            if not 0.0 < level < 1.0:
                raise ValidationError(f"interval {key!r} has level {level} outside (0, 1)")
            intervals[str(key)] = (low, high, level)
        object.__setattr__(self, "intervals", intervals)

    def to_dict(self) -> dict:
        return {
            "metrics": dict(self.metrics),
            "curves": {k: v.tolist() for k, v in self.curves.items()},
            "intervals": {
                k: {"low": lo, "high": hi, "level": level}
                for k, (lo, hi, level) in self.intervals.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def __eq__(self, other) -> bool:
        # field-wise == would compare the curve arrays element by element
        if not isinstance(other, EvalReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()
