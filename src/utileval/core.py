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
from typing import Callable, Mapping

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
]


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
    scalars broadcast against the vectors.
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
    :meth:`resampled` derives the runs of a row sample from them without
    sorting again.  ``make_order`` gives :attr:`order` when it is first read.
    """

    sorted_scores: np.ndarray
    starts: np.ndarray
    positives_before: np.ndarray
    make_order: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def order(self) -> np.ndarray:
        """A permutation of the rows that sorts the scores: ``scores[order]``
        is ``sorted_scores``.  Made on first use for resampled runs."""
        return self.make_order()

    def resampled(
        self, labels: np.ndarray, indices: np.ndarray, counts: np.ndarray
    ) -> "ScoreRuns":
        """The runs of the row sample ``indices``, derived from this sort.

        ``labels`` are the labels of the sorted rows, in row order, and
        ``counts`` is ``np.bincount(indices, minlength=n)``.  With
        ``w = counts[order]``, row ``order[p]`` appears ``w[p]`` times in the
        sample, so the sample's sorted scores repeat this sort's and its run
        boundaries are running sums of ``w`` read at this sort's run starts;
        runs the sample misses are dropped.  Every array equals that of a
        fresh sort of ``scores[indices]``.
        """
        w = counts[self.order]
        before = np.concatenate([[0], np.cumsum(w)])[self.starts]
        positives = np.concatenate([[0], np.cumsum((counts * labels)[self.order])])[self.starts]
        hit = np.flatnonzero(np.append(np.diff(before) > 0, True))

        def make_order() -> np.ndarray:
            # ties keep this sort's order, then draw order: any order of a
            # run is valid, as every reader looks only at run boundaries
            rank = np.empty_like(self.order)
            rank[self.order] = np.arange(self.order.size)
            return _readonly(np.argsort(rank[indices], kind="stable"))

        return ScoreRuns(
            _readonly(np.repeat(self.sorted_scores, w)),
            _readonly(before[hit]),
            _readonly(positives[hit]),
            make_order,
        )

    @property
    def values(self) -> np.ndarray:
        """The unique scores, ascending: the value of each run."""
        return self.sorted_scores[self.starts[:-1]]

    def accepted(self, thresholds) -> tuple[np.ndarray, np.ndarray]:
        """Accepted-row and true-positive counts of ``score >= t`` per threshold."""
        run = np.searchsorted(self.values, thresholds, side="left")
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
        order = _readonly(np.argsort(self.scores, kind="mergesort"))
        ordered = self.scores[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ordered)) + 1, [self.n]])
        positives = np.concatenate([[0], np.cumsum(self.labels[order])])[starts]
        return ScoreRuns(*(_readonly(a) for a in (ordered, starts, positives)), lambda: order)

    def take(self, indices, counts=None) -> "LabeledScores":
        """Row subset (used by resampling code); keeps all columns.

        The subset's rows passed the construction checks already, so they are
        not run again.  Its ``runs`` come from :meth:`ScoreRuns.resampled`,
        never from a sort; ``counts`` is ``np.bincount(indices, minlength=n)``,
        made here unless the caller has it.
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
        if counts is None:
            counts = np.bincount(idx, minlength=self.n)
        # seeds the subset's cached ``runs`` property
        subset.__dict__["runs"] = self.runs.resampled(self.labels, idx, counts)
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
    """``points`` as a read-only (m, 2) float array of finite, x-ordered points."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    try:
        curve = np.array(points, dtype=np.float64)
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
