"""Order-preservation checks and equity-aware top-K selection.

A candidate scorer *preserves the ranking* of a reference scorer when every
strict inequality between reference values is reproduced strictly and every
reference tie is reproduced as a tie.  Scorers with this property are
interchangeable with the reference wherever only the induced ordering matters:
they admit the same ROC behaviour and attain the same maximal utilities.

The selection half implements a capacity-K allocation over two groups where
per-item benefit is separable and nondecreasing in a reference score, plus a
table of bonuses indexed by how many group-1 items are chosen.  Under those
assumptions an optimal selection always consists of a top segment from each
group, so optimizing over the group-1 count alone is exact; a subset
enumeration oracle is provided to verify that claim on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, as_binary_vector, as_float_vector

__all__ = [
    "preserves_ranking",
    "preserves_ranking_by_group",
    "EquityUtility",
    "SelectionResult",
    "equity_select",
    "equity_brute_force",
]

_BRUTE_FORCE_LIMIT = 20


def preserves_ranking(candidate, reference, tol: float = 0.0) -> bool:
    """True iff ``candidate`` reproduces the order and ties of ``reference``.

    Checked in O(n log n) by co-sorting: within a run of (near-)equal
    reference values the candidate must be constant, and across runs the
    candidate must strictly increase.  ``tol`` widens equality to
    ``|difference| <= tol`` between adjacent sorted values; the default 0
    compares floats exactly.
    """
    cand = as_float_vector(candidate, "candidate scores")
    ref = as_float_vector(reference, "reference scores", cand.size)
    if tol < 0.0 or not math.isfinite(tol):
        raise ValidationError(f"tolerance must be a finite value >= 0, got {tol}")
    if cand.size == 1:
        return True
    order = np.lexsort((cand, ref))
    ref_step = np.diff(ref[order])
    cand_step = np.diff(cand[order])
    tied = ref_step <= tol
    # ties must map to ties, strict increases to strict increases
    return bool(np.all(np.where(tied, np.abs(cand_step) <= tol, cand_step > tol)))


def preserves_ranking_by_group(candidate, reference, group, tol: float = 0.0) -> bool:
    """Apply :func:`preserves_ranking` separately inside each group.

    Cross-group comparisons are deliberately not constrained: a scorer may be
    order-faithful within every group while the groups are scored on
    incomparable scales.
    """
    cand = as_float_vector(candidate, "candidate scores")
    ref = as_float_vector(reference, "reference scores", cand.size)
    grp = as_binary_vector(group, "group", cand.size)
    for value in (0, 1):
        mask = grp == value
        if np.count_nonzero(mask) > 1 and not preserves_ranking(
            cand[mask], ref[mask], tol=tol
        ):
            return False
    return True


@dataclass(frozen=True)
class EquityUtility:
    """Separable selection utility: per-item benefits plus a group-1 bonus.

    ``benefit[i]`` is the non-negative utility of selecting item ``i``;
    ``group_bonus[j]`` is added when exactly ``j`` group-1 items are selected.
    The bonus table must be nondecreasing (more representation never hurts) and
    its length fixes the selection capacity at ``len(group_bonus) - 1``.
    """

    benefit: np.ndarray
    group_bonus: np.ndarray

    def __post_init__(self) -> None:
        benefit = as_float_vector(self.benefit, "benefit")
        if np.any(benefit < 0.0):
            raise ValidationError("benefit values must be >= 0")
        bonus = as_float_vector(self.group_bonus, "group_bonus")
        if np.any(np.diff(bonus) < 0.0):
            raise ValidationError("group_bonus must be nondecreasing")
        benefit = benefit.copy()
        bonus = bonus.copy()
        benefit.setflags(write=False)
        bonus.setflags(write=False)
        object.__setattr__(self, "benefit", benefit)
        object.__setattr__(self, "group_bonus", bonus)

    @property
    def capacity(self) -> int:
        return int(self.group_bonus.size - 1)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a capacity-K selection.

    ``chosen`` holds the selected item indices in increasing order,
    ``group1_count`` how many of them belong to group 1, and
    ``utility_by_group1_count[j]`` the best utility achievable with exactly
    ``j`` group-1 selections (NaN where infeasible).
    """

    chosen: np.ndarray
    group1_count: int
    total_utility: float
    utility_by_group1_count: np.ndarray


def _validate_selection(reference, group, spec: EquityUtility):
    ref = as_float_vector(reference, "reference scores")
    grp = as_binary_vector(group, "group", ref.size)
    if spec.benefit.size != ref.size:
        raise ValidationError(
            f"length mismatch: {spec.benefit.size} benefits for {ref.size} items"
        )
    capacity = spec.capacity
    if capacity > ref.size:
        raise ValidationError(
            f"capacity {capacity} exceeds the number of items {ref.size}"
        )
    # separability is only exploitable if benefit never decreases as the
    # reference score grows
    order = np.lexsort((spec.benefit, ref))
    ref_sorted = ref[order]
    ben_sorted = spec.benefit[order]
    increases = np.diff(ref_sorted) > 0
    if np.any(increases & (np.diff(ben_sorted) < 0)):
        raise ValidationError("benefit must be nondecreasing in the reference score")
    return ref, grp, capacity


def _priority(reference: np.ndarray, benefit: np.ndarray) -> np.ndarray:
    """Global pick order: best reference first, then best benefit, then index."""
    n = reference.size
    order = np.lexsort((np.arange(n), -benefit, -reference))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def _subset_utility(benefit: np.ndarray, indices, bonus: float) -> float:
    # fsum is exactly rounded, so every code path scores a given subset to the
    # identical float no matter how the subset was assembled
    return math.fsum(benefit[list(indices)]) + float(bonus)


def equity_select(reference, group, spec: EquityUtility) -> SelectionResult:
    """Optimal capacity-K selection by scanning the group-1 count.

    For every feasible number ``j`` of group-1 picks, the best selection takes
    the ``K - j`` highest-priority group-0 items and the ``j`` highest-priority
    group-1 items; the winner maximizes benefit sum plus ``group_bonus[j]``.
    Utility ties prefer the smaller ``j``; priority breaks item ties by higher
    benefit and then lower index.
    """
    ref, grp, capacity = _validate_selection(reference, group, spec)
    priority = _priority(ref, spec.benefit)
    members0 = np.flatnonzero(grp == 0)
    members1 = np.flatnonzero(grp == 1)
    ranked0 = members0[np.argsort(priority[members0])]
    ranked1 = members1[np.argsort(priority[members1])]
    profile = np.full(capacity + 1, np.nan)
    best_utility = -math.inf
    best_j = -1
    for j in range(capacity + 1):
        take0 = capacity - j
        if j > ranked1.size or take0 > ranked0.size:
            continue
        picks = np.concatenate([ranked0[:take0], ranked1[:j]])
        total = _subset_utility(spec.benefit, picks, spec.group_bonus[j])
        profile[j] = total
        if total > best_utility:
            best_utility = total
            best_j = j
    chosen = np.sort(
        np.concatenate([ranked0[: capacity - best_j], ranked1[:best_j]])
    ).astype(np.int64)
    return SelectionResult(
        chosen=chosen,
        group1_count=best_j,
        total_utility=float(best_utility),
        utility_by_group1_count=profile,
    )


def equity_brute_force(reference, group, spec: EquityUtility) -> SelectionResult:
    """Exhaustive subset enumeration with the same tie-breaking.

    Exponential; guarded to at most 20 items.  Exists to certify
    :func:`equity_select` on small instances.
    """
    ref, grp, capacity = _validate_selection(reference, group, spec)
    n = ref.size
    if n > _BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute force selection is limited to {_BRUTE_FORCE_LIMIT} items, got {n}"
        )
    priority = _priority(ref, spec.benefit)
    profile = np.full(capacity + 1, np.nan)
    best_key = None
    best_subset = None
    best_utility = math.nan
    best_j = -1
    for subset in itertools.combinations(range(n), capacity):
        idx = list(subset)
        j = int(grp[idx].sum()) if idx else 0
        total = _subset_utility(spec.benefit, idx, spec.group_bonus[j])
        if math.isnan(profile[j]) or total > profile[j]:
            profile[j] = total
        key = (-total, j, tuple(sorted(priority[idx])))
        if best_key is None or key < best_key:
            best_key = key
            best_subset = idx
            best_utility = total
            best_j = j
    return SelectionResult(
        chosen=np.asarray(sorted(best_subset), dtype=np.int64),
        group1_count=best_j,
        total_utility=best_utility,
        utility_by_group1_count=profile,
    )
