import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from utileval import (
    EquityUtility,
    ValidationError,
    equity_brute_force,
    equity_select,
    preserves_ranking,
    preserves_ranking_by_group,
)


def _preserves_by_definition(candidate, reference, tol=0.0):
    """Quadratic all-pairs check of the order/tie contract."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    for i in range(len(reference)):
        for j in range(len(reference)):
            if abs(reference[i] - reference[j]) <= tol:
                if abs(candidate[i] - candidate[j]) > tol:
                    return False
            elif reference[i] < reference[j]:
                if candidate[j] - candidate[i] <= tol:
                    return False
    return True


def test_preserves_ranking_basics():
    ref = [0.1, 0.5, 0.5, 0.9]
    assert preserves_ranking(ref, ref)
    assert preserves_ranking([0.2, 0.6, 0.6, 0.95], ref)
    # swapping the order of a strict pair breaks it
    assert not preserves_ranking([0.9, 0.5, 0.5, 0.1], ref)
    # collapsing a strict pair into a tie breaks it
    assert not preserves_ranking([0.1, 0.5, 0.5, 0.5], ref)
    # splitting a reference tie breaks it
    assert not preserves_ranking([0.1, 0.5, 0.6, 0.9], ref)
    assert preserves_ranking([0.3], [0.7])


def test_preserves_ranking_tolerance():
    ref = [0.1, 0.5, 0.9]
    wiggled = [0.1005, 0.5, 0.8995]
    assert not preserves_ranking(wiggled, wiggled[::-1], tol=0.0)
    assert preserves_ranking(wiggled, ref, tol=1e-2)
    with pytest.raises(ValidationError):
        preserves_ranking(ref, ref, tol=-1.0)
    with pytest.raises(ValidationError):
        preserves_ranking([0.1, 0.2], [0.1])


# a coarse grid forces plenty of ties in both vectors, and -0.0 ties 0.0
_GRID = st.sampled_from([-0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=300)
@given(st.data())
def test_preserves_ranking_matches_definition(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    ref = np.array(data.draw(st.lists(_GRID, min_size=n, max_size=n)))
    cand = np.array(data.draw(st.lists(_GRID, min_size=n, max_size=n)))
    assert preserves_ranking(cand, ref) == _preserves_by_definition(cand, ref)
    # a candidate that is a strictly increasing map of the reference keeps
    # every tie (-0.0 and 0.0 map alike) and every strict step
    mapped = 2.0 * ref + 1.0
    assert preserves_ranking(mapped, ref) and _preserves_by_definition(mapped, ref)
    if n == 1:
        return
    # tied candidates: equal references (zeros of either sign) at any rows
    # whose candidates differ break it; sharing one candidate value does not
    tied = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    zeros = st.lists(st.sampled_from([-0.0, 0.0]), min_size=len(tied), max_size=len(tied))
    ref[tied] = data.draw(zeros)
    cand = 2.0 * ref + 1.0
    assert preserves_ranking(cand, ref) and _preserves_by_definition(cand, ref)
    cand[tied[0]] += 0.125
    assert not preserves_ranking(cand, ref) and not _preserves_by_definition(cand, ref)


def test_preserves_ranking_by_group():
    ref = np.array([0.1, 0.9, 0.2, 0.8])
    group = np.array([0, 0, 1, 1])
    # order-faithful inside each group even though the groups' scales clash
    cand = np.array([0.5, 0.6, 0.95, 0.99])
    assert preserves_ranking_by_group(cand, ref, group)
    assert not preserves_ranking(cand, ref)
    # breaking the order inside group 1 is detected
    cand_bad = np.array([0.5, 0.6, 0.99, 0.95])
    assert not preserves_ranking_by_group(cand_bad, ref, group)
    with pytest.raises(ValidationError, match="group"):
        preserves_ranking_by_group(cand, ref, np.array([0, 0, 1, 2]))


def test_equity_known_instance():
    # benefits 1..6, items 3..5 in group 1, capacity 2, bonus 0/10/20:
    #   j=0: best pair from group 0 -> 3 + 2 + 0  = 5
    #   j=1: best of each          -> 3 + 6 + 10 = 19
    #   j=2: best pair from group 1 -> 6 + 5 + 20 = 31
    benefit = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    reference = benefit / 10.0
    group = np.array([0, 0, 0, 1, 1, 1])
    spec = EquityUtility(benefit=benefit, group_bonus=[0.0, 10.0, 20.0])
    result = equity_select(reference, group, spec)
    assert result.total_utility == 31.0
    assert result.group1_count == 2
    assert result.chosen.tolist() == [4, 5]
    assert result.utility_by_group1_count.tolist() == [5.0, 19.0, 31.0]
    brute = equity_brute_force(reference, group, spec)
    assert brute.total_utility == 31.0
    assert brute.chosen.tolist() == [4, 5]


def test_equity_zero_capacity():
    spec = EquityUtility(benefit=[1.0, 2.0], group_bonus=[7.0])
    result = equity_select([0.1, 0.2], [0, 1], spec)
    assert result.chosen.size == 0
    assert result.group1_count == 0
    assert result.total_utility == 7.0


def test_equity_infeasible_counts_are_nan():
    # only one group-1 item exists, so j=2 is unachievable
    spec = EquityUtility(benefit=[1.0, 2.0, 3.0], group_bonus=[0.0, 0.0, 0.0])
    result = equity_select([0.1, 0.2, 0.3], [0, 0, 1], spec)
    profile = result.utility_by_group1_count
    assert np.isnan(profile[2])
    assert not np.isnan(profile[:2]).any()


def _random_instance(rng, n):
    reference = np.round(rng.random(n), 1)  # coarse grid -> ties are common
    slope = float(rng.random() * 3)
    benefit = np.round(slope * reference + rng.random(), 2)
    group = rng.integers(0, 2, n)
    capacity = int(rng.integers(0, n + 1))
    bonus = np.cumsum(np.round(rng.random(capacity + 1), 2))
    return reference, group, EquityUtility(benefit=benefit, group_bonus=bonus)


def test_equity_select_matches_brute_force(rng):
    for _ in range(60):
        n = int(rng.integers(1, 11))
        reference, group, spec = _random_instance(rng, n)
        fast = equity_select(reference, group, spec)
        brute = equity_brute_force(reference, group, spec)
        assert fast.total_utility == brute.total_utility
        assert fast.group1_count == brute.group1_count
        assert fast.chosen.tolist() == brute.chosen.tolist()
        np.testing.assert_array_equal(
            fast.utility_by_group1_count, brute.utility_by_group1_count
        )


def test_equity_tie_breaking_prefers_fewer_group1():
    # both assignments reach the same utility; the smaller group-1 count wins
    spec = EquityUtility(benefit=[1.0, 1.0], group_bonus=[0.0, 0.0])
    result = equity_select([0.5, 0.5], [0, 1], spec)
    assert result.group1_count == 0
    assert result.chosen.tolist() == [0]
    brute = equity_brute_force([0.5, 0.5], [0, 1], spec)
    assert brute.group1_count == 0
    assert brute.chosen.tolist() == [0]


def test_equity_validation():
    with pytest.raises(ValidationError, match="nondecreasing"):
        EquityUtility(benefit=[1.0], group_bonus=[1.0, 0.5])
    with pytest.raises(ValidationError, match=">= 0"):
        EquityUtility(benefit=[-1.0], group_bonus=[0.0])
    spec = EquityUtility(benefit=[1.0, 2.0], group_bonus=[0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="capacity"):
        equity_select(
            [0.5], [0], EquityUtility(benefit=[1.0], group_bonus=[0.0, 0.0, 0.0])
        )
    with pytest.raises(ValidationError, match="length mismatch"):
        equity_select([0.5], [0], spec)
    with pytest.raises(ValidationError, match="group values"):
        equity_select([0.5, 0.6], [0, 2], spec)
    # benefit decreasing while the reference increases violates separability
    with pytest.raises(ValidationError, match="nondecreasing in the reference"):
        equity_select(
            [0.1, 0.9],
            [0, 1],
            EquityUtility(benefit=[5.0, 1.0], group_bonus=[0.0, 0.0]),
        )


def test_brute_force_size_guard(rng):
    n = 21
    spec = EquityUtility(benefit=np.ones(n), group_bonus=[0.0, 0.0])
    with pytest.raises(ValidationError, match="limited to 20"):
        equity_brute_force(np.full(n, 0.5), np.zeros(n, dtype=int), spec)
