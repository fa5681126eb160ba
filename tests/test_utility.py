import math

import numpy as np
import pytest

from utileval import (
    CostCoefficients,
    DecisionRule,
    LabeledScores,
    ValidationError,
    accuracy,
    age_discounted_coeffs,
    bayes_threshold,
    cost_family,
    empirical_utility,
    monotone_transform,
    utility_at_thresholds,
    utility_curve,
)
from utileval.core import MAX_COEFFICIENT
from utileval.utility import max_utilities
from conftest import make_dataset

TIED = LabeledScores(scores=[0.2, 0.5, 0.5, 0.9], labels=[0, 0, 1, 1])


def test_known_utility_value():
    # counts at 0.5 are tp=2 fp=1 fn=0 tn=1 -> (2*2 - 1*1 - 0.5*0 + 1*1)/4 = 1
    coefficients = CostCoefficients.constant(2, 1, 0.5, 1)
    assert empirical_utility(TIED, coefficients, DecisionRule(0.5)) == 1.0


def test_zero_one_utility_is_accuracy(rng):
    zero_one = CostCoefficients.zero_one()
    for _ in range(10):
        data = make_dataset(rng, int(rng.integers(2, 120)), tie_decimals=1)
        for threshold in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
            rule = DecisionRule(threshold)
            assert empirical_utility(data, zero_one, rule) == accuracy(data, rule)


def _sweep_by_hand(data, coefficients):
    """Independent sweep: evaluate every candidate with the pointwise function."""
    candidates = np.unique(data.scores).tolist()
    candidates.append(math.nextafter(max(candidates), math.inf))
    best_t, best_u = None, -math.inf
    for t in candidates:
        u = empirical_utility(data, coefficients, DecisionRule(t))
        if u > best_u:
            best_t, best_u = t, u
    return best_t, best_u


def test_sweep_matches_pointwise_evaluation(rng):
    for _ in range(15):
        data = make_dataset(rng, int(rng.integers(2, 150)), tie_decimals=1)
        coefficients = CostCoefficients.constant(*rng.random(4) * 3 + 0.01)
        curve = utility_curve(data, coefficients)
        for t, u in zip(curve.thresholds, curve.utilities):
            assert empirical_utility(data, coefficients, DecisionRule(t)) == u
        expected_t, expected_u = _sweep_by_hand(data, coefficients)
        assert curve.max_utility == expected_u
        assert curve.best_threshold == expected_t


def test_sweep_matches_pointwise_per_sample(rng):
    for _ in range(8):
        n = int(rng.integers(2, 90))
        data = make_dataset(rng, n, tie_decimals=1)
        coefficients = CostCoefficients(
            rng.random(n) * 2, rng.random(n), rng.random(n), rng.random(n) + 0.1
        )
        curve = utility_curve(data, coefficients)
        for t, u in zip(curve.thresholds, curve.utilities):
            assert empirical_utility(data, coefficients, DecisionRule(t)) == u
        expected_t, expected_u = _sweep_by_hand(data, coefficients)
        assert curve.max_utility == expected_u
        assert curve.best_threshold == expected_t


def test_arbitrary_threshold_never_beats_sweep(rng):
    data = make_dataset(rng, 200, tie_decimals=2)
    coefficients = cost_family(1.3)
    curve = utility_curve(data, coefficients)
    for t in np.concatenate([rng.random(50) * 1.4 - 0.2, curve.thresholds]):
        assert empirical_utility(data, coefficients, DecisionRule(t)) <= curve.max_utility


def test_best_threshold_is_smallest_maximizer():
    # accept-both (t=0.2) and reject-both (the sentinel) tie at accuracy 0.5;
    # the reported maximizer must be the smaller threshold
    data = LabeledScores(scores=[0.2, 0.8], labels=[1, 0])
    curve = utility_curve(data, CostCoefficients.zero_one())
    assert curve.max_utility == 0.5
    assert curve.best_threshold == 0.2
    assert curve.thresholds.tolist() == [0.2, 0.8, math.nextafter(0.8, math.inf)]
    assert curve.utilities.tolist() == [0.5, 0.0, 0.5]


def test_all_reject_candidate_can_win():
    # only true negatives are rewarded: rejecting everything is optimal and is
    # encoded by a threshold strictly above the largest score
    data = LabeledScores(scores=[0.4, 0.6], labels=[0, 0])
    curve = utility_curve(data, CostCoefficients.constant(0, 1, 0, 1))
    assert curve.max_utility == 1.0
    assert curve.best_threshold > 0.6
    assert curve.best_threshold == math.nextafter(0.6, math.inf)


def test_utility_at_thresholds_matches_pointwise(rng):
    data = make_dataset(rng, 150, tie_decimals=2)
    grid = np.linspace(-0.1, 1.1, 41)
    for coefficients in (
        cost_family(0.7),
        CostCoefficients(rng.random(150), 0.3, rng.random(150), 1.0),
    ):
        values = utility_at_thresholds(data, coefficients, grid)
        for t, u in zip(grid, values):
            assert empirical_utility(data, coefficients, DecisionRule(t)) == u
    with pytest.raises(ValidationError):
        utility_at_thresholds(data, cost_family(1.0), [np.nan])
    with pytest.raises(ValidationError):
        utility_at_thresholds(data, cost_family(1.0), [])


def test_threshold_between_candidates_is_equivalent_to_next_candidate():
    data = LabeledScores(scores=[0.2, 0.5, 0.9], labels=[0, 1, 1])
    coefficients = cost_family(2.0)
    # any threshold in (0.2, 0.5] accepts exactly the rows scoring >= 0.5
    for t in (0.21, 0.35, 0.499999, 0.5):
        assert empirical_utility(data, coefficients, DecisionRule(t)) == empirical_utility(
            data, coefficients, DecisionRule(0.5)
        )


def test_max_utility_invariant_under_monotone_transforms(rng):
    data = make_dataset(rng, 300, tie_decimals=2)
    per_sample = CostCoefficients(1.0, rng.random(300) * 2, rng.random(300), 1.0)
    for coefficients in (CostCoefficients.zero_one(), cost_family(1.7), per_sample):
        reference = utility_curve(data, coefficients).max_utility
        for kind, parameter in (
            ("affine", (0.5, 0.2)),
            ("power", 2.0),
            ("power", 0.37),
            ("logit-shift", 1.0),
            ("logit-shift", -2.5),
        ):
            transformed = LabeledScores(
                scores=monotone_transform(data.scores, kind, parameter),
                labels=data.labels,
            )
            assert utility_curve(transformed, coefficients).max_utility == reference


def test_utility_scaling():
    data = LabeledScores(scores=[0.2, 0.5, 0.5, 0.9], labels=[0, 0, 1, 1])
    base = CostCoefficients.constant(2, 1, 0.5, 1)
    curve = utility_curve(data, base)
    # power-of-two scaling is exact in floating point
    doubled = CostCoefficients.constant(8, 4, 2, 4)
    assert utility_curve(data, doubled).max_utility == 4.0 * curve.max_utility
    # general positive scaling agrees to rounding and keeps the argmax
    scaled = CostCoefficients.constant(2 * 1.7, 1 * 1.7, 0.5 * 1.7, 1 * 1.7)
    scaled_curve = utility_curve(data, scaled)
    assert scaled_curve.max_utility == pytest.approx(1.7 * curve.max_utility, rel=1e-9)
    assert scaled_curve.best_threshold == curve.best_threshold


def _drawn_runs(data, idx):
    # the runs of data.take(idx) in the numbering of data.runs: a run the draw
    # misses stays as an empty run
    size = data.runs.starts.size - 1
    key = 2 * data.runs.run_of_row[idx] + data.labels[idx]
    counts = np.bincount(key, minlength=2 * size).reshape(size, 2)
    starts = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    return starts, np.concatenate([[0], np.cumsum(counts[:, 1])])


def test_max_utilities_equal_the_curve_maximum_bitwise(rng):
    near_max = [MAX_COEFFICIENT, math.nextafter(MAX_COEFFICIENT, 0.0), MAX_COEFFICIENT / 3]
    costs = [cost_family(c) for c in [0.0, 0.5, 2.0, 1e200, 1e-300, *near_max]]
    # tiny coefficients round some negative utilities to -0.0 beside a zero
    # maximum, whose sign the curve takes from its first maximum
    costs += [
        CostCoefficients.constant(*values)
        for values in [
            (0.0, 5e-324, 0.0, 0.0),
            (5e-324, 1e-310, 5e-324, 0.0),
            (5e-324, 5e-324, 5e-324, 5e-324),
            (MAX_COEFFICIENT, 0.0, MAX_COEFFICIENT, 0.0),
            (0.0, MAX_COEFFICIENT, 1e-300, 3.0),
        ]
    ]
    for trial in range(300):
        n = int(rng.integers(1, 60))
        if n == 1:
            data = LabeledScores(scores=[0.5], labels=[trial % 2])
        else:
            data = make_dataset(rng, n, tie_decimals=[None, 0, 1, 2][trial % 4])
        runs = data.runs
        expected = [utility_curve(data, c).max_utility for c in costs]
        got = max_utilities(runs.starts, runs.positives_before, costs)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        # a draw of the rows, read in the dataset's own runs
        idx = rng.integers(0, n, n)
        sample = data.take(idx)
        expected = [utility_curve(sample, c).max_utility for c in costs]
        got = max_utilities(*_drawn_runs(data, idx), costs)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
    with pytest.raises(ValidationError, match="constant"):
        per_row = CostCoefficients(1.0, np.ones(n), 0.0, 1.0)
        max_utilities(runs.starts, runs.positives_before, [per_row])


def test_bayes_threshold_values():
    assert bayes_threshold(CostCoefficients.zero_one()) == 0.5
    assert bayes_threshold(CostCoefficients.constant(1, 1, 0.5, 1)) == 2.0 / 3.5
    with pytest.raises(ValidationError, match="constant"):
        bayes_threshold(CostCoefficients([1.0, 1.0], 0.0, 0.0, 1.0))


def test_cost_family():
    family = cost_family(2.0)
    assert (family.a11, family.a01, family.a10, family.a00) == (1.0, 2.0, 1.0, 1.0)
    plain = cost_family(0.0)
    zero_one = CostCoefficients.zero_one()
    assert (plain.a11, plain.a01, plain.a10, plain.a00) == (
        zero_one.a11,
        zero_one.a01,
        zero_one.a10,
        zero_one.a00,
    )
    with pytest.raises(ValidationError):
        cost_family(-0.5)
    with pytest.raises(ValidationError):
        cost_family(np.inf)


def test_age_discounted_coefficients():
    data = LabeledScores(
        scores=[0.2, 0.5, 0.9],
        labels=[0, 1, 1],
        context={"age": [0.0, 50.0, 100.0]},
    )
    coefficients = age_discounted_coeffs(data)
    assert coefficients.a01.tolist() == [3.0, 1.5, 0.0]
    assert coefficients.a10.tolist() == [0.5, 0.25, 0.0]
    assert coefficients.a11 == 1.0 and coefficients.a00 == 1.0
    with pytest.raises(ValidationError, match="age"):
        age_discounted_coeffs(LabeledScores(scores=[0.5], labels=[1]))
    with pytest.raises(ValidationError, match="age out of range at row 0"):
        age_discounted_coeffs(
            LabeledScores(scores=[0.5], labels=[1], context={"age": [101.0]})
        )


def test_age_range_message_prints_plain_number():
    data = LabeledScores(scores=[0.5, 0.5], labels=[1, 0], context={"age": [40.0, 120.0]})
    with pytest.raises(ValidationError) as excinfo:
        age_discounted_coeffs(data)
    assert str(excinfo.value) == "age out of range at row 1: 120.0 not in [0, 100]"


def test_monotone_transform_validation():
    scores = np.array([0.1, 0.5, 0.9])
    with pytest.raises(ValidationError, match="leaves"):
        monotone_transform(scores, "affine", (2.0, 0.0))
    with pytest.raises(ValidationError, match="scale"):
        monotone_transform(scores, "affine", (-1.0, 0.5))
    with pytest.raises(ValidationError, match="pair"):
        monotone_transform(scores, "affine", 0.5)
    with pytest.raises(ValidationError, match="exponent"):
        monotone_transform(scores, "power", 0.0)
    with pytest.raises(ValidationError, match="unknown"):
        monotone_transform(scores, "rank", 1.0)
    # collapsing distinct values is caught by the order post-check
    tiny = np.array([0.0, 1e-300, 0.5])
    with pytest.raises(ValidationError, match="collapsed"):
        monotone_transform(tiny, "power", 2.0)


def test_logit_shift_handles_endpoints():
    scores = np.array([0.0, 0.5, 1.0])
    out = monotone_transform(scores, "logit-shift", 1.0)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert 0.5 < out[1] < 1.0
