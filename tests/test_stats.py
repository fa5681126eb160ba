import math

import numpy as np
import pytest

from utileval import (
    BootstrapConfig,
    CostCoefficients,
    DecisionRule,
    DegenerateDataError,
    LabeledScores,
    SimStudyConfig,
    ValidationError,
    accuracy,
    auc_rank,
    bootstrap_ci,
    cost_family,
    generate_realization,
    monotone_transform,
    paired_max_utility_test,
    sem,
)
from utileval.stats import resample
from conftest import make_dataset


def test_sem_known_values():
    assert sem([0.0, 2.0]) == 1.0
    assert sem([1.0, 2.0, 3.0]) == pytest.approx(1.0 / math.sqrt(3.0))
    with pytest.raises(ValidationError):
        sem([1.0])
    with pytest.raises(ValidationError):
        sem(np.zeros((2, 2, 2)))
    with pytest.raises(ValidationError):
        sem(["a", "b"])
    with pytest.raises(ValidationError):
        sem([1.0, np.nan])


def test_sem_of_columns_and_of_huge_values():
    values = np.random.default_rng(2).random((5, 3))
    expected = np.std(values, axis=0, ddof=1) / math.sqrt(5)
    assert sem(values) == expected.tolist()
    assert sem(values[:, 1]) == expected[1]
    with pytest.raises(ValidationError):
        sem(values[:1])
    with pytest.raises(ValidationError):
        sem([[1.0, np.inf], [2.0, 3.0]])
    # past 2**500 the values are scaled by a power of two, which is exact, so
    # the SEM scales with them and no square overflows
    scale = 2.0**900
    assert sem(values * scale) == (expected * scale).tolist()
    assert sem(values[:, 1] * scale) == expected[1] * scale
    assert sem([-1.7e308, 1.7e308]) == pytest.approx(1.7e308, rel=1e-15)


def test_bootstrap_ci_basic(rng):
    data = make_dataset(rng, 250, tie_decimals=2)
    config = BootstrapConfig(replicates=300, level=0.95, seed=9)
    result = bootstrap_ci(data, "auc", config)
    assert result.low <= result.high
    assert result.replicates == 300
    assert result.values.shape == (300,)
    again = bootstrap_ci(data, "auc", config)
    np.testing.assert_array_equal(result.values, again.values)
    assert result.point == again.point


def test_bootstrap_ci_validation(rng):
    data = make_dataset(rng, 50)
    with pytest.raises(ValidationError, match="unknown metric"):
        bootstrap_ci(data, "f1", BootstrapConfig(replicates=200, level=0.95, seed=0))
    with pytest.raises(ValidationError, match="replicates"):
        bootstrap_ci(data, "auc", BootstrapConfig(replicates=99, level=0.95, seed=0))
    with pytest.raises(ValidationError, match="level"):
        BootstrapConfig(replicates=200, level=1.0, seed=0)
    with pytest.raises(ValidationError, match="coefficients"):
        bootstrap_ci(data, "u_max", BootstrapConfig(replicates=200, level=0.95, seed=0))


def test_bootstrap_auc_single_class_fails_at_point_estimate():
    data = LabeledScores(scores=[0.2, 0.4, 0.9], labels=[1, 1, 1])
    config = BootstrapConfig(replicates=100, level=0.95, seed=0)
    with pytest.raises(DegenerateDataError, match="one class"):
        bootstrap_ci(data, "auc", config)


def test_bootstrap_redraws_counted(rng):
    # heavily imbalanced data triggers occasional single-class resamples
    scores = np.concatenate([rng.random(40) * 0.5, [0.9]])
    labels = np.array([0] * 40 + [1])
    data = LabeledScores(scores=scores, labels=labels)
    config = BootstrapConfig(replicates=150, level=0.95, seed=4)
    result = bootstrap_ci(data, "auc", config)
    assert result.redraws > 0
    assert result.values.shape == (150,)


def test_resample_matches_separate_loops_per_statistic(rng):
    # the redraw-heavy data above, plus a noisy scorer of the same rows whose
    # accuracy varies from draw to draw
    scores = np.concatenate([rng.random(40) * 0.5, [0.9]])
    labels = np.array([0] * 40 + [1])
    datasets = [
        LabeledScores(scores=scores, labels=labels),
        LabeledScores(scores=rng.random(41), labels=labels),
    ]
    statistics = {
        "auc": lambda data, _: auc_rank(data),
        "accuracy": lambda data, _: accuracy(data, DecisionRule(0.5)),
    }
    values, redraws = resample(datasets, statistics, 150, seed=4)

    def alone(data, metric):
        rng = np.random.default_rng(np.random.SeedSequence([4]))
        out, skipped = [], 0
        while len(out) < 150:
            sample = data.take(rng.integers(0, data.n, data.n))
            if metric == "auc" and sample.labels.min() == sample.labels.max():
                skipped += 1
                continue
            out.append(statistics[metric](sample, None))
        return np.array(out), skipped

    for i, data in enumerate(datasets):
        for metric in statistics:
            expected, skipped = alone(data, metric)
            assert values[i][metric].tobytes() == expected.tobytes()
            assert redraws[i][metric] == skipped
    assert redraws[0]["auc"] > 0 and redraws[0]["accuracy"] == 0
    assert np.unique(values[1]["accuracy"]).size > 1


def test_resample_vector_statistic_and_validation(rng):
    data = make_dataset(rng, 30)
    values, _ = resample([data], {"pair": lambda d, _: [d.scores.min(), d.scores.max()]}, 7, 0)
    assert values[0]["pair"].shape == (7, 2)
    empty, _ = resample([data], {"pair": lambda d, _: [0.0, 1.0]}, 0, 0)
    assert empty[0]["pair"].size == 0
    with pytest.raises(ValidationError, match="replicates must be >= 0"):
        resample([data], {}, -1, 0)


def test_resample_redraw_budget_is_exhausted():
    data = LabeledScores(scores=[0.2, 0.8], labels=[0, 1])

    def never(_data, _coefficients):
        raise DegenerateDataError("undefined")

    with pytest.raises(DegenerateDataError, match="'never' exhausted its redraw budget"):
        resample([data], {"never": never}, 3, 0)


def test_bootstrap_point_usually_inside_interval(rng):
    inside = 0
    for seed in range(20):
        data = make_dataset(rng, 160, tie_decimals=2)
        config = BootstrapConfig(replicates=200, level=0.95, seed=seed)
        result = bootstrap_ci(data, "accuracy", config)
        inside += result.low <= result.point <= result.high
    assert inside >= 16


def test_bootstrap_narrower_level_nests_exactly(rng):
    data = make_dataset(rng, 200, tie_decimals=2)
    result = bootstrap_ci(
        data, "u_max",
        BootstrapConfig(replicates=400, level=0.95, seed=13),
        coefficients=cost_family(1.0),
    )
    low68, high68 = np.percentile(result.values, [16.0, 84.0])
    # both intervals cut the same replicate sample, so nesting is exact
    assert result.low <= low68 <= high68 <= result.high


def test_paired_test_identical_scorers_is_null(rng):
    data = make_dataset(rng, 120, tie_decimals=2)
    config = BootstrapConfig(replicates=150, level=0.95, seed=2)
    result = paired_max_utility_test(data, data, CostCoefficients.zero_one(), config)
    assert result.diff == 0.0
    assert np.all(result.diffs == 0.0)
    assert result.p_value == 1.0
    assert result.low == 0.0 and result.high == 0.0


def test_paired_test_monotone_transform_is_exactly_null(rng):
    data = make_dataset(rng, 300, tie_decimals=3)
    transformed = LabeledScores(
        scores=monotone_transform(data.scores, "logit-shift", 0.8),
        labels=data.labels,
    )
    config = BootstrapConfig(replicates=120, level=0.95, seed=5)
    result = paired_max_utility_test(data, transformed, cost_family(0.5), config)
    assert np.all(result.diffs == 0.0)
    assert result.p_value == 1.0


def test_paired_test_antisymmetry(rng):
    config = SimStudyConfig(n_samples=500, n_realizations=1, master_seed=77)
    realization = generate_realization(config, 0)
    a = realization.dataset("bayes")
    b = realization.dataset("coarse")
    test_config = BootstrapConfig(replicates=200, level=0.95, seed=31)
    forward = paired_max_utility_test(a, b, CostCoefficients.zero_one(), test_config)
    backward = paired_max_utility_test(b, a, CostCoefficients.zero_one(), test_config)
    assert forward.diff == -backward.diff
    np.testing.assert_array_equal(forward.diffs, -backward.diffs)
    assert forward.p_value == backward.p_value
    # percentile interpolation is not bit-symmetric under negation, so the
    # mirrored interval matches only to rounding noise
    np.testing.assert_allclose(forward.low, -backward.high, rtol=0, atol=1e-12)
    np.testing.assert_allclose(forward.high, -backward.low, rtol=0, atol=1e-12)


def test_paired_test_p_value_floor():
    config = SimStudyConfig(n_samples=2000, n_realizations=1, master_seed=3)
    realization = generate_realization(config, 0)
    a = realization.dataset("bayes")
    b = realization.dataset("coarse")
    test_config = BootstrapConfig(replicates=200, level=0.95, seed=1)
    result = paired_max_utility_test(a, b, CostCoefficients.zero_one(), test_config)
    assert result.p_value >= 2.0 / 200
    # the informative scorer wins clearly at this sample size
    assert result.diff > 0.0


def test_paired_test_input_checks(rng):
    data = make_dataset(rng, 40)
    other = LabeledScores(scores=data.scores, labels=1 - data.labels)
    config = BootstrapConfig(replicates=150, level=0.95, seed=0)
    with pytest.raises(ValidationError, match="identical labels"):
        paired_max_utility_test(data, other, CostCoefficients.zero_one(), config)
    shorter = data.take(np.arange(20))
    with pytest.raises(ValidationError, match="equal sizes"):
        paired_max_utility_test(data, shorter, CostCoefficients.zero_one(), config)


def test_paired_test_with_per_sample_coefficients(rng):
    data = make_dataset(rng, 90, tie_decimals=2)
    flipped = LabeledScores(scores=1.0 - data.scores, labels=data.labels)
    coefficients = CostCoefficients(1.0, rng.random(90), rng.random(90), 1.0)
    config = BootstrapConfig(replicates=120, level=0.95, seed=8)
    result = paired_max_utility_test(data, flipped, coefficients, config)
    again = paired_max_utility_test(data, flipped, coefficients, config)
    np.testing.assert_array_equal(result.diffs, again.diffs)


def test_bootstrap_config_validation():
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=0, level=0.95, seed=0)
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=100, level=0.0, seed=0)
