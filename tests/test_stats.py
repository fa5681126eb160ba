import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from utileval import (
    BootstrapConfig,
    CostCoefficients,
    DecisionRule,
    DegenerateDataError,
    LabeledScores,
    SimStudyConfig,
    ValidationError,
    accuracy,
    age_discounted_coeffs,
    auc_rank,
    bootstrap_ci,
    brier,
    calibration_curve,
    cost_family,
    ece,
    generate_realization,
    monotone_transform,
    net_trust,
    paired_max_utility_test,
    sem,
    utility_curve,
)
from utileval.stats import BOOTSTRAP_METRICS, percentiles, resample
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
    # accuracy varies from draw to draw; "auc" and "accuracy" read the draw's
    # run counts, "sample_auc" the drawn dataset
    scores = np.concatenate([rng.random(40) * 0.5, [0.9]])
    labels = np.array([0] * 40 + [1])
    datasets = [
        LabeledScores(scores=scores, labels=labels),
        LabeledScores(scores=rng.random(41), labels=labels),
    ]
    statistics = {
        "auc": BOOTSTRAP_METRICS["auc"],
        "accuracy": BOOTSTRAP_METRICS["accuracy"],
        "sample_auc": lambda replicate: auc_rank(replicate.data.take(replicate.indices)),
    }
    reference = {
        "auc": auc_rank,
        "accuracy": lambda data: accuracy(data, DecisionRule(0.5)),
        "sample_auc": auc_rank,
    }
    values, redraws = resample(datasets, statistics, 150, seed=4)

    def alone(data, metric):
        rng = np.random.default_rng(np.random.SeedSequence([4]))
        out, skipped = [], 0
        while len(out) < 150:
            sample = data.take(rng.integers(0, data.n, data.n))
            if metric != "accuracy" and sample.labels.min() == sample.labels.max():
                skipped += 1
                continue
            out.append(reference[metric](sample))
        return np.array(out), skipped

    for i, data in enumerate(datasets):
        for metric in statistics:
            expected, skipped = alone(data, metric)
            assert values[i][metric].tobytes() == expected.tobytes()
            assert redraws[i][metric] == skipped
    assert redraws[0]["auc"] > 0 and redraws[0]["accuracy"] == 0
    assert np.unique(values[1]["accuracy"]).size > 1


# each built-in metric of the drawn dataset, as the drawn dataset's own code
# computes it
_METRICS_OF_SAMPLE = {
    "auc": lambda data, _, bins: auc_rank(data),
    "brier": lambda data, _, bins: brier(data),
    "accuracy": lambda data, _, bins: accuracy(data, DecisionRule(0.5)),
    "ece": lambda data, _, bins: ece(calibration_curve(data, bins=bins)),
    "net_trust": lambda data, _, bins: net_trust(data),
    "u_max": lambda data, coefficients, bins: utility_curve(data, coefficients).max_utility,
}


def _score_column(rng, n, kind):
    if kind == "continuous":
        return rng.random(n)
    if kind == "signed zeros":
        # runs of zeros holding both signs, beside tied nonzero runs
        scores = np.round(rng.random(n), 1)
        zero = rng.random(n) < 0.3
        scores[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        return scores
    if kind == "clusters":
        # a run of -0.0 and 0.0 rows, a cluster of ties and a few lone rows:
        # most bins are empty, and draws miss whole occupied bins
        scores = np.round(0.05 + 0.1 * rng.random(n), 2)
        scores[::3] = np.where(rng.random(scores[::3].size) < 0.5, -0.0, 0.0)
        scores[1::11] = rng.choice([0.49, 0.51, 0.93], scores[1::11].size)
        return scores
    return np.round(rng.random(n), kind)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kinds=st.lists(
        st.sampled_from(["continuous", 0, 1, 2, 3, "signed zeros", "clusters"]),
        min_size=1,
        max_size=3,
    ),
    single_positive=st.booleans(),
    bins=st.sampled_from([2, 3, 10, 37, 2**53]),
    costs=st.sampled_from(["constant", "age", "extreme"]),
)
@example(seed=4, n=30, kinds=["clusters"], single_positive=False, bins=2, costs="constant")
@example(seed=4, n=45, kinds=["clusters"], single_positive=False, bins=10, costs="constant")
@example(seed=5, n=50, kinds=["clusters"], single_positive=False, bins=37, costs="age")
# draws that miss whole runs: a u_max of 0.0, and one whose maximum is tied
# by zeros of both signs, where the first maximum sets the sign
@example(seed=2, n=8, kinds=["clusters"], single_positive=False, bins=10, costs="extreme")
@example(seed=4, n=31, kinds=["clusters"], single_positive=False, bins=10, costs="extreme")
def test_bootstrap_metrics_read_from_counts_equal_the_drawn_dataset(
    seed, n, kinds, single_positive, bins, costs
):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(np.int64)
    if single_positive:
        # most draws miss the one positive, so AUC redraws often
        labels[:] = 0
        labels[rng.integers(0, n)] = 1
    elif labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    datasets = [LabeledScores(scores=_score_column(rng, n, kind), labels=labels) for kind in kinds]
    if costs == "age":
        ages = np.round(rng.random(n) * 100, 1)
        coefficients = age_discounted_coeffs(
            LabeledScores(scores=np.zeros(n), labels=labels, context={"age": ages})
        )
    elif costs == "extreme":
        # per-row coefficients from part of a pool that spans zero, subnormals
        # and 1e300, so some draws' utilities round to zeros of either sign
        pool = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300])
        part = np.union1d(pool[rng.random(pool.size) < 0.5], [rng.choice(pool[1:])])
        vectors = [rng.choice(part, n) for _ in range(4)]
        vectors[0][0] = part[-1]
        coefficients = CostCoefficients(*vectors)
    else:
        coefficients = CostCoefficients.constant(*(rng.random(4) * 3 + 0.01))
    replicates = 6
    statistics = {name: partial(f, bins=bins) for name, f in BOOTSTRAP_METRICS.items()}
    values, redraws = resample(datasets, statistics, replicates, seed, coefficients)

    for i, data in enumerate(datasets):
        for name, metric in _METRICS_OF_SAMPLE.items():
            draws = np.random.default_rng(np.random.SeedSequence([seed]))
            expected, skipped = [], 0
            while len(expected) < replicates:
                idx = draws.integers(0, n, n)
                sample = data.take(idx)
                if name == "auc" and sample.labels.min() == sample.labels.max():
                    skipped += 1
                    continue
                expected.append(metric(sample, coefficients.take(idx), bins))
            assert values[i][name].tobytes() == np.array(expected).tobytes(), name
            assert redraws[i][name] == skipped, name


def test_percentiles_equal_numpy_bit_for_bit():
    # NumPy partitions a copy, so which of tied -0.0 and 0.0 lands at a
    # position depends on its partition, and a NaN makes its column NaN
    rng = np.random.default_rng(11)
    pools = [None, [-0.0, 0.0], [-0.0, 0.0, 0.25, -1.0], [-0.0, 0.0, 0.5, np.nan]]
    grids = [[0.0], [100.0], [0.0, 100.0], [2.5, 97.5], [16.0, 84.0], [16.0, 50.0, 84.0]]
    for case in range(1200):
        n = [1, 2, 3, 8, 9, 100, 257][case % 7]
        pool = pools[case % 4]
        columns = 1 + case % 3 if case % 5 < 2 else 0
        shape = (n, columns) if columns else (n,)
        values = rng.random(shape) if pool is None else rng.choice(pool, shape)
        q = list(rng.random(3) * 100) if case % 11 == 0 else grids[case % 6]
        expected = np.percentile(values, q, axis=0)
        got = percentiles(values, q)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (values, q)


def test_bootstrap_point_estimates_are_the_metrics_of_the_data(rng):
    data = LabeledScores(scores=_score_column(rng, 80, "signed zeros"), labels=rng.integers(0, 2, 80))
    config = BootstrapConfig(replicates=100, level=0.95, seed=1)
    for coefficients in (cost_family(1.5), CostCoefficients(1.0, rng.random(80), 0.5, 1.0)):
        for name, metric in _METRICS_OF_SAMPLE.items():
            result = bootstrap_ci(data, name, config, coefficients, bins=7)
            assert result.point.hex() == float(metric(data, coefficients, 7)).hex(), name


def test_resample_vector_statistic_and_validation(rng):
    data = make_dataset(rng, 30)

    def extremes(replicate):
        drawn = replicate.data.scores[replicate.indices]
        return [drawn.min(), drawn.max()]

    values, _ = resample([data], {"pair": extremes}, 7, 0)
    assert values[0]["pair"].shape == (7, 2)
    empty, _ = resample([data], {"pair": lambda r: [0.0, 1.0]}, 0, 0)
    assert empty[0]["pair"].size == 0
    with pytest.raises(ValidationError, match="replicates must be >= 0"):
        resample([data], {}, -1, 0)


def test_resample_refuses_inputs_that_are_not_row_aligned(rng):
    a, b = make_dataset(rng, 10), make_dataset(rng, 6)
    drawn = []
    statistics = {"record": lambda replicate: drawn.append(replicate.indices) or 0.0}
    aligned = "^datasets must be row-aligned, got {} and {} rows$"
    with pytest.raises(ValidationError, match=aligned.format(10, 6)):
        resample([a, b], statistics, 5, 0)
    with pytest.raises(ValidationError, match=aligned.format(6, 10)):
        resample([b, a], statistics, 5, 0)
    short = CostCoefficients(1.0, rng.random(6), 0.5, 1.0)
    with pytest.raises(ValidationError, match="^coefficient length 6 does not match data length 10$"):
        resample([a], statistics, 5, 0, short)
    # each is refused before the first draw
    assert drawn == []


def test_resample_gathers_no_coefficients_per_draw(rng, monkeypatch):
    # per-sample u_max reads the contributions its source made once
    data = make_dataset(rng, 40)
    coefficients = CostCoefficients(1.0, rng.random(40), rng.random(40), 1.0)
    taken = []
    original = CostCoefficients.take

    def counting_take(self, indices):
        taken.append(indices)
        return original(self, indices)

    monkeypatch.setattr(CostCoefficients, "take", counting_take)
    values, _ = resample([data], {"u_max": BOOTSTRAP_METRICS["u_max"]}, 5, 3, coefficients)
    assert values[0]["u_max"].shape == (5,)
    assert taken == []


def test_resample_redraw_budget_is_exhausted():
    data = LabeledScores(scores=[0.2, 0.8], labels=[0, 1])

    def never(_replicate):
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
    for replicates in (math.inf, -math.inf, math.nan, 150.5):
        with pytest.raises(ValidationError, match=f"^replicates must be an integer, got {replicates}"):
            BootstrapConfig(replicates=replicates, level=0.95, seed=0)
    assert BootstrapConfig(replicates=150.0).replicates == 150
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=100, level=0.0, seed=0)
