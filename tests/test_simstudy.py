import numpy as np
import pytest

from utileval import (
    CLASSIFIERS,
    CostCoefficients,
    SimStudyConfig,
    ValidationError,
    brier,
    calibration_curve,
    cost_family,
    ece,
    generate_realization,
    net_trust,
    preserves_ranking,
    run_study,
    utility_at_thresholds,
    utility_curve,
)
from utileval.cli import main

SMALL = SimStudyConfig(n_samples=600, n_realizations=6, master_seed=42)


def test_generation_is_deterministic():
    a = generate_realization(SMALL, 3)
    b = generate_realization(SimStudyConfig(600, 6, 42), 3)
    np.testing.assert_array_equal(a.bayes_scores, b.bayes_scores)
    np.testing.assert_array_equal(a.shifted_scores, b.shifted_scores)
    np.testing.assert_array_equal(a.coarse_scores, b.coarse_scores)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_realizations_differ_and_are_index_checked():
    a = generate_realization(SMALL, 0)
    b = generate_realization(SMALL, 1)
    assert not np.array_equal(a.labels, b.labels)
    with pytest.raises(ValidationError):
        generate_realization(SMALL, -1)
    with pytest.raises(ValidationError):
        generate_realization(SMALL, 6)


def test_scores_are_valid_probabilities():
    realization = generate_realization(SMALL, 0)
    for name in CLASSIFIERS:
        data = realization.dataset(name)
        assert data.n == 600
        assert np.all((data.scores > 0.0) & (data.scores < 1.0))
    with pytest.raises(ValidationError, match="unknown classifier"):
        realization.dataset("oracle")


def test_positive_rate_is_balanced():
    config = SimStudyConfig(n_samples=15000, n_realizations=3, master_seed=7)
    for index in range(3):
        labels = generate_realization(config, index).labels
        assert 0.47 < labels.mean() < 0.53


def test_shifted_preserves_order_and_coarse_does_not():
    realization = generate_realization(SMALL, 2)
    assert preserves_ranking(realization.shifted_scores, realization.bayes_scores)
    assert not preserves_ranking(realization.coarse_scores, realization.bayes_scores)


def test_run_study_summary_shape_and_determinism():
    summary = run_study(SMALL)
    assert summary.normal_method == "inverse-cdf"
    assert set(summary.values) == set(CLASSIFIERS)
    for name in CLASSIFIERS:
        metrics = summary.values[name]
        assert set(metrics) == {
            "max_utility",
            "accuracy_best",
            "accuracy_at_half",
            "brier",
            "ece",
            "net_trust",
        }
        for series in metrics.values():
            assert series.shape == (6,)
        for triple in summary.bands[name].values():
            assert len(triple) == 3
            assert triple[0] <= triple[1] <= triple[2]
    assert summary.positive_rate.shape == (6,)
    again = run_study(SMALL)
    for name in CLASSIFIERS:
        for metric, series in summary.values[name].items():
            np.testing.assert_array_equal(series, again.values[name][metric])


def test_accuracy_best_equals_max_utility_for_default_coefficients():
    summary = run_study(SMALL)
    for name in CLASSIFIERS:
        np.testing.assert_array_equal(
            summary.values[name]["max_utility"], summary.values[name]["accuracy_best"]
        )


def test_accuracy_best_with_other_coefficients():
    config = SimStudyConfig(
        n_samples=300, n_realizations=2, master_seed=5, coefficients=cost_family(2.0)
    )
    summary = run_study(config)
    for name in CLASSIFIERS:
        values = summary.values[name]
        # the cost-weighted optimum is a different quantity than best accuracy
        assert not np.array_equal(values["max_utility"], values["accuracy_best"])
        assert np.all(values["accuracy_best"] >= values["accuracy_at_half"])


def test_grid_utilities_never_exceed_sweep_maximum():
    coefficients = cost_family(1.0)
    realization = generate_realization(SMALL, 1)
    grid = np.linspace(0.0, 1.0, 101)
    for name in CLASSIFIERS:
        data = realization.dataset(name)
        best = utility_curve(data, coefficients).max_utility
        assert np.all(utility_at_thresholds(data, coefficients, grid) <= best)


def test_threshold_bands():
    from utileval import utility_threshold_curves

    bands = utility_threshold_curves(SMALL, cost_family(0.5), grid_size=41)
    assert bands.thresholds.shape == (41,)
    assert bands.thresholds[0] == 0.0 and bands.thresholds[-1] == 1.0
    for name in CLASSIFIERS:
        stats = bands.stats[name]
        for key in ("mean", "p16", "p84"):
            assert stats[key].shape == (41,)
        assert np.all(stats["p16"] <= stats["p84"])
    with pytest.raises(ValidationError):
        utility_threshold_curves(SMALL, grid_size=1)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimStudyConfig(n_samples=5)
    with pytest.raises(ValidationError):
        SimStudyConfig(n_realizations=0)
    default = SimStudyConfig()
    assert default.n_samples == 15000
    assert default.n_realizations == 400
    assert default.coefficients.is_constant


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("bins", [10, 7])
def test_simulate_tables_match_per_realization_references(tmp_path, bins):
    config = SimStudyConfig(n_samples=400, n_realizations=5, master_seed=23)
    out = tmp_path / "sim"
    argv = ["simulate", "--samples", "400", "--realizations", "5", "--seed", "23"]
    options = ["--grid", "21", "--cost", "2", "--bins", str(bins), "--out-dir", str(out)]
    assert main(argv + options) == 0

    zero_one = CostCoefficients.zero_one()
    panels = {"zero_one": zero_one, "cost": cost_family(2.0)}
    thresholds = np.linspace(0.0, 1.0, 21)
    metrics = []
    grids = {panel: {name: [] for name in CLASSIFIERS} for panel in panels}
    pooled = {name: {} for name in CLASSIFIERS}
    for r in range(config.n_realizations):
        realization = generate_realization(config, r)
        for name in CLASSIFIERS:
            data = realization.dataset(name)
            best = utility_curve(data, zero_one).max_utility
            at_half = np.mean((data.scores >= 0.5) == (data.labels == 1))
            calibration = ece(calibration_curve(data, bins=10))
            # columns in sorted metric-name order
            values = (at_half, best, brier(data), calibration, best, net_trust(data))
            metrics.append((name, r, *values))
            for panel, coefficients in panels.items():
                grids[panel][name].append(utility_at_thresholds(data, coefficients, thresholds))
            for b in calibration_curve(data, bins=bins).bins:
                pooled[name].setdefault(b.bin_index, []).append(b)
    metrics.sort(key=lambda row: CLASSIFIERS.index(row[0]))

    rows = _csv_rows(out / "simulate_distributions.csv")
    assert [(c, int(r), *map(float, v)) for c, r, *v in rows] == metrics
    for panel in panels:
        expected = []
        for name in CLASSIFIERS:
            block = np.array(grids[panel][name])
            p16, p84 = np.percentile(block, [16.0, 84.0], axis=0)
            expected += zip([name] * 21, thresholds, block.mean(axis=0), p16, p84)
        rows = _csv_rows(out / f"simulate_utility_{panel}.csv")
        assert [(c, *map(float, v)) for c, *v in rows] == expected
    expected = []
    for name in CLASSIFIERS:
        for index, group in sorted(pooled[name].items()):
            observed = np.array([b.observed_frequency for b in group])
            p16, p84 = np.percentile(observed, [16.0, 84.0])
            predicted = np.mean([b.mean_predicted for b in group])
            count = np.mean([b.count for b in group])
            expected.append((name, index, predicted, observed.mean(), p16, p84, count))
    rows = _csv_rows(out / "simulate_calibration.csv")
    assert [(c, int(i), *map(float, v)) for c, i, *v in rows] == expected
