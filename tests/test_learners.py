import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from utileval import learners
from utileval.dataio import read_features
from utileval.metrics import auc_from_runs
from utileval.utility import ContributionDigits
from utileval import (
    ConvergenceError,
    CostCoefficients,
    DegenerateDataError,
    FeatureMatrix,
    LabeledScores,
    ValidationError,
    auc_rank,
    cost_family,
    fit_logistic,
    kfold_cv,
    knn_scores,
    tune_and_compare,
)


def _blobs(rng, n_per_class, spread=1.0, gap=4.0, d=2):
    neg = rng.normal(0.0, spread, size=(n_per_class, d))
    pos = rng.normal(gap, spread, size=(n_per_class, d))
    X = np.vstack([neg, pos])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def test_logistic_separable_data():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_logistic(X, y)
    scores = model.predict_scores(X)
    assert auc_rank(LabeledScores(scores=scores, labels=y)) == 1.0
    assert model.iterations >= 1


def test_logistic_constant_features_give_base_rate():
    X = np.full((8, 2), 3.0)
    y = np.array([0, 1, 1, 1, 0, 1, 1, 1])
    model = fit_logistic(X, y)
    scores = model.predict_scores(X)
    assert np.allclose(scores, scores[0])
    assert scores[0] == pytest.approx(0.75, abs=1e-3)
    assert model.feature_names == ()  # constant columns are dropped


def test_logistic_affine_feature_invariance(rng):
    X, y = _blobs(rng, 60, spread=2.0, gap=2.0)
    base = fit_logistic(X, y).predict_scores(X)
    rescaled = fit_logistic(X * 37.0 - 11.0, y).predict_scores(X * 37.0 - 11.0)
    assert np.allclose(base, rescaled, atol=1e-6)


def test_logistic_degenerate_inputs():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(DegenerateDataError):
        fit_logistic(X, np.array([1, 1]))
    with pytest.raises(ValidationError, match="more rows"):
        fit_logistic(np.eye(3), np.array([0, 1, 1]))
    with pytest.raises(ValidationError, match="0 or 1"):
        fit_logistic(X, np.array([0, 2]))


def test_logistic_convergence_error_diagnostics(rng):
    X, y = _blobs(rng, 40)
    with pytest.raises(ConvergenceError) as info:
        fit_logistic(X, y, max_iter=1)
    err = info.value
    assert err.iterations == 1
    assert err.gradient_norm > 0.0
    assert np.isfinite(err.max_step)
    assert "did not converge" in str(err)


def test_logistic_uninformative_features(rng):
    X = rng.normal(size=(400, 3))
    y = rng.integers(0, 2, 400)
    model = fit_logistic(X, y)
    scores = model.predict_scores(X)
    assert 0.4 < auc_rank(LabeledScores(scores=scores, labels=y)) < 0.65


def test_logistic_predict_checks_columns(rng):
    X, y = _blobs(rng, 30)
    model = fit_logistic(FeatureMatrix.from_arrays(X, ["a", "b"]), y)
    with pytest.raises(ValidationError, match="missing"):
        model.predict_scores(FeatureMatrix.from_arrays(X, ["a", "c"]))


def test_knn_neighbor_fractions():
    train = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    test = np.array([[1.4]])
    # neighbor order from 1.4: features 1, 2, 0, 3
    assert knn_scores(train, y, test, k=1)[0] == 0.0
    assert knn_scores(train, y, test, k=2)[0] == 0.5
    assert knn_scores(train, y, test, k=3)[0] == pytest.approx(1 / 3)
    assert knn_scores(train, y, test, k=4)[0] == 0.5


def test_knn_distance_ties_prefer_lower_index():
    train = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    test = np.array([[1.0]])  # exactly equidistant
    assert knn_scores(train, y, test, k=1)[0] == 1.0


def test_knn_k_equals_n_gives_constant_scores(rng):
    X, y = _blobs(rng, 25)
    scores = knn_scores(X, y, X, k=50)
    assert np.all(scores == scores[0])
    assert auc_rank(LabeledScores(scores=scores, labels=y)) == 0.5


def test_knn_k_validation(rng):
    X, y = _blobs(rng, 5)
    with pytest.raises(ValidationError):
        knn_scores(X, y, X, k=0)
    with pytest.raises(ValidationError):
        knn_scores(X, y, X, k=11)
    with pytest.raises(ValidationError, match="must be an integer"):
        knn_scores(X, y, X, k=2.5)


def _counts_reference(train, labels, test, ks):
    # positives among the first k of a stable argsort of the squared distances
    matrix = FeatureMatrix.from_arrays(train)
    standardized = matrix.standardize()
    a = standardized.values
    # the test rows' kept columns, scaled by the training rows' statistics
    kept = [matrix.names.index(name) for name in standardized.names]
    b = (np.asarray(test, dtype=np.float64)[:, kept] - standardized.means) / standardized.stds
    d2 = (b**2).sum(axis=1)[:, None] + (a**2).sum(axis=1)[None, :] - 2.0 * (b @ a.T)
    order = np.argsort(d2, axis=1, kind="stable")
    return np.cumsum(labels[order], axis=1)[:, np.asarray(ks) - 1]


def _knn_counts(train, labels, test, ks):
    # one fold: the test rows follow the training rows
    values = np.vstack([train, test]).astype(float)
    order = np.arange(len(values))
    return learners._knn_counts(values, labels, order, [len(train)], len(test), ks)[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_train=st.integers(1, 60),
    n_test=st.integers(1, 30),
    d=st.integers(1, 3),
    levels=st.sampled_from([None, 2, 3, 5]),
)
def test_knn_counts_match_a_stable_argsort(seed, n_train, n_test, d, levels):
    # small integer levels tie distances across every k; None is continuous
    rng = np.random.default_rng(seed)
    if levels is None:
        train, test = rng.normal(size=(n_train, d)), rng.normal(size=(n_test, d))
    else:
        train, test = rng.integers(0, levels, (n_train, d)), rng.integers(0, levels, (n_test, d))
    labels = rng.integers(0, 2, n_train)
    every_k = np.arange(1, n_train + 1)
    some_k = np.unique(rng.integers(1, n_train + 1, 3))
    # tune_and_compare passes [k_auc, k_acc]: unsorted, or one k twice
    for ks in (every_k, some_k, [n_train], some_k[::-1], [some_k[-1]] * 2):
        got = _knn_counts(train, labels, test, ks)
        assert got.dtype == np.int64
        assert np.array_equal(got, _counts_reference(train, labels, test, ks))


@pytest.mark.parametrize("rows_per_block", [1, 3, 7, 1000])
def test_knn_counts_blocks_over_test_rows(monkeypatch, rows_per_block):
    # balanced +-1 training columns standardize to themselves and integer
    # test rows stay integers, so every distance is exact however the
    # products are blocked
    rng = np.random.default_rng(rows_per_block)
    n_train, ks = 40, np.arange(1, 41)
    train = np.column_stack([rng.permutation(np.repeat([-1.0, 1.0], n_train // 2)) for _ in range(3)])
    test = rng.integers(-2, 3, (50, 3)).astype(float)
    labels = rng.integers(0, 2, n_train)
    monkeypatch.setattr(learners, "_KNN_BLOCK_CELLS", rows_per_block * n_train)
    got = _knn_counts(train, labels, test, ks)
    assert np.array_equal(got, _counts_reference(train, labels, test, ks))


def test_knn_counts_fall_back_where_distances_differ_only_in_the_last_bit():
    # balanced +-1 training columns standardize to themselves, so the test
    # row (-gap / 4, gap / 4, 0) is at the exact distances 3 - gap, 3 and
    # 3 + gap, gap being one unit in the last place of 3: 2, 6 and 2 rows.
    # 3 and 3 + gap differ in the last bit alone: with that bit replaced by
    # the label, the positives at 3 sort after the negatives at 3 + gap
    gap = np.nextafter(3.0, 4.0) - 3.0
    first = np.repeat([-1.0, 1.0, -1.0, 1.0], [2, 3, 3, 2])
    second = np.repeat([1.0, 1.0, -1.0, -1.0], [2, 3, 3, 2])
    train = np.column_stack([first, second, np.tile([-1.0, 1.0], 5)])
    labels = np.repeat([0, 1, 0], [2, 6, 2])
    test = np.array([[-gap / 4, gap / 4, 0.0]])
    ks = np.arange(1, 11)
    reference = _counts_reference(train, labels, test, ks)
    assert reference[0, 7] == 6
    # the 8th nearest is at 3 and the 9th at 3 + gap
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        got = _knn_counts(train, labels, test, [8])
    assert [call.args[0].shape for call in argsort.call_args_list] == [(1, 10)]
    assert np.array_equal(got, reference[:, [7]])
    assert np.array_equal(_knn_counts(train, labels, test, ks), reference)


def test_knn_counts_of_test_rows_equal_to_training_rows():
    # a row's distance to itself cancels to a tiny value of either sign
    rng = np.random.default_rng(3)
    train = rng.normal(size=(40, 4)) * [1.0, 1e3, 1e-3, 7.0]
    labels = rng.integers(0, 2, 40)
    test = train[::3]
    # some of the reference's distances from a test row to its own copy are
    # below zero
    a = FeatureMatrix.from_arrays(train).standardize().values
    d2 = (a[::3] ** 2).sum(axis=1)[:, None] + (a**2).sum(axis=1) - 2.0 * (a[::3] @ a.T)
    assert (d2[np.arange(14), np.arange(0, 40, 3)] < 0.0).any()
    ks = np.arange(1, 41)
    got = _knn_counts(train, labels, test, ks)
    assert np.array_equal(got, _counts_reference(train, labels, test, ks))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kfold_cv_fold_metrics_equal_per_column_references(seed):
    # tied integer features; some 6-row folds hold a single class
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (60, 2)).astype(float)
    y = (rng.random(60) < 0.1 + 0.1 * X[:, 0]).astype(int)
    k_grid = [1, 2, 4, 9, 20, 54]
    result = kfold_cv(X, y, n_folds=10, k_grid=k_grid, seed=seed)
    folds = np.array_split(np.random.default_rng(np.random.SeedSequence([seed])).permutation(60), 10)
    auc = np.empty((10, len(k_grid)))
    accuracy = np.empty((10, len(k_grid)))
    for f, test_idx in enumerate(folds):
        train_idx = np.concatenate(folds[:f] + folds[f + 1 :])
        for column, k in enumerate(k_grid):
            scores = knn_scores(X[train_idx], y[train_idx], X[test_idx], k)
            labels = y[test_idx]
            accuracy[f, column] = np.mean((scores >= 0.5) == (labels == 1))
            auc[f, column] = (
                np.nan
                if labels.min() == labels.max()
                else auc_rank(LabeledScores(scores=scores, labels=labels))
            )
    assert list(result.fold) == ["auc", "accuracy"]
    assert result.fold["auc"].tobytes() == auc.tobytes()
    assert result.fold["accuracy"].tobytes() == accuracy.tobytes()
    assert result.skipped_auc_folds == tuple(np.flatnonzero(np.isnan(auc[:, 0])))
    assert result.skipped_auc_folds


def _kfold_reference(X, y, n_folds, ks, seed):
    # one fold at a time: standardize its training rows, rank its test rows'
    # neighbours by a stable argsort, and read each k's AUC from that k's own
    # count histogram
    X = np.asarray(X, dtype=float)
    permutation = np.random.default_rng(np.random.SeedSequence([seed])).permutation(len(y))
    folds = np.array_split(permutation, n_folds)
    auc = np.full((n_folds, len(ks)), np.nan)
    accuracy = np.empty((n_folds, len(ks)))
    for f, test_idx in enumerate(folds):
        train_idx = np.concatenate(folds[:f] + folds[f + 1 :])
        counts = _counts_reference(X[train_idx], y[train_idx], X[test_idx], ks)
        labels = y[test_idx]
        accuracy[f] = np.mean((counts / np.asarray(ks) >= 0.5) == (labels == 1)[:, None], axis=0)
        if labels.min() == labels.max():
            continue
        for column, k in enumerate(ks):
            rows = np.bincount(counts[:, column], minlength=k + 1)
            positives = np.bincount(counts[labels == 1, column], minlength=k + 1)
            auc[f, column] = auc_from_runs(
                np.concatenate(([0], np.cumsum(rows))), np.concatenate(([0], np.cumsum(positives)))
            )
    return auc, accuracy


def _assert_kfold_matches_reference(X, y, n_folds, ks, seed):
    auc, accuracy = _kfold_reference(X, y, n_folds, ks, seed)
    skipped = tuple(np.flatnonzero(np.isnan(auc[:, 0])).tolist())
    if len(skipped) == n_folds:
        with pytest.raises(DegenerateDataError):
            kfold_cv(X, y, n_folds, ks, seed)
        return
    result = kfold_cv(X, y, n_folds, ks, seed)
    assert np.array_equal(result.fold["auc"], auc, equal_nan=True)
    assert np.array_equal(result.fold["accuracy"], accuracy)
    assert result.skipped_auc_folds == skipped


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    d=st.integers(1, 10),
    levels=st.sampled_from([None, 2, 3, 4, 5]),
    fold_count=st.sampled_from(["two", "n - 1", "any"]),
    columns=st.sampled_from(["varied", "constant in one fold's training part", "constant"]),
    positives=st.sampled_from([0.5, 0.1]),
    budget=st.sampled_from(["default", "one fold per block", "one block"]),
)
# one-row folds of tied levels, where a product or squared norm summed in
# another order than one fold's moves a distance across a tie
@example(57945944, 15, 4, 4, "n - 1", "varied", 0.5, "default")
@example(0, 10, 9, 2, "n - 1", "varied", 0.5, "default")
def test_stacked_kfold_cv_equals_one_fold_at_a_time(
    seed, n, d, levels, fold_count, columns, positives, budget
):
    # integer levels tie distances across every k; None is continuous
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) if levels is None else rng.integers(0, levels, (n, d)).astype(float)
    if columns == "constant":
        X[:] = 1.5
    elif columns != "varied":
        # constant in the training part of the one fold that tests row 0 only
        X[:, 0] = 0.25
        X[0, 0] = 4.0
    y = (rng.random(n) < positives).astype(np.int64)
    n_folds = {"two": 2, "n - 1": n - 1, "any": int(rng.integers(2, n))}[fold_count]
    largest = -(-n // n_folds)
    ks = np.unique(rng.integers(1, n - largest + 1, 4)).tolist()
    cells = {
        "default": learners._KNN_BLOCK_CELLS,
        # every fold's training values and distances, but never two
        "one fold per block": max((n - size) * (d + size) for size in {n // n_folds, largest}),
        "one block": 2**62,
    }[budget]
    with mock.patch.object(learners, "_KNN_BLOCK_CELLS", cells):
        _assert_kfold_matches_reference(X, y, n_folds, ks, int(seed % 2**31))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kfold_cv_on_the_bundled_data_equals_one_fold_at_a_time(seed):
    # the stacked products and sums must round as one fold's do on whatever
    # BLAS runs the suite, not only on the one the report digests came from
    table = read_features(Path(__file__).resolve().parents[1] / "data" / "breast_cancer.csv")
    _assert_kfold_matches_reference(
        table.features.values, table.labels, 20, [5, 15, 45, 85, 151, 201], seed
    )


@pytest.mark.parametrize("n", [40, 41])
def test_kfold_cv_refuses_with_the_first_failing_fold_s_message(n):
    # column 1 spans 1e-150 except one 1e200 cell, tested in fold 0: fold 0's
    # training part standardizes, but that cell's distance overflows; every
    # other fold trains on the cell, so its spread overflows.  One fold at a
    # time, fold 0 refuses first, for its distances (at n = 41 it is also the
    # one fold of its size)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 2))
    X[:, 1] *= 1e-150
    fold_0 = np.array_split(np.random.default_rng(np.random.SeedSequence([0])).permutation(n), 4)[0]
    X[fold_0[0], 1] = 1e200
    y = np.arange(n) % 2
    for cells in (learners._KNN_BLOCK_CELLS, 2**62):
        with mock.patch.object(learners, "_KNN_BLOCK_CELLS", cells):
            with pytest.raises(ValidationError) as excinfo:
                kfold_cv(X, y, 4, [1, 3], seed=0)
        assert str(excinfo.value) == (
            "feature values are too far apart for float64 distances after standardizing"
        )


def test_kfold_cv_shapes_and_determinism(rng):
    X, y = _blobs(rng, 40, spread=2.5, gap=1.5)
    result = kfold_cv(X, y, n_folds=5, k_grid=[1, 3, 7], seed=11)
    assert result.k_grid == (1, 3, 7)
    assert result.fold["auc"].shape == (5, 3)
    assert result.fold["accuracy"].shape == (5, 3)
    assert result.best_k["auc"] in (1, 3, 7)
    again = kfold_cv(X, y, n_folds=5, k_grid=[1, 3, 7], seed=11)
    np.testing.assert_array_equal(result.fold["auc"], again.fold["auc"])
    shuffled = kfold_cv(X, y, n_folds=5, k_grid=[1, 3, 7], seed=12)
    assert not np.array_equal(result.fold["auc"], shuffled.fold["auc"])


def test_kfold_cv_tied_means_pick_smaller_k(rng):
    # far-apart blobs: every k scores AUC 1 in every fold, so the tie must
    # resolve to the smallest k
    X, y = _blobs(rng, 30, spread=0.3, gap=10.0)
    result = kfold_cv(X, y, n_folds=5, k_grid=[1, 3, 5], seed=3)
    assert np.all(result.fold["auc"] == 1.0)
    assert result.best_k["auc"] == 1


def test_kfold_cv_single_class_folds(rng):
    # one positive among 20 rows: folds without it have undefined AUC
    X = rng.normal(size=(20, 2))
    y = np.zeros(20, dtype=int)
    y[3] = 1
    result = kfold_cv(X, y, n_folds=5, k_grid=[1, 3], seed=0)
    assert len(result.skipped_auc_folds) == 4
    assert np.isnan(result.fold["auc"][list(result.skipped_auc_folds)]).all()
    assert np.isfinite(result.mean["auc"]).all()
    # with no positives at all, AUC is undefined in every fold
    with pytest.raises(DegenerateDataError):
        kfold_cv(X, np.zeros(20, dtype=int), n_folds=5, k_grid=[1, 3], seed=0)


def test_kfold_cv_validation(rng):
    X, y = _blobs(rng, 10)
    with pytest.raises(ValidationError, match="n_folds"):
        kfold_cv(X, y, n_folds=1, k_grid=[1], seed=0)
    with pytest.raises(ValidationError, match="strictly increasing"):
        kfold_cv(X, y, n_folds=4, k_grid=[3, 3], seed=0)
    with pytest.raises(ValidationError, match="non-empty"):
        kfold_cv(X, y, n_folds=4, k_grid=[], seed=0)
    with pytest.raises(ValidationError, match="exceeds"):
        # 20 rows in 4 folds leave only 15 training rows per fold
        kfold_cv(X, y, n_folds=4, k_grid=[16], seed=0)
    for k in (5.5, np.inf, np.nan):
        with pytest.raises(ValidationError, match="must be an integer"):
            kfold_cv(X, y, n_folds=4, k_grid=[1, k], seed=0)
    with pytest.raises(ValidationError, match="n_folds must be an integer, got 2.7"):
        kfold_cv(X, y, n_folds=2.7, k_grid=[1], seed=0)
    assert kfold_cv(X, y, n_folds=4.0, k_grid=[1], seed=0).n_folds == 4


@pytest.mark.parametrize(
    "name, value", [("repeats", 2.5), ("n_folds", 3.5), ("grid_size", 10.5), ("repeats", np.nan)]
)
def test_tune_refuses_non_integer_counts(rng, name, value):
    X, y = _blobs(rng, 20)
    arguments = {"repeats": 1, "n_folds": 3, "grid_size": 11, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value}$"):
        tune_and_compare(X, y, k_grid=[1], coefficients=cost_family(1.0), **arguments)
    # a float holding an integer is that integer
    arguments[name] = 2.0
    tune_and_compare(X, y, k_grid=[1], coefficients=cost_family(1.0), **arguments)


def test_tune_checks_fold_count_before_k_grid(rng):
    X, y = _blobs(rng, 20)
    for folds in (0, 1, 100):
        with pytest.raises(ValidationError, match=rf"n_folds must be in \[2, 28\], got {folds}$"):
            tune_and_compare(
                X, y, k_grid=[201], coefficients=cost_family(1.0), repeats=1, n_folds=folds
            )


def test_tune_and_compare_smoke(rng):
    X, y = _blobs(rng, 90, spread=2.0, gap=1.8)
    coefficients = cost_family(1.0)
    result = tune_and_compare(
        X, y, k_grid=[1, 5, 15], coefficients=coefficients, repeats=3, seed=21, n_folds=4
    )
    assert result.repeats == 3
    for mapping in (result.chosen_k, result.max_utility, result.cv, result.utility_grid):
        assert list(mapping) == ["auc", "accuracy"]
    assert result.cv["auc"].shape == (3, 3)
    assert result.cv["accuracy"].shape == (3, 3)
    assert result.thresholds.shape == (201,)
    assert set(result.chosen_k["auc"]) <= {1, 5, 15}
    assert set(result.chosen_k["accuracy"]) <= {1, 5, 15}
    # the sweep maximum dominates the fixed grid everywhere, exactly
    for criterion in ("auc", "accuracy"):
        assert np.all(result.utility_grid[criterion] <= result.max_utility[criterion][:, None])
    again = tune_and_compare(
        X, y, k_grid=[1, 5, 15], coefficients=coefficients, repeats=3, seed=21, n_folds=4
    )
    np.testing.assert_array_equal(result.max_utility["auc"], again.max_utility["auc"])
    np.testing.assert_array_equal(result.cv["accuracy"], again.cv["accuracy"])


def test_tune_per_sample_coefficients_follow_rows(rng):
    X, y = _blobs(rng, 50)
    n = len(y)
    coefficients = CostCoefficients(1.0, rng.random(n), rng.random(n), 1.0)
    result = tune_and_compare(
        X, y, k_grid=[3], coefficients=coefficients, repeats=2, seed=5, n_folds=3
    )
    assert np.isfinite(result.max_utility["auc"]).all()
    with pytest.raises(ValidationError, match="does not match"):
        tune_and_compare(
            X,
            y,
            k_grid=[3],
            coefficients=CostCoefficients(1.0, rng.random(7), 0.5, 1.0),
            repeats=1,
            seed=5,
            n_folds=3,
        )


def test_tune_builds_the_per_sample_digits_once_per_repeat_and_criterion(rng, monkeypatch):
    # the threshold grid is read from the swept curve, not swept again
    X, y = _blobs(rng, 50)
    coefficients = CostCoefficients(1.0, rng.random(len(y)), rng.random(len(y)), 1.0)
    builds = []
    original = ContributionDigits.__init__

    def counting_init(self, labels, coefficients):
        builds.append(labels.size)
        original(self, labels, coefficients)

    monkeypatch.setattr(ContributionDigits, "__init__", counting_init)
    tune_and_compare(X, y, k_grid=[3, 5], coefficients=coefficients, repeats=3, seed=5, n_folds=3)
    assert len(builds) == 2 * 3


def test_knn_refuses_features_whose_distances_overflow():
    labels = [0, 1, 0, 1, 0, 1]
    # a column spread over 1e300, and a test value far outside a tiny
    # training spread: both are finite, but their squared distances are not
    wide = np.array([[0.0], [1e300], [0.0], [1.0], [0.0], [2.0]])
    narrow = np.array([[0.0], [1e-150], [0.0], [0.0], [1e-150], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too far apart"):
            kfold_cv(wide, labels, 2, [1], seed=0)
        with pytest.raises(ValidationError, match="too far apart"):
            knn_scores(narrow, labels, [[1e10]], 1)
        # logistic regression standardizes through the same check
        with pytest.raises(ValidationError, match="too far apart"):
            fit_logistic(wide, labels)
        # and refuses new rows that overflow its training standardization
        model = fit_logistic(narrow, labels)
        with pytest.raises(ValidationError, match="too far apart"):
            model.predict_scores([[1e200]])


def test_feature_matrix_basics():
    with pytest.raises(ValidationError, match="2-D"):
        FeatureMatrix.from_arrays(np.zeros(3))
    with pytest.raises(ValidationError, match="unique"):
        FeatureMatrix.from_arrays(np.zeros((2, 2)), ["a", "a"])
    with pytest.raises(ValidationError, match="non-finite"):
        FeatureMatrix.from_arrays([[np.nan]])
    # the first bad cell in row order is named by row and column
    with pytest.raises(ValidationError) as excinfo:
        FeatureMatrix.from_arrays([[1.0, 2.0], [3.0, np.inf], [np.nan, 4.0]], ["x", "age"])
    assert str(excinfo.value) == "feature column 'age' contains a non-finite value at row 1: inf"
    matrix = FeatureMatrix.from_arrays([[1.0, 5.0], [3.0, 5.0]], ["x", "const"])
    subset = matrix.take([1])
    assert subset.names == matrix.names
    assert subset.values.tolist() == [[3.0, 5.0]]
    standardized = matrix.standardize()
    assert standardized.names == ("x",)
    assert np.allclose(standardized.values.mean(axis=0), 0.0)
