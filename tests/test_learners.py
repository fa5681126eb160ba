import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from utileval import learners
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
    standardized = FeatureMatrix.from_arrays(train).standardize()
    a = standardized.values
    b = standardized.transform(FeatureMatrix.from_arrays(test)).values
    d2 = (b**2).sum(axis=1)[:, None] + (a**2).sum(axis=1)[None, :] - 2.0 * (b @ a.T)
    order = np.argsort(d2, axis=1, kind="stable")
    return np.cumsum(labels[order], axis=1)[:, np.asarray(ks) - 1]


def _knn_counts(train, labels, test, ks):
    return learners._knn_counts(
        FeatureMatrix.from_arrays(train), labels, FeatureMatrix.from_arrays(test), ks
    )


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
    for ks in (every_k, some_k, [n_train]):
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
    monkeypatch.setattr(learners, "_KNN_BLOCK_CELLS", rows_per_block * ks.size * n_train)
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
