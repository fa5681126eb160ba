"""Built-in reference learners: ridge-stabilized logistic regression and kNN.

These exist so evaluation experiments can be run end to end without an
external modelling stack.  Both learners standardize features using training
statistics only, which makes the fitted scores invariant (up to rounding) to
affine rescaling of the inputs.  All randomness is injected through explicit
seeds; repeated calls with the same arguments return identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DegenerateDataError, LabeledScores, ValidationError, as_binary_vector
from .metrics import auc_from_runs
from .metrics import auc_rank  # noqa: F401  perfbench traces it through learners
from .utility import utility_at_thresholds, utility_curve

__all__ = [
    "ConvergenceError",
    "FeatureMatrix",
    "MAX_REPEATS",
    "MAX_TUNE_CELLS",
    "LogisticModel",
    "fit_logistic",
    "knn_scores",
    "CvResult",
    "kfold_cv",
    "TuneResult",
    "tune_and_compare",
]

# ``tune_and_compare`` keeps repeats x grid_size and repeats x len(k_grid)
# tables
MAX_REPEATS = 1_000_000
MAX_TUNE_CELLS = 4_000_000

# distance comparisons (test rows x k values x training rows) per block of
# test rows in ``_knn_counts``
_KNN_BLOCK_CELLS = 1 << 22

# the model-selection criteria of ``kfold_cv`` and ``tune_and_compare``, in
# the order of every result mapping and report table
_CRITERIA = ("auc", "accuracy")


class ConvergenceError(RuntimeError):
    """Iterative fitting failed; carries the final solver diagnostics."""

    def __init__(self, message: str, iterations: int, gradient_norm: float, max_step: float):
        super().__init__(message)
        self.iterations = iterations
        self.gradient_norm = gradient_norm
        self.max_step = max_step


@dataclass(frozen=True)
class FeatureMatrix:
    """A dense feature table: values, column names, optional scaling stats.

    ``means``/``stds`` are populated once :meth:`standardize` has been applied
    and record the training-data statistics used for the transform.
    """

    values: np.ndarray
    names: tuple[str, ...]
    means: np.ndarray | None = None
    stds: np.ndarray | None = None

    @classmethod
    def from_arrays(cls, values, names=None) -> "FeatureMatrix":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"feature values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValidationError("feature matrix must have at least one row")
        if names is None:
            names = tuple(f"x{j}" for j in range(arr.shape[1]))
        else:
            names = tuple(str(name) for name in names)
        if len(names) != arr.shape[1]:
            raise ValidationError(
                f"{len(names)} column names for {arr.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValidationError("column names must be unique")
        finite = np.isfinite(arr)
        if not finite.all():
            row, column = np.argwhere(~finite)[0].tolist()
            raise ValidationError(
                f"feature column {names[column]!r} contains a non-finite value "
                f"at row {row}: {arr[row, column]}"
            )
        return cls(values=arr, names=names)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def take(self, indices) -> "FeatureMatrix":
        """The rows at ``indices``; they were validated with this matrix."""
        return replace(self, values=self.values[indices])

    @property
    def is_standardized(self) -> bool:
        return self.means is not None

    def standardize(self) -> "FeatureMatrix":
        """Center and scale columns; constant columns are dropped entirely.

        Finite values can still overflow the spread (a column spread over
        1e300), which is refused.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            stds = self.values.std(axis=0)
        if not np.isfinite(stds).all():
            raise ValidationError("feature values are too far apart to standardize in float64")
        keep = stds > 0.0
        means = self.values.mean(axis=0)[keep]
        stds = stds[keep]
        values = (self.values[:, keep] - means) / stds
        names = tuple(name for name, k in zip(self.names, keep) if k)
        return FeatureMatrix(values=values, names=names, means=means, stds=stds)

    def transform(self, other: "FeatureMatrix") -> "FeatureMatrix":
        """Standardize ``other`` with this (already standardized) matrix's stats."""
        if not self.is_standardized:
            raise ValidationError("transform requires a standardized feature matrix")
        values = _select_columns(other, self.names)
        return FeatureMatrix(
            values=(values - self.means) / self.stds,
            names=self.names,
            means=self.means,
            stds=self.stds,
        )


def _select_columns(matrix: FeatureMatrix, names: tuple[str, ...]) -> np.ndarray:
    missing = [name for name in names if name not in matrix.names]
    if missing:
        raise ValidationError(f"feature columns missing from input: {missing}")
    index = [matrix.names.index(name) for name in names]
    return matrix.values[:, index]


def _as_features(features) -> FeatureMatrix:
    if isinstance(features, FeatureMatrix):
        return features
    return FeatureMatrix.from_arrays(np.asarray(features, dtype=np.float64))


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic scorer with its training standardization baked in."""

    weights: np.ndarray
    intercept: float
    feature_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    iterations: int
    gradient_norm: float

    def predict_scores(self, features) -> np.ndarray:
        from scipy.special import expit

        matrix = _as_features(features)
        values = _select_columns(matrix, self.feature_names)
        z = ((values - self.means) / self.stds) @ self.weights + self.intercept
        return expit(z)


def _penalized_nll(design: np.ndarray, labels: np.ndarray, beta: np.ndarray, ridge: float) -> float:
    z = design @ beta
    return float(np.sum(np.logaddexp(0.0, z)) - labels @ z + 0.5 * ridge * (beta @ beta))


def fit_logistic(
    features,
    labels,
    ridge: float = 1e-6,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> LogisticModel:
    """Fit a ridge-stabilized logistic regression by damped Newton iteration.

    Requires both classes present and more rows than retained columns.  Each
    Newton step is halved until the penalized deviance does not increase,
    which keeps the iteration stable even on linearly separated data where
    undamped steps overshoot; convergence is declared when the largest weight
    change drops below ``tol``.  Failure to converge raises
    :class:`ConvergenceError` with the final diagnostics attached.
    """
    from scipy.special import expit

    matrix = _as_features(features).standardize()
    y = as_binary_vector(labels, "label", matrix.n).astype(np.float64)
    if y.sum() == 0 or y.sum() == y.size:
        raise DegenerateDataError("logistic fit requires both classes present")
    n, d = matrix.values.shape
    if n <= d:
        raise ValidationError(f"need more rows ({n}) than feature columns ({d})")
    design = np.hstack([np.ones((n, 1)), matrix.values])
    beta = np.zeros(d + 1)
    identity = np.eye(d + 1)
    objective = _penalized_nll(design, y, beta, ridge)
    gradient_norm = math.inf
    max_step = math.inf
    for iteration in range(1, max_iter + 1):
        mu = expit(design @ beta)
        weights = np.maximum(mu * (1.0 - mu), 1e-10)
        gradient = design.T @ (y - mu) - ridge * beta
        gradient_norm = float(np.max(np.abs(gradient)))
        hessian = (design.T * weights) @ design + ridge * identity
        step = np.linalg.solve(hessian, gradient)
        scale = 1.0
        best_tried = math.inf
        for _ in range(40):
            candidate = beta + scale * step
            candidate_objective = _penalized_nll(design, y, candidate, ridge)
            if candidate_objective <= objective:
                break
            best_tried = min(best_tried, candidate_objective)
            scale *= 0.5
        else:
            # the Newton direction always descends in exact arithmetic, so an
            # exhausted search with a flat objective means the deviance is at
            # its floating-point floor: converged, not stuck
            if best_tried > objective + 1e-10 * (1.0 + abs(objective)):
                raise ConvergenceError(
                    f"logistic fit stalled after {iteration} iterations "
                    f"(gradient norm {gradient_norm:.3e})",
                    iterations=iteration,
                    gradient_norm=gradient_norm,
                    max_step=float(np.max(np.abs(scale * step))),
                )
            break
        beta = candidate
        objective = candidate_objective
        max_step = float(np.max(np.abs(scale * step)))
        if max_step < tol:
            break
    else:
        raise ConvergenceError(
            f"logistic fit did not converge in {max_iter} iterations "
            f"(last step {max_step:.3e}, gradient norm {gradient_norm:.3e})",
            iterations=max_iter,
            gradient_norm=gradient_norm,
            max_step=max_step,
        )
    return LogisticModel(
        weights=beta[1:].copy(),
        intercept=float(beta[0]),
        feature_names=matrix.names,
        means=matrix.means,
        stds=matrix.stds,
        iterations=iteration,
        gradient_norm=gradient_norm,
    )


def _knn_counts(
    train: FeatureMatrix, train_labels: np.ndarray, test: FeatureMatrix, ks
) -> np.ndarray:
    """Positives among the k nearest training rows, per test row and k (int64).

    Distances are squared Euclidean on standardized features; equal distances
    are broken toward the lowest training index.  Each row's distances are
    sorted once.  Where the k-th and (k+1)-th smallest differ, the k nearest
    are exactly the rows within the k-th smallest distance, whatever their
    order.  Only rows where a tie straddles some k take a stable argsort.
    Test rows are processed in blocks, so memory does not grow with them.
    """
    standardized = train.standardize()
    train_values = standardized.values
    train_sq = (train_values**2).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        test_values = standardized.transform(test).values
        test_sq = (test_values**2).sum(axis=1)
    # a test value far outside a tiny training spread can still overflow; a
    # standardized training value is at most sqrt(n) in size, so with every
    # test squared norm within a quarter of the largest double, no distance does
    if not (test_sq <= np.finfo(np.float64).max / 4).all():
        raise ValidationError(
            "feature values are too far apart for float64 distances after standardizing"
        )
    ks = np.asarray(ks, dtype=np.int64)
    n_train = train_values.shape[0]
    positive = train_labels == 1
    past_last = ks == n_train
    counts = np.empty((test_values.shape[0], ks.size), dtype=np.int64)
    rows = max(1, _KNN_BLOCK_CELLS // (ks.size * n_train))
    for start in range(0, test_values.shape[0], rows):
        block = slice(start, start + rows)
        d2 = test_sq[block, None] + train_sq[None, :] - 2.0 * (test_values[block] @ train_values.T)
        ordered = np.sort(d2, axis=1)
        kth = ordered[:, ks - 1]
        counts[block] = (d2[:, None, positive] <= kth[:, :, None]).sum(axis=2)
        after = ordered[:, np.minimum(ks, n_train - 1)]
        after[:, past_last] = np.inf
        # also true where a NaN sorts into position k or k + 1
        tied = np.flatnonzero(~np.all(kth < after, axis=1))
        if tied.size:
            order = np.argsort(d2[tied], axis=1, kind="stable")
            counts[start + tied] = np.cumsum(train_labels[order], axis=1)[:, ks - 1]
    return counts


def _knn_score_grid(
    train: FeatureMatrix, train_labels: np.ndarray, test: FeatureMatrix, ks
) -> np.ndarray:
    """kNN positive-fraction scores on ``test`` for every k."""
    return _knn_counts(train, train_labels, test, ks) / np.asarray(ks)


def knn_scores(train_features, train_labels, test_features, k: int) -> np.ndarray:
    """Fraction of positives among the k nearest training points."""
    train = _as_features(train_features)
    test = _as_features(test_features)
    y = as_binary_vector(train_labels, "label", train.n)
    k = _integer_k(k)
    if not 1 <= k <= train.n:
        raise ValidationError(f"k must be in [1, {train.n}], got {k}")
    return _knn_score_grid(train, y, test, [k])[:, 0]


@dataclass(frozen=True)
class CvResult:
    """Per-fold and averaged cross-validation metrics over a k grid.

    ``fold``, ``mean`` and ``best_k`` are keyed by criterion, ``"auc"`` then
    ``"accuracy"``.  ``fold[c]`` has shape (folds, len(k_grid)); AUC entries
    are NaN for test folds holding a single class, and those folds are listed
    in ``skipped_auc_folds``.  ``best_k[c]`` maximizes ``mean[c]``, the fold
    means, preferring the smaller k on ties.
    """

    k_grid: tuple[int, ...]
    n_folds: int
    seed: int
    fold: dict[str, np.ndarray]
    mean: dict[str, np.ndarray]
    best_k: dict[str, int]
    skipped_auc_folds: tuple[int, ...]


def _integer_k(k) -> int:
    if isinstance(k, (float, np.floating)) and not float(k).is_integer():
        raise ValidationError(f"k must be an integer, got {k}")
    return int(k)


def _validate_k_grid(k_grid, limit: int) -> tuple[int, ...]:
    grid = tuple(_integer_k(k) for k in k_grid)
    if len(grid) == 0:
        raise ValidationError("k grid must be non-empty")
    if any(k < 1 for k in grid):
        raise ValidationError("k grid values must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("k grid must be strictly increasing")
    if grid[-1] > limit:
        raise ValidationError(
            f"largest k ({grid[-1]}) exceeds the available training size ({limit})"
        )
    return grid


def kfold_cv(features, labels, n_folds: int, k_grid, seed: int) -> CvResult:
    """Seeded shuffled k-fold cross-validation of kNN over a k grid.

    Rows are permuted once with the seed and split into ``n_folds`` contiguous
    chunks of the permutation.  Each fold is scored with every k from one
    distance computation, and its AUCs are read from its neighbour counts.
    """
    matrix = _as_features(features)
    y = as_binary_vector(labels, "label", matrix.n)
    n = matrix.n
    n_folds = int(n_folds)
    if not 2 <= n_folds <= n:
        raise ValidationError(f"n_folds must be in [2, {n}], got {n_folds}")
    largest_fold = -(-n // n_folds)
    grid = _validate_k_grid(k_grid, n - largest_fold)
    ks = np.asarray(grid)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    permutation = rng.permutation(n)
    folds = np.array_split(permutation, n_folds)
    fold = {criterion: np.empty((n_folds, len(grid))) for criterion in _CRITERIA}
    skipped = []
    for f, test_idx in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(n_folds) if j != f])
        counts = _knn_counts(matrix.take(train_idx), y[train_idx], matrix.take(test_idx), grid)
        test_labels = y[test_idx]
        fold["accuracy"][f] = np.mean((counts / ks >= 0.5) == (test_labels == 1)[:, None], axis=0)
        if test_labels.min() == test_labels.max():
            skipped.append(f)
            fold["auc"][f] = np.nan
        else:
            fold["auc"][f] = _count_auc(counts, test_labels, ks)
    if len(skipped) == n_folds:
        raise DegenerateDataError("AUC undefined in every fold (single-class test folds)")
    mean = {"auc": np.nanmean(fold["auc"], axis=0), "accuracy": fold["accuracy"].mean(axis=0)}
    return CvResult(
        k_grid=grid,
        n_folds=n_folds,
        seed=int(seed),
        fold=fold,
        mean=mean,
        best_k={criterion: grid[int(np.argmax(means))] for criterion, means in mean.items()},
        skipped_auc_folds=tuple(skipped),
    )


def _count_auc(counts: np.ndarray, labels: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """AUC of the scores ``counts / ks`` in every column, from count histograms.

    ``c -> c / k`` is strictly increasing, so the bins 0..k of a column's
    counts are its tie runs in score order; empty bins are empty runs.
    """
    width = int(ks[-1]) + 1
    bins = counts + width * np.arange(ks.size)
    shape = (ks.size, width)
    rows = np.bincount(bins.ravel(), minlength=ks.size * width).reshape(shape)
    positives = np.bincount(bins[labels == 1].ravel(), minlength=ks.size * width).reshape(shape)
    starts = np.zeros((ks.size, width + 1), dtype=np.int64)
    positives_before = np.zeros_like(starts)
    np.cumsum(rows, axis=1, out=starts[:, 1:])
    np.cumsum(positives, axis=1, out=positives_before[:, 1:])
    return auc_from_runs(starts, positives_before)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of repeated split / tune / retrain / utility-sweep experiments.

    Every mapping is keyed by selection criterion, ``"auc"`` then
    ``"accuracy"``, and its arrays are indexed by repeat: ``chosen_k`` holds
    the k selected by that cross-validated criterion, ``max_utility`` the
    test-set utility maximum of the resulting model, ``utility_grid`` its test
    utilities on the fixed threshold grid, and ``cv`` the CV means of that
    criterion for every k in the grid.
    """

    k_grid: tuple[int, ...]
    repeats: int
    seed: int
    thresholds: np.ndarray
    chosen_k: dict[str, np.ndarray]
    max_utility: dict[str, np.ndarray]
    cv: dict[str, np.ndarray]
    utility_grid: dict[str, np.ndarray]


def tune_and_compare(
    features,
    labels,
    k_grid,
    coefficients,
    repeats: int = 20,
    seed: int = 0,
    n_folds: int = 20,
    test_fraction: float = 0.3,
    grid_size: int = 201,
) -> TuneResult:
    """Compare AUC-selected against accuracy-selected kNN under a utility.

    Each repeat draws a fresh seeded train/test split, picks k by
    cross-validated AUC and by cross-validated accuracy on the training part,
    scores both choices on the held-out part from one distance computation,
    and records their utility (both the sweep maximum and the curve on a fixed
    threshold grid).  Per-sample coefficients are subset alongside the rows
    they describe.
    """
    matrix = _as_features(features)
    y = as_binary_vector(labels, "label", matrix.n)
    n = matrix.n
    repeats = int(repeats)
    if not 1 <= repeats <= MAX_REPEATS:
        raise ValidationError(f"repeats must be in [1, {MAX_REPEATS}], got {repeats}")
    if grid_size < 1:
        raise ValidationError(f"grid_size must be >= 1, got {grid_size}")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = max(1, int(round(n * test_fraction)))
    n_train = n - n_test
    if n_train < 2:
        raise ValidationError("training split is too small")
    own = coefficients.n_samples
    if own is not None and own != n:
        raise ValidationError(
            f"coefficient length {own} does not match feature rows {n}"
        )
    if not 2 <= n_folds <= n_train:
        raise ValidationError(f"n_folds must be in [2, {n_train}], got {n_folds}")
    grid = _validate_k_grid(k_grid, n_train - (-(-n_train // n_folds)))
    if repeats * max(grid_size, len(grid)) > MAX_TUNE_CELLS:
        raise ValidationError(
            f"repeats x grid_size and repeats x k grid length must be <= {MAX_TUNE_CELLS}, "
            f"got {repeats} x {grid_size} and {repeats} x {len(grid)}"
        )
    result = TuneResult(
        k_grid=grid,
        repeats=repeats,
        seed=int(seed),
        thresholds=np.linspace(0.0, 1.0, grid_size),
        chosen_k={criterion: np.empty(repeats, dtype=np.int64) for criterion in _CRITERIA},
        max_utility={criterion: np.empty(repeats) for criterion in _CRITERIA},
        cv={criterion: np.empty((repeats, len(grid))) for criterion in _CRITERIA},
        utility_grid={criterion: np.empty((repeats, grid_size)) for criterion in _CRITERIA},
    )
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        permutation = rng.permutation(n)
        cv_seed = int(rng.integers(0, 2**31 - 1))
        train_idx = permutation[:n_train]
        test_idx = permutation[n_train:]
        train = matrix.take(train_idx)
        test = matrix.take(test_idx)
        cv = kfold_cv(train, y[train_idx], n_folds, grid, cv_seed)
        test_coefficients = coefficients.take(test_idx)
        scores = _knn_score_grid(train, y[train_idx], test, list(cv.best_k.values()))
        for column, (criterion, k) in enumerate(cv.best_k.items()):
            data = LabeledScores(scores=scores[:, column], labels=y[test_idx])
            result.chosen_k[criterion][r] = k
            result.cv[criterion][r] = cv.mean[criterion]
            result.max_utility[criterion][r] = utility_curve(
                data, test_coefficients
            ).max_utility
            result.utility_grid[criterion][r] = utility_at_thresholds(
                data, test_coefficients, result.thresholds
            )
    return result
