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

from .core import (
    DegenerateDataError,
    LabeledScores,
    ValidationError,
    as_binary_vector,
    as_integer,
)
from .metrics import auc_from_runs
from .metrics import auc_rank  # noqa: F401  perfbench traces it through learners
from .special import expit
from .utility import ContributionDigits, utility_curve

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
    "check_tune_options",
    "tune_and_compare",
]

# ``tune_and_compare`` keeps repeats x grid_size and repeats x len(k_grid)
# tables
MAX_REPEATS = 1_000_000
MAX_TUNE_CELLS = 4_000_000

# cells per block of stacked kNN work: training values plus distances,
# folds x training rows x (columns + test rows), in ``_knn_counts``, and
# count-histogram bins in ``kfold_cv``
_KNN_BLOCK_CELLS = 1 << 17

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
    and record the statistics of the kept columns it used.
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
        matrix = _as_features(features)
        values = _select_columns(matrix, self.feature_names)
        # a value far outside a tiny training spread can still overflow
        with np.errstate(over="ignore", invalid="ignore"):
            z = ((values - self.means) / self.stds) @ self.weights + self.intercept
        if not np.isfinite(z).all():
            raise ValidationError(
                "feature values are too far apart for float64 scores after standardizing"
            )
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


def _scratch(buffer: np.ndarray, shape, dtype=np.float64) -> np.ndarray:
    """The first cells of the flat scratch ``buffer`` as an array of ``shape``."""
    return buffer.view(dtype)[: math.prod(shape)].reshape(shape)


def _knn_counts(values, labels, order, starts, size: int, ks) -> np.ndarray:
    """Positives among the k nearest training rows, per fold, test row and k (int64).

    Fold ``f`` tests the rows ``order[starts[f] : starts[f] + size]`` and
    trains on the rest of ``order``, in that order.  Each fold standardizes
    with its own training statistics and drops the columns constant there.
    Distances are squared Euclidean; equal distances are broken toward the
    lowest training position.  Each row's distances are sorted once as
    floats whose lowest bit is replaced by the training row's label, and each
    k's count is the running sum of those bits up to position k.  Replacing
    the last bit keeps the order of any two distances that still differ with
    their last bits cleared.  So where the k-th and (k+1)-th sorted values,
    last bits cleared, are strictly increasing, the first k are exactly the k
    nearest rows, whatever their order.  Only rows where they are not (ties
    in all but the last bit, exact ties, -5e-324 against 0.0, a NaN) take a
    stable argsort of the untouched distances.

    Folds are stacked in blocks of at most ``_KNN_BLOCK_CELLS`` training
    values and distances, and a fold too large for one block is
    split over its test rows, so memory grows with neither.  Every block
    reuses one scratch allocation, so the allocator does not hand each block
    fresh pages to fault in.  Folds that keep the same columns are
    computed together, each laid out in memory as it would be alone, so every
    sum and product rounds as it would one fold at a time.  A refusal names
    the first failing check of the lowest-numbered failing fold.
    """
    ks = np.asarray(ks, dtype=np.int64)
    starts = np.asarray(starts)
    n_train, d = order.size - size, values.shape[1]
    per_block = min(starts.size, max(1, _KNN_BLOCK_CELLS // (n_train * (d + size))))
    # test rows in near-equal parts of at most _KNN_BLOCK_CELLS distances
    parts = min(size, -(-per_block * size * n_train // _KNN_BLOCK_CELLS))
    bounds = np.arange(parts + 1) * size // parts
    stack_cells = per_block * n_train * d
    grid_cells = per_block * int(np.diff(bounds).max()) * n_train
    # one scratch allocation for every block: the training stack, its
    # squares, its kept columns one after another, the distances and their
    # tagged, sorted copy
    lengths = [stack_cells] * 3 + [grid_cells] * 2
    stack, squares, by_column, grid, ordered = np.split(
        np.empty(sum(lengths)), np.cumsum(lengths)[:-1]
    )
    positions = np.arange(n_train)
    longest = int(ks.max())
    past_last = ks == n_train
    edges = np.concatenate([ks - 1, np.minimum(ks, n_train - 1)])
    counts = np.empty((starts.size, size, ks.size), dtype=np.int64)
    for first in range(0, starts.size, per_block):
        block = starts[first : first + per_block]
        train_rows = order[positions + size * (positions >= block[:, None])]
        positive = labels[train_rows] == 1
        test = values[order[block[:, None] + np.arange(size)]]
        # rows outermost: NumPy then sums each column over a fold's rows one
        # after another, as over one fold's (rows, columns) array; a lone
        # column it sums pairwise there, and so with folds outermost
        index = train_rows.T if d > 1 else train_rows
        # "clip" writes straight into the scratch; every row is in range
        train = np.take(values, index, axis=0, out=_scratch(stack, index.shape + (d,)), mode="clip")
        train_squares = _scratch(squares, train.shape)
        if d > 1:
            train, train_squares = train.transpose(1, 0, 2), train_squares.transpose(1, 0, 2)
        # np.std's steps, keeping the centered values: a constant column
        # divides 0 by 0 and an overflowing spread gives inf or NaN; neither
        # is read: such columns are dropped, such folds refused
        with np.errstate(all="ignore"):
            means = train.sum(axis=1, keepdims=True) / n_train
            train -= means
            stds = np.multiply(train, train, out=train_squares).sum(axis=1, keepdims=True)
            stds = np.sqrt(stds / n_train)
            train /= stds
            test -= means
            test /= stds
        spread = np.isfinite(stds[:, 0]).all(axis=1)
        far = np.zeros_like(spread)
        keep = stds[:, 0] > 0.0
        todo = np.flatnonzero(spread)
        while todo.size:
            same = (keep[todo] == keep[todo[0]]).all(axis=1)
            group, todo = todo[same], todo[~same]
            kept = keep[group[0]]
            # each fold's kept columns one after another, the layout one fold
            # standardized alone has, which fixes how its sums and products round
            train_t, test_t = train.transpose(0, 2, 1), test.transpose(0, 2, 1)
            if group.size < block.size:
                train_t, test_t = train_t[group], test_t[group]
            if not kept.all():
                train_t, test_t = train_t[:, kept], test_t[:, kept]
            columns = _scratch(by_column, train_t.shape)
            np.copyto(columns, train_t)
            test_t = np.ascontiguousarray(test_t)
            with np.errstate(over="ignore", invalid="ignore"):
                test_sq = (test_t**2).sum(axis=1)
            # a test value far outside a tiny training spread can still
            # overflow; a standardized training value is at most sqrt(n) in
            # size, so with every test squared norm within a quarter of the
            # largest double, no distance does
            wide = ~(test_sq <= np.finfo(np.float64).max / 4).all(axis=1)
            if wide.any():
                far[group[wide]] = True
                continue
            train_sq = np.multiply(columns, columns, out=_scratch(squares, columns.shape))
            train_sq = train_sq.sum(axis=1)
            group_positive = positive[group]
            for part in map(slice, bounds[:-1], bounds[1:]):
                shape = (group.size, part.stop - part.start, n_train)
                test_part = test_t[:, :, part].transpose(0, 2, 1)
                d2 = np.matmul(test_part, columns, out=_scratch(grid, shape))
                # -2 (test . train) + (|test|^2 + |train|^2): the bits of
                # |test|^2 + |train|^2 - 2 (test . train)
                d2 *= -2.0
                d2 += np.add(
                    test_sq[:, part, None], train_sq[:, None, :], out=_scratch(ordered, shape)
                )
                # the lowest bit of each distance becomes its row's label
                tagged = _scratch(ordered, shape, np.int64)
                np.bitwise_and(d2.view(np.int64), -2, out=tagged)
                tagged |= group_positive[:, None, :]
                tagged.view(np.float64).sort(axis=2)
                bounding = (tagged[:, :, edges] & -2).view(np.float64)
                kth, after = bounding[:, :, : ks.size], bounding[:, :, ks.size :]
                after[:, :, past_last] = np.inf
                # also true where a NaN sorts into position k or k + 1
                fold, row = np.nonzero(~np.all(kth < after, axis=2))
                sorted_labels = tagged[:, :, :longest]
                sorted_labels &= 1
                part_counts = np.cumsum(sorted_labels, axis=2, out=sorted_labels)[:, :, ks - 1]
                if fold.size:
                    by_distance = np.argsort(d2[fold, row], axis=1, kind="stable")
                    hits = np.take_along_axis(group_positive[fold], by_distance, axis=1)
                    part_counts[fold, row] = np.cumsum(hits, axis=1)[:, ks - 1]
                counts[first + group, part] = part_counts
        failed = np.flatnonzero(~spread | far)
        if failed.size and spread[failed[0]]:
            raise ValidationError(
                "feature values are too far apart for float64 distances after standardizing"
            )
        if failed.size:
            raise ValidationError("feature values are too far apart to standardize in float64")
    return counts


def knn_scores(train_features, train_labels, test_features, k: int) -> np.ndarray:
    """Fraction of positives among the k nearest training points."""
    train = _as_features(train_features)
    test = _as_features(test_features)
    y = as_binary_vector(train_labels, "label", train.n)
    k = as_integer(k, "k")
    if not 1 <= k <= train.n:
        raise ValidationError(f"k must be in [1, {train.n}], got {k}")
    values = np.vstack([train.values, _select_columns(test, train.names)])
    counts = _knn_counts(values, y, np.arange(values.shape[0]), [train.n], test.n, [k])
    return counts[0, :, 0] / k


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


def _validate_k_grid(k_grid, limit: int | None) -> tuple[int, ...]:
    """``k_grid`` as ints; with ``limit``, no k may exceed it."""
    grid = tuple(as_integer(k, "k") for k in k_grid)
    if len(grid) == 0:
        raise ValidationError("k grid must be non-empty")
    if any(k < 1 for k in grid):
        raise ValidationError("k grid values must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("k grid must be strictly increasing")
    if limit is not None and grid[-1] > limit:
        raise ValidationError(
            f"largest k ({grid[-1]}) exceeds the available training size ({limit})"
        )
    return grid


def kfold_cv(features, labels, n_folds: int, k_grid, seed: int) -> CvResult:
    """Seeded shuffled k-fold cross-validation of kNN over a k grid.

    Rows are permuted once with the seed and split into ``n_folds`` contiguous
    chunks of the permutation, as ``np.array_split`` splits it; each fold
    trains on the other chunks in order.  Folds of one size are scored with
    every k together (:func:`_knn_counts`), and every fold's AUCs are read
    from histograms of its neighbour counts.
    """
    matrix = _as_features(features)
    y = as_binary_vector(labels, "label", matrix.n)
    n = matrix.n
    n_folds = as_integer(n_folds, "n_folds")
    if not 2 <= n_folds <= n:
        raise ValidationError(f"n_folds must be in [2, {n}], got {n_folds}")
    largest_fold = -(-n // n_folds)
    grid = _validate_k_grid(k_grid, n - largest_fold)
    ks = np.asarray(grid)
    seed = as_integer(seed, "seed")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    permutation = rng.permutation(n)
    # np.array_split's chunks: the first n % n_folds folds hold one row more
    sizes = np.full(n_folds, n // n_folds)
    sizes[: n % n_folds] += 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    counts = np.concatenate(
        [
            _knn_counts(matrix.values, y, permutation, bounds[:-1][sizes == size], size, grid)
            .reshape(-1, ks.size)
            for size in sorted(set(sizes.tolist()), reverse=True)
        ]
    )
    labels = y[permutation]
    correct = (counts / ks >= 0.5) == (labels == 1)[:, None]
    fold = {
        "auc": np.full((n_folds, ks.size), np.nan),
        "accuracy": np.add.reduceat(correct, bounds[:-1], axis=0, dtype=np.int64) / sizes[:, None],
    }
    positives = np.add.reduceat(labels, bounds[:-1])
    scored = (positives > 0) & (positives < sizes)
    if not scored.any():
        raise DegenerateDataError("AUC undefined in every fold (single-class test folds)")
    # c -> c / k is strictly increasing, so the bins 0..k of one fold's counts
    # for one k are its tie runs in score order; empty bins are empty runs.
    # Counts go to bins 1..k + 1, so that running sums over bins start at 0
    width = grid[-1] + 2
    cells = 2 * ks.size * width
    fold_of_row = np.repeat(np.arange(n_folds), sizes)[:, None]
    keys = 2 * (counts + 1 + width * (np.arange(ks.size) + ks.size * fold_of_row)) + labels[:, None]
    step = max(1, _KNN_BLOCK_CELLS // cells)
    for first in range(0, n_folds, step):
        last = min(first + step, n_folds)
        block_keys = keys[bounds[first] : bounds[last]].ravel() - first * cells
        runs = np.bincount(block_keys, minlength=(last - first) * cells)
        runs = np.cumsum(runs.reshape(-1, ks.size, width, 2), axis=2)
        both = scored[first:last]
        if not both.all():
            runs = runs[both]
        fold["auc"][first:last][both] = auc_from_runs(runs.sum(axis=3), runs[..., 1])
    mean = {"auc": np.nanmean(fold["auc"], axis=0), "accuracy": fold["accuracy"].mean(axis=0)}
    return CvResult(
        k_grid=grid,
        n_folds=n_folds,
        seed=seed,
        fold=fold,
        mean=mean,
        best_k={criterion: grid[int(np.argmax(means))] for criterion, means in mean.items()},
        skipped_auc_folds=tuple(np.flatnonzero(~scored).tolist()),
    )


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


def check_tune_options(
    k_grid, repeats, n_folds, test_fraction, grid_size, n: int | None = None
) -> tuple[tuple[int, ...], int, int, int, int | None]:
    """The options of :func:`tune_and_compare` for ``n`` feature rows, checked.

    Returns the k grid, ``repeats``, ``n_folds`` and ``grid_size`` as ints and
    the training rows of a split.  Without ``n`` only the rules that need no
    row count apply, and the training rows are None.
    """
    repeats = as_integer(repeats, "repeats")
    if not 1 <= repeats <= MAX_REPEATS:
        raise ValidationError(f"repeats must be in [1, {MAX_REPEATS}], got {repeats}")
    grid_size = as_integer(grid_size, "grid_size")
    if grid_size < 1:
        raise ValidationError(f"grid_size must be >= 1, got {grid_size}")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_train = None
    if n is not None:
        n_train = n - max(1, int(round(n * test_fraction)))
        if n_train < 2:
            raise ValidationError("training split is too small")
    n_folds = as_integer(n_folds, "n_folds")
    if n_train is None and n_folds < 2:
        raise ValidationError(f"n_folds must be >= 2, got {n_folds}")
    if n_train is not None and not 2 <= n_folds <= n_train:
        raise ValidationError(f"n_folds must be in [2, {n_train}], got {n_folds}")
    grid = _validate_k_grid(k_grid, None if n_train is None else n_train - (-(-n_train // n_folds)))
    if repeats * max(grid_size, len(grid)) > MAX_TUNE_CELLS:
        raise ValidationError(
            f"repeats x grid_size and repeats x k grid length must be <= {MAX_TUNE_CELLS}, "
            f"got {repeats} x {grid_size} and {repeats} x {len(grid)}"
        )
    return grid, repeats, n_folds, grid_size, n_train


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
    seed = as_integer(seed, "seed")
    grid, repeats, n_folds, grid_size, n_train = check_tune_options(
        k_grid, repeats, n_folds, test_fraction, grid_size, n
    )
    n_test = n - n_train
    own = coefficients.n_samples
    if own is not None and own != n:
        raise ValidationError(
            f"coefficient length {own} does not match feature rows {n}"
        )
    result = TuneResult(
        k_grid=grid,
        repeats=repeats,
        seed=seed,
        thresholds=np.linspace(0.0, 1.0, grid_size),
        chosen_k={criterion: np.empty(repeats, dtype=np.int64) for criterion in _CRITERIA},
        max_utility={criterion: np.empty(repeats) for criterion in _CRITERIA},
        cv={criterion: np.empty((repeats, len(grid))) for criterion in _CRITERIA},
        utility_grid={criterion: np.empty((repeats, grid_size)) for criterion in _CRITERIA},
    )
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        permutation = rng.permutation(n)
        cv_seed = int(rng.integers(0, 2**31 - 1))
        train_idx = permutation[:n_train]
        test_idx = permutation[n_train:]
        cv = kfold_cv(matrix.take(train_idx), y[train_idx], n_folds, grid, cv_seed)
        test_coefficients = coefficients.take(test_idx)
        chosen = list(cv.best_k.values())
        scores = _knn_counts(matrix.values, y, permutation, [n_train], n_test, chosen)[0] / chosen
        # the per-sample digits depend on the held-out labels, not the scores
        digits = None
        if not test_coefficients.is_constant:
            digits = ContributionDigits(y[test_idx], test_coefficients)
        for column, (criterion, k) in enumerate(cv.best_k.items()):
            data = LabeledScores(scores=scores[:, column], labels=y[test_idx])
            result.chosen_k[criterion][r] = k
            result.cv[criterion][r] = cv.mean[criterion]
            curve = utility_curve(data, test_coefficients, digits)
            result.max_utility[criterion][r] = curve.max_utility
            # the grid's rules are among the curve's, so it is read, not swept
            result.utility_grid[criterion][r] = curve.utilities[
                data.runs.first_accepted(result.thresholds)
            ]
    return result
