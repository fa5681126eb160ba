"""The one sorted-score representation and every statistic that reads it.

The references below work from the raw scores only (``confusion_at`` per
threshold, boolean masks per calibration bin, an exact ``Fraction`` mean of the
per-sample contributions), so they share nothing with ``LabeledScores.runs``
and each comparison is bit for bit.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from utileval import (
    CostCoefficients,
    DecisionRule,
    LabeledScores,
    auc_rank,
    calibration_curve,
    confusion_at,
    empirical_utility,
    roc_points,
    utility_at_thresholds,
    utility_curve,
)
from utileval import simstudy
from utileval.core import rule_outcomes
from utileval.stats import BOOTSTRAP_METRICS, resample
from utileval.utility import ContributionDigits, _means
from utileval.cli import main
from conftest import make_dataset, traced_peak


def _auc_reference(data):
    # twice the Mann-Whitney U in integers: 2 per ordered pair, 1 per tie
    pos = data.scores[data.labels == 1]
    neg = data.scores[data.labels == 0]
    twice_u = int(2 * np.sum(pos[:, None] > neg[None, :]) + np.sum(pos[:, None] == neg[None, :]))
    return (twice_u / 2) / (float(pos.size) * float(neg.size))


def _roc_reference(data):
    points = [(0.0, 0.0)]
    for t in np.unique(data.scores)[::-1]:
        counts = confusion_at(data, DecisionRule(t))
        points.append((counts.fp / data.n_negative, counts.tp / data.n_positive))
    return np.asarray(points)


def _calibration_reference(data, bins):
    index = np.minimum((data.scores * bins).astype(np.int64), bins - 1)
    out = []
    for b in range(bins):
        mask = index == b
        count = int(mask.sum())
        if count:
            predicted = float(np.sort(data.scores[mask]).sum() / count)
            out.append((b, predicted, float(data.labels[mask].sum() / count), count))
    return out


def _utility_reference(data, coefficients, thresholds):
    if coefficients.is_constant:
        a11, a01, a10, a00 = (coefficients.a11, coefficients.a01, coefficients.a10, coefficients.a00)
        out = []
        for t in thresholds:
            c = confusion_at(data, DecisionRule(t))
            out.append((a11 * c.tp - a01 * c.fp - a10 * c.fn + a00 * c.tn) / c.n)
        return np.asarray(out)
    a11, a01, a10, a00 = coefficients.as_vectors(data.n)
    positive = data.labels == 1
    accepted = np.where(positive, a11, -a01)
    rejected = np.where(positive, -a10, a00)
    return np.asarray([_fraction_mean(np.where(data.scores >= t, accepted, rejected)) for t in thresholds])


def _fraction_mean(values):
    # the exact mean, rounded once to the nearest float
    return float(sum(map(Fraction, values.tolist())) / values.size)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 120),
    tie_decimals=st.sampled_from([None, 0, 1, 2, 3]),
    bins=st.integers(2, 12),
)
def test_statistics_match_references_on_tied_data(seed, n, tie_decimals, bins):
    rng = np.random.default_rng(seed)
    data = make_dataset(rng, n, tie_decimals=tie_decimals)
    assert auc_rank(data) == _auc_reference(data)
    assert np.array_equal(roc_points(data), _roc_reference(data))
    curve = calibration_curve(data, bins=bins)
    got = [(b.bin_index, b.mean_predicted, b.observed_frequency, b.count) for b in curve.bins]
    assert got == _calibration_reference(data, bins)

    unique = np.unique(data.scores)
    candidates = np.append(unique, math.nextafter(float(unique[-1]), math.inf))
    grid = np.concatenate([[-0.5, 1.5], unique, rng.random(7) * 1.2 - 0.1])
    for coefficients in (
        CostCoefficients.constant(*(rng.random(4) * 3 + 0.01)),
        CostCoefficients(rng.random(n) * 2, rng.random(n), rng.random(n), 1.0),
    ):
        expected = _utility_reference(data, coefficients, candidates)
        curve = utility_curve(data, coefficients)
        assert np.array_equal(curve.thresholds, candidates)
        assert np.array_equal(curve.utilities, expected)
        best = int(np.argmax(expected))
        assert (curve.best_threshold, curve.max_utility) == (candidates[best], expected[best])
        assert np.array_equal(
            utility_at_thresholds(data, coefficients, grid),
            _utility_reference(data, coefficients, grid),
        )


def test_runs_of_a_small_dataset():
    data = LabeledScores(scores=[0.5, 0.2, 0.9, 0.5, 0.2], labels=[1, 0, 1, 0, 1])
    runs = data.runs
    assert runs is data.runs
    assert runs.run_of_row.tolist() == [1, 0, 2, 1, 0]
    assert runs.sorted_scores.tolist() == [0.2, 0.2, 0.5, 0.5, 0.9]
    assert runs.starts.tolist() == [0, 2, 4, 5]
    assert runs.positives_before.tolist() == [0, 1, 2, 3]
    assert runs.values.tolist() == [0.2, 0.5, 0.9]
    run = runs.first_accepted([0.0, 0.2, 0.3, 0.9, 1.0])
    assert run.tolist() == [0, 0, 1, 2, 3]
    tp, fp, fn, tn = rule_outcomes(runs.starts, runs.positives_before, run)
    assert tp.tolist() == [3, 3, 2, 1, 0]
    assert fp.tolist() == [2, 2, 1, 0, 0]
    assert fn.tolist() == [0, 0, 1, 2, 3]
    assert tn.tolist() == [0, 0, 1, 2, 2]
    for array in (
        runs.sorted_scores, runs.starts, runs.positives_before, runs.run_of_row, runs.values
    ):
        with pytest.raises(ValueError):
            array[0] = 0


def _outcome_reference(data, thresholds):
    counts = [confusion_at(data, DecisionRule(t)) for t in thresholds]
    return tuple(np.array([getattr(c, name) for c in counts]) for name in ("tp", "fp", "fn", "tn"))


def _same_outcomes(got, reference):
    # fn is positives_before's int64; tp, fp and tn are exact float64 counts
    return all(
        _same_bits(a, b if name == "fn" else b.astype(np.float64))
        for name, a, b in zip(("tp", "fp", "fn", "tn"), got, reference)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    kind=st.sampled_from(["continuous", "1-decimal ties", "signed zeros", "one class"]),
)
def test_rule_outcomes_match_confusion_at(seed, n, kind):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    labels = (rng.random(n) < 0.5).astype(np.int64)
    if kind != "continuous":
        scores = np.round(scores, 1)
    if kind == "signed zeros":
        zero = rng.random(n) < 0.5
        scores[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    if kind == "one class":
        labels[:] = rng.integers(0, 2)
    data = LabeledScores(scores=scores, labels=labels)
    runs = data.runs
    unique = np.unique(data.scores)
    candidates = np.append(unique, math.nextafter(float(unique[-1]), math.inf))
    run = runs.first_accepted(candidates)
    got = rule_outcomes(runs.starts, runs.positives_before, run)
    assert _same_outcomes(got, _outcome_reference(data, candidates))

    # a bootstrap draw's layout keeps the dataset's run numbering
    draws = []

    def record(replicate):
        outcomes = rule_outcomes(replicate.starts, replicate.positives_before, run)
        draws.append((replicate.indices, outcomes))
        return 0.0

    resample([data], {"record": record}, 4, seed)
    assert len(draws) == 4
    for indices, outcomes in draws:
        assert _same_outcomes(outcomes, _outcome_reference(data.take(indices), candidates))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    kind=st.sampled_from(["continuous", "1-decimal ties", "signed zeros"]),
    costs=st.sampled_from(["constant", "per-sample", "extreme"]),
)
def test_the_curve_read_at_a_grid_is_the_grid_sweep(seed, n, kind, costs):
    # every rule of a threshold grid is a rule of the curve, so the curve read
    # at the run each grid threshold first accepts is the grid's sweep
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    if kind != "continuous":
        scores = np.round(scores, 1)
    if kind == "signed zeros":
        zero = rng.random(n) < 0.5
        scores[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    data = LabeledScores(scores=scores, labels=(rng.random(n) < 0.5).astype(np.int64))
    if costs == "constant":
        coefficients = CostCoefficients.constant(*(rng.random(4) * 3))
    elif costs == "per-sample":
        coefficients = CostCoefficients(1.0, rng.random(n) * 3, rng.random(n), 1.0)
    else:
        pool = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300])
        coefficients = CostCoefficients(*(rng.choice(pool, n) for _ in range(3)), 1.0)
    unique = np.unique(data.scores)
    grid = np.concatenate(
        [[-0.0, 0.0, -0.5, 1.5, np.nextafter(unique[-1], 2.0)], unique, np.linspace(0.0, 1.0, 11)]
    )
    rng.shuffle(grid)
    read = utility_curve(data, coefficients).utilities[data.runs.first_accepted(grid)]
    assert _same_bits(read, utility_at_thresholds(data, coefficients, grid))


def _stable_runs(scores, labels):
    """The four ``ScoreRuns`` arrays from a stable sort, which keeps row order in ties."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(ordered)) + 1, [scores.size]])
    positives = np.concatenate([[0], np.cumsum(labels[order])])[starts]
    run_of_row = np.empty(scores.size, dtype=np.int64)
    run_of_row[order] = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    return ordered, starts, positives, run_of_row


@pytest.mark.parametrize("first_zero", [-0.0, 0.0])
def test_runs_keep_the_bits_of_a_stable_sort(first_zero):
    # -0.0 == 0.0, so only the zero run could tell an unstable sort's order
    rng = np.random.default_rng(11)
    n = 3000
    scores = np.round(rng.random(n), 2)
    zero = np.flatnonzero(rng.random(n) < 0.3)
    scores[zero] = np.where(rng.random(zero.size) < 0.5, -0.0, 0.0)
    scores[zero[0]] = first_zero
    labels = (rng.random(n) < 0.5).astype(np.int64)
    data = LabeledScores(scores=scores, labels=labels)
    expected = _stable_runs(data.scores, data.labels)
    runs = data.runs
    for name, reference in zip(
        ("sorted_scores", "starts", "positives_before", "run_of_row"), expected
    ):
        assert _same_bits(getattr(runs, name), reference), name
    assert _same_bits(runs.values, expected[0][expected[1][:-1]])
    threshold = utility_curve(data, CostCoefficients.zero_one()).thresholds[0]
    assert threshold == 0.0 and math.copysign(1.0, threshold) == math.copysign(1.0, first_zero)


def _numpy_calls(tmp_path, monkeypatch, command, files, options, function="argsort"):
    rng = np.random.default_rng(3)
    labels = (rng.random(200) < 0.5).astype(int)
    ages = np.round(rng.random(200) * 100, 1)
    paths = []
    for k in range(files):
        scores = np.round(np.clip(0.3 * labels + 0.7 * rng.random(200), 0, 1), 2)
        path = tmp_path / f"{command}{k}.csv"
        rows = zip(scores.tolist(), labels.tolist(), ages.tolist())
        path.write_text("score,label,age\n" + "".join(f"{s!r},{y},{a!r}\n" for s, y, a in rows))
        paths.append(str(path))
    argv = [command, *paths, "--out-dir", str(tmp_path / command), *options]
    return _count_numpy_calls(monkeypatch, argv, function)


def _count_numpy_calls(monkeypatch, argv, function="argsort"):
    calls = []
    original = getattr(np, function)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, function, counting)
    assert main(argv) == 0
    return len(calls)


def test_evaluate_sorts_the_scores_once(tmp_path, monkeypatch):
    assert _numpy_calls(tmp_path, monkeypatch, "evaluate", 1, ["--utility", "c:1"]) == 1


def test_evaluate_sorts_the_scores_once_with_per_sample_coefficients(tmp_path, monkeypatch):
    options = ["--utility", "age-contextual"]
    assert _numpy_calls(tmp_path, monkeypatch, "evaluate", 1, options) == 1


def test_bootstrap_replicates_do_not_sort(tmp_path, monkeypatch):
    # each replicate derives its runs from the input's one sort
    options = ["--utility", "c:2", "--replicates", "100"]
    assert _numpy_calls(tmp_path, monkeypatch, "evaluate", 1, options) == 1
    assert _numpy_calls(tmp_path, monkeypatch, "compare", 2, options) == 2
    # a per-sample sweep on a replicate reads the runs of its rows, not an order
    options = ["--utility", "age-contextual", "--replicates", "100"]
    assert _numpy_calls(tmp_path, monkeypatch, "evaluate", 1, options) == 1


@pytest.mark.parametrize("utility", ["c:2", "age-contextual"])
def test_bootstrap_replicates_count_each_draw_once(tmp_path, monkeypatch, utility):
    # every statistic, the per-sample u_max included, reads one count of the
    # draw's runs
    options = ["--utility", utility, "--replicates", "100"]
    assert _numpy_calls(tmp_path, monkeypatch, "evaluate", 1, options, "bincount") == 100


def test_simulate_draws_and_sorts_each_realization_once(tmp_path, monkeypatch):
    drawn = []
    original = simstudy.generate_realization

    def counting_generate(config, index):
        drawn.append(index)
        return original(config, index)

    monkeypatch.setattr(simstudy, "generate_realization", counting_generate)
    options = ["--samples", "300", "--realizations", "4", "--grid", "11", "--bins", "7"]
    # one sort per scorer and realization
    assert _numpy_calls(tmp_path, monkeypatch, "simulate", 0, options) == 3 * 4
    assert drawn == [0, 1, 2, 3]


def test_tune_sorts_only_the_held_out_scores(tmp_path, monkeypatch):
    # on continuous features no distance tie straddles a k, so neighbour
    # counts need no argsort; each repeat sorts the held-out scores of its
    # two chosen k
    rng = np.random.default_rng(5)
    features = rng.normal(size=(150, 3))
    labels = (features[:, 0] + rng.normal(size=150) > 0).astype(int)
    path = tmp_path / "features.csv"
    rows = "".join(f"{y},{a!r},{b!r},{c!r}\n" for y, (a, b, c) in zip(labels, features.tolist()))
    path.write_text("label,x1,x2,x3\n" + rows)
    repeats = 3
    argv = ["tune", str(path), "--k-grid", "1,4,9,30", "--folds", "5", "--repeats", str(repeats)]
    assert _count_numpy_calls(monkeypatch, argv + ["--out-dir", str(tmp_path / "tune")]) <= 2 * repeats


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_per_sample_utility_is_the_exact_mean_of_extreme_coefficients():
    # magnitudes 1e-300 beside 1e300, zeros and subnormals: a float
    # accumulation loses the small terms or rounds twice
    tiny = [1e-300, 5e-324, 2.5e-310, 0.0]
    huge = [1e300, 3e299, 7.0, 0.0]
    rng = np.random.default_rng(11)
    n = 64
    data = LabeledScores(scores=np.round(rng.random(n), 1), labels=(rng.random(n) < 0.5).astype(int))
    # the second set has only tiny contributions, so its means are subnormal
    for pools in ((huge, tiny, tiny, huge), (tiny,) * 4):
        coefficients = CostCoefficients(*(rng.choice(pool, n) for pool in pools))
        curve = utility_curve(data, coefficients)
        at = utility_at_thresholds(data, coefficients, curve.thresholds)
        pointwise = [empirical_utility(data, coefficients, DecisionRule(t)) for t in curve.thresholds]
        exact = _utility_reference(data, coefficients, curve.thresholds)
        assert curve.utilities.tolist() == at.tolist() == pointwise == exact.tolist()


def test_per_sample_utility_of_huge_finite_coefficients_does_not_overflow():
    # the sum 3e308 overflows a float, the mean 1e308 does not
    data = LabeledScores(scores=[0.9, 0.8, 0.1], labels=[1, 1, 0])
    coefficients = CostCoefficients([1.5e308, 1.5e308, 0.0], 0.0, 0.0, [1.0, 1.0, 0.0])
    curve = utility_curve(data, coefficients)
    assert curve.utilities.tolist() == [1e308, 1e308, 5e307, 0.0]
    assert (curve.best_threshold, curve.max_utility) == (0.1, 1e308)
    assert empirical_utility(data, coefficients, DecisionRule(0.1)) == 1e308
    assert utility_at_thresholds(data, coefficients, [0.0, 0.85]).tolist() == [1e308, 5e307]


def _per_sample_rows(n):
    rng = np.random.default_rng(5)
    data = LabeledScores(scores=rng.random(n), labels=(rng.random(n) < 0.5).astype(int))
    return data, CostCoefficients(1.0, 3.0 * rng.random(n), 0.5 * rng.random(n), 1.0)


def test_per_sample_sweep_scales_to_100k_rows():
    # an O(n * u) sweep would visit 10**10 (row, threshold) cells at this size
    n = 100_000
    data, coefficients = _per_sample_rows(n)
    start = time.perf_counter()
    curve = utility_curve(data, coefficients)
    assert time.perf_counter() - start < 5.0
    assert curve.utilities.size == n + 1
    assert np.all(np.isfinite(curve.utilities))


def test_per_sample_sweep_memory_stays_bounded_at_100k_rows():
    # the sweep holds no Python int per row: int32 digits, one position at a
    # time, and the rules' exact totals at 3 bytes a digit (two Python ints
    # per row and their lists held about 26 MB here)
    data, coefficients = _per_sample_rows(100_000)
    data.runs
    curve, peak = traced_peak(utility_curve, data, coefficients)
    assert curve.utilities.size == data.n + 1
    assert peak < 16e6, peak


def test_per_sample_sweep_of_a_wide_coefficient_range_is_exact():
    # 1e-300 beside 1e300 puts about 86 digit positions between the lowest
    # and the highest bit of a total; each position is made and freed in turn
    rng = np.random.default_rng(17)
    n = 3000
    labels = (rng.random(n) < 0.5).astype(int)
    data = LabeledScores(scores=np.round(rng.random(n), 3), labels=labels)
    pool = np.array([0.0, 5e-324, 1e-300, 0.1, 1.0, 3e299, 1e300])
    coefficients = CostCoefficients(*(rng.choice(pool, n) for _ in range(4)))
    assert ContributionDigits(data.labels, coefficients).positions >= 85
    data.runs
    curve, peak = traced_peak(utility_curve, data, coefficients)
    assert peak < 1e6, peak
    picked = rng.choice(curve.thresholds.size, 60, replace=False)
    for k in [*picked.tolist(), 0, curve.thresholds.size - 1]:
        rule = DecisionRule(curve.thresholds[k])
        assert curve.utilities[k].hex() == empirical_utility(data, coefficients, rule).hex()
    best = int(np.argmax(curve.utilities))
    assert curve.best_threshold == curve.thresholds[best]
    rule = DecisionRule(curve.best_threshold)
    assert curve.max_utility.hex() == empirical_utility(data, coefficients, rule).hex()
    # where the accepted rows' huge contributions (odd mantissas) cancel, the
    # lowest digits alone set the mean
    huge = np.full(n, float.fromhex("0x1.0000000000001p+996"))
    tiny = np.array([5e-324, 2.5e-310, 1e-300, 3e-300])
    cancelling = CostCoefficients(huge, huge, rng.choice(tiny, n), rng.choice(tiny, n))
    curve = utility_curve(data, cancelling)
    small = np.flatnonzero(np.abs(curve.utilities) < 1e-200)
    assert small.size > 5
    for k in small.tolist():
        rule = DecisionRule(curve.thresholds[k])
        assert curve.utilities[k].hex() == empirical_utility(data, cancelling, rule).hex()
    # bootstrap draws read the same digits, made once, gathered per draw
    values, _ = resample([data], {"u_max": BOOTSTRAP_METRICS["u_max"]}, 3, 4, coefficients)
    draws = np.random.default_rng(np.random.SeedSequence([4]))
    for value in values[0]["u_max"]:
        idx = draws.integers(0, n, n)
        expected = utility_curve(data.take(idx), coefficients.take(idx)).max_utility
        assert value.hex() == expected.hex()


def test_contribution_digits_sum_back_to_each_contribution_exactly():
    # every row's digits, weighted by their positions, give back its exact
    # contribution when accepted and when rejected, over the whole float range
    rng = np.random.default_rng(23)
    n = 200
    pool = np.array([0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1.0, 3e299, 1e300, 2.0**996 + 2.0**944])
    labels = (rng.random(n) < 0.5).astype(int)
    coefficients = CostCoefficients(*(rng.choice(pool, n) for _ in range(4)))
    digits = ContributionDigits(labels, coefficients)
    accepted, rejected = [0] * n, [0] * n
    for position, (low, change) in enumerate(digits):
        assert np.abs(low).max() < 2**24 and np.abs(change).max() < 2**25
        for i, (a, c) in enumerate(zip(low.tolist(), change.tolist())):
            accepted[i] += a << (24 * position)
            rejected[i] += (a + c) << (24 * position)
    a11, a01, a10, a00 = coefficients.as_vectors(n)
    unit = Fraction(2) ** digits.lo
    for i, label in enumerate(labels.tolist()):
        assert accepted[i] * unit == Fraction(a11[i] if label else -a01[i])
        assert rejected[i] * unit == Fraction(-a10[i] if label else a00[i])


def _packed(totals, positions):
    # little-endian two's complement, 3 bytes a digit and one of sign, as the
    # sweep packs each rule's exact total
    width = 3 * positions + 1
    rows = [(t % (1 << (8 * width))).to_bytes(width, "little") for t in totals]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(totals), width)


def _python_means(totals, n, lo):
    return [(t << lo) / n if lo > 0 else t / (n << -lo) for t in totals]


def _same_floats(got, expected):
    # hex tells -0.0 from 0.0
    return [float(g).hex() for g in got] == [e.hex() for e in expected]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_means_of_packed_totals_are_python_int_divisions(data):
    positions = data.draw(st.integers(1, 90), label="positions")
    n = data.draw(st.integers(1, 2**37), label="n")
    lo = data.draw(st.integers(-1200, 60), label="lo")
    # a total below 2**bits has a mean below 2**1023, so none overflows;
    # small ones with a low lo give subnormal means and zeros of either sign
    most = min(24 * positions, 1022 + n.bit_length() - lo)
    total = st.integers(0, max(most, 0)).flatmap(
        lambda bits: st.integers(-(2**bits) + 1, 2**bits - 1)
    )
    # n times an odd 54-bit integer M times 2**k has the mean M * 2**(k + lo),
    # halfway between two floats where it is normal; one more or less lies
    # just beside the tie
    room = min(24 * positions - 55 - n.bit_length(), 969 - lo)
    if room >= 0:
        odd = st.integers(2**52, 2**53 - 1).map(lambda m: 2 * m + 1)
        tie = st.tuples(odd, st.integers(0, room), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 1]))
        total |= tie.map(lambda t: t[3] * ((n * t[0] << t[1]) + t[2]))
    totals = data.draw(st.lists(total, min_size=1, max_size=20), label="totals")
    expected = _python_means(totals, n, lo)
    assert _same_floats(_means(_packed(totals, positions), n, lo), expected)


def test_means_of_packed_totals_at_exact_halves_zero_and_the_largest_total():
    cases = [
        # (2**53 + 1) and (2**53 + 3) lie halfway between two floats: ties go to even
        (3, 3, 0, [3 * (2**53 + 1), 3 * (2**53 + 3), -3 * (2**53 + 1), -3 * (2**53 + 3)]),
        (4, 1, -1, [2**54 + 2, 2**54 + 6, -(2**54 + 2), -(2**54 + 6)]),
        # just above halfway, by a remainder, by a quotient bit inside the
        # digits read or by one far below them: each rounds away from even
        (3, 3, 0, [3 * (2**53 + 1) + 1, -3 * (2**53 + 1) - 1]),
        (5, 1, -30, [(2**53 + 1) * 2**30 + 1, -(2**53 + 1) * 2**30 - 1]),
        (10, 1, -100, [(2**53 + 1) * 2**100 + 1, -(2**53 + 1) * 2**100 - 1]),
        (2, 1, -1115, [2**40 + 1, -(2**40) - 1, 2**40]),
        # halfway in every quotient bit, above it only by the remainder left
        # after the last one
        (1, 130622469238, 0, [56, -56]),
        (1, 131048460735, 0, [9, -9]),
        # a half of the smallest subnormal rounds to 0.0 and -0.0, three halves to two
        (1, 1, -1075, [1, -1, 3, -3, 5, 2]),
        (2, 7, -1075, [7, -7, 21, -21, 7 * 2**25 + 1, 7 * 2**25 - 1]),
        # a zero total is 0.0, and -n * 2**k is exact
        (3, 5, -10, [0, -5 * 2**40, -5, 5 * 2**30]),
        (90, 2**37, 0, [0, -(2**37) * 2**1000, -(2**37)]),
        # the largest total the positions hold, of either sign
        (40, 1, 0, [2**960 - 1, -(2**960) + 1]),
        (90, 2**37 - 1, -1200, [2**2160 - 1, -(2**2160) + 1]),
        (1, 1, -1100, [2**24 - 1, -(2**24) + 1]),
    ]
    for positions, n, lo, totals in cases:
        expected = _python_means(totals, n, lo)
        assert _same_floats(_means(_packed(totals, positions), n, lo), expected), (n, lo)
    assert [float(v).hex() for v in _means(_packed([1, -1, 0], 2), 1, -1075)] == [
        "0x0.0p+0",
        "-0x0.0p+0",
        "0x0.0p+0",
    ]


def test_means_of_many_packed_totals_are_divided_block_by_block():
    # more rules than one block holds, at the widest totals, in rule order
    rng = np.random.default_rng(29)
    positions, n, lo = 90, 3001, -1150
    totals = [int(t) * int(m) - (1 << 1800) for t, m in zip(
        rng.integers(0, 2**62, 1500), rng.integers(1, 2**31, 1500)
    )]
    totals = [t << int(s) for t, s in zip(totals, rng.integers(0, 300, 1500))]
    totals = [t if abs(t) < 2 ** (24 * positions) else t >> 400 for t in totals]
    assert _same_floats(_means(_packed(totals, positions), n, lo), _python_means(totals, n, lo))
