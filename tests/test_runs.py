"""The one sorted-score representation and every statistic that reads it.

The references below work from the raw scores only (``confusion_at`` per
threshold, boolean masks per calibration bin), so they share nothing with
``LabeledScores.runs`` and each comparison is bit for bit.
"""

import math

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
    roc_points,
    utility_at_thresholds,
    utility_curve,
)
from utileval.cli import main
from conftest import make_dataset


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
    return np.asarray(
        [np.where(data.scores >= t, accepted, rejected).mean() for t in thresholds]
    )


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
    assert runs.sorted_scores.tolist() == [0.2, 0.2, 0.5, 0.5, 0.9]
    assert runs.starts.tolist() == [0, 2, 4, 5]
    assert runs.positives_before.tolist() == [0, 1, 2, 3]
    assert runs.values.tolist() == [0.2, 0.5, 0.9]
    accepted, tp = runs.accepted([0.0, 0.2, 0.3, 0.9, 1.0])
    assert accepted.tolist() == [5, 5, 3, 1, 0]
    assert tp.tolist() == [3, 3, 2, 1, 0]
    for array in (runs.sorted_scores, runs.starts, runs.positives_before):
        with pytest.raises(ValueError):
            array[0] = 0


def test_evaluate_sorts_the_scores_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    scores = np.round(rng.random(200), 2)
    labels = (rng.random(200) < scores).astype(int)
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n" + "".join(f"{s!r},{y}\n" for s, y in zip(scores.tolist(), labels)))
    calls = []
    original = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    assert main(["evaluate", str(path), "--out-dir", str(tmp_path / "out"), "--utility", "c:1"]) == 0
    assert len(calls) == 1
