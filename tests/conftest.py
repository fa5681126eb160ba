import tracemalloc

import numpy as np
import pytest

from utileval import LabeledScores


def make_dataset(rng, n, tie_decimals=None):
    """Random dataset guaranteed to contain both classes.

    ``tie_decimals`` rounds the scores to force tied values, which is where
    ranking code earns its keep.
    """
    scores = rng.random(n)
    if tie_decimals is not None:
        scores = np.round(scores, tie_decimals)
    labels = (rng.random(n) < 0.5).astype(np.int64)
    if labels.min() == labels.max():
        labels[rng.integers(0, n)] = 1 - labels[0]
    return LabeledScores(scores=scores, labels=labels)


def traced_peak(function, *args):
    """``function(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
