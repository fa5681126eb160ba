"""``utileval.special`` against the standard library and, where installed, SciPy."""

import math
import platform
import statistics
import warnings

import numpy as np
import pytest

from utileval.special import expit, logit, ndtri

# every branch of Cephes' ndtri and the values at its boundaries: the central
# approximation on (exp(-2), 1 - exp(-2)], the tails split at exp(-32)
_BRANCH_POINTS = [
    5e-324,
    1e-300,
    2.0**-54,
    1.27e-14,
    math.exp(-32),
    1e-10,
    math.exp(-2),
    0.3,
    0.5,
    0.7,
    1 - math.exp(-2),
    0.99,
    1 - 1e-10,
    1 - 2.0**-53,
]


def _central(p):
    return (p > math.exp(-2)) & (p <= 1 - math.exp(-2))


def test_ndtri_is_the_normal_quantile_of_the_standard_library():
    grid = np.concatenate(
        [_BRANCH_POINTS, np.linspace(0.001, 0.999, 999), np.logspace(-300, -1, 300)]
    )
    quantile = statistics.NormalDist().inv_cdf
    expected = np.array([quantile(p) for p in grid.tolist()])
    assert np.allclose(ndtri(grid), expected, rtol=2e-15, atol=0.0)
    assert ndtri(0.5) == 0.0


def test_ndtri_outside_the_open_interval():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ndtri([0.0, 1.0, -0.5, 1.5, np.nan, -np.inf])
    assert out[:2].tolist() == [-math.inf, math.inf]
    assert np.isnan(out[2:]).all()


def test_ndtri_reproduces_scipy():
    special = pytest.importorskip("scipy.special")
    p = np.concatenate([np.random.default_rng(17).random(1_000_000), _BRANCH_POINTS])
    ours, theirs = ndtri(p), special.ndtri(p)
    # the tails call log: NumPy's here and the C library's in SciPy, which
    # differ in the last place now and then; ndtri carries that to at most 4
    # units on this sample (x86-64 with AVX-512)
    ulps = np.abs(ours.view(np.int64) - theirs.view(np.int64))
    assert ulps.max() <= 4
    # the central branch calls no library function, so where the compiler
    # cannot fuse SciPy's multiply-adds (baseline x86-64) the bits are SciPy's
    if platform.machine() in ("x86_64", "AMD64"):
        central = _central(p)
        assert ours[central].tobytes() == theirs[central].tobytes()


def test_expit_and_logit_at_their_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit([-800.0, 800.0, 0.0]).tolist() == [0.0, 1.0, 0.5]
        assert logit([0.0, 0.5, 1.0]).tolist() == [-math.inf, 0.0, math.inf]
        assert np.isnan(logit([-0.5, 1.5])).all()
        assert expit(logit([0.0, 1.0])).tolist() == [0.0, 1.0]


def test_expit_and_logit_agree_with_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(5)
    x = rng.normal(scale=20.0, size=100_000)
    p = np.concatenate([rng.random(100_000), [0.3, 0.65, np.nextafter(0.3, 0), 0.5]])
    # both take exp and log from different libraries: a few units in the last place
    np.testing.assert_allclose(expit(x), special.expit(x), rtol=4 * 2.0**-52, atol=0.0)
    np.testing.assert_allclose(logit(p), special.logit(p), rtol=4 * 2.0**-52, atol=0.0)
