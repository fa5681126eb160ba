"""The three special functions the package needs, in NumPy alone.

``expit`` and ``logit`` are the logistic function and its inverse, with the
formulas SciPy uses.  ``ndtri``, the inverse of the standard normal CDF, is a
port of Stephen L. Moshier's Cephes ``ndtri`` (the routine SciPy's
``ndtri`` wraps): the same rational approximations, branch tests and Horner
order.  Each step is one IEEE operation, so the central
branch reproduces SciPy bit for bit; the tails call NumPy's ``log``, which
may differ from the C library's in the last place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expit", "logit", "ndtri"]

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32) = 1.27e-14
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64): y between exp(-32) and exp(-2048)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes ``polevl``: the polynomial with these coefficients, highest first."""
    out = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coefficients) -> np.ndarray:
    """Cephes ``p1evl``: as :func:`_polevl` with a leading coefficient of 1."""
    out = x + coefficients[0]
    for c in coefficients[1:]:
        out *= x
        out += c
    return out


def expit(x) -> np.ndarray:
    """The logistic function ``1 / (1 + exp(-x))``; 0 where ``exp(-x)`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def logit(p) -> np.ndarray:
    """``log(p / (1 - p))``: -inf at 0, inf at 1, NaN outside [0, 1].

    On [0.3, 0.65] it is ``log1p(s) - log1p(-s)`` with ``s = 2 (p - 0.5)``,
    which keeps its precision near p = 0.5.
    """
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * (p - 0.5)
        return np.where(
            (p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)), np.log1p(s) - np.log1p(-s)
        )


def ndtri(y) -> np.ndarray:
    """The ``x`` at which the standard normal CDF equals ``y``.

    -inf at 0, inf at 1 and NaN outside [0, 1], as in Cephes.
    """
    y = np.asarray(y, dtype=np.float64)
    shape = y.shape
    y = y.ravel()
    central = (y > _EXP_M2) & (y <= 1.0 - _EXP_M2)
    # every lane takes the central formula; the others are overwritten below
    with np.errstate(all="ignore"):
        v = y - 0.5
        v2 = v * v
        out = (v + v * (v2 * _polevl(v2, _P0) / _p1evl(v2, _Q0))) * _S2PI
    ends = ~((y > 0.0) & (y < 1.0))
    if ends.any():
        out[ends] = np.where(y[ends] == 0.0, -np.inf, np.where(y[ends] == 1.0, np.inf, np.nan))

    tail = np.flatnonzero(~(central | ends))
    t = y[tail]
    upper = t > 0.5
    # as in Cephes, the upper tail is computed from 1 - y and not negated
    t = np.where(upper, 1.0 - t, t)
    x = np.sqrt(-2.0 * np.log(t))
    x0 = x - np.log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # y <= exp(-32)
    if far.size:
        x1[far] = z[far] * _polevl(z[far], _P2) / _p1evl(z[far], _Q2)
    x = x0 - x1
    out[tail] = np.where(upper, x, -x)
    return out.reshape(shape)
