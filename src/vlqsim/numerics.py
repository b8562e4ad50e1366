"""Self-contained numeric kernel.

Gaussian tail function, gamma-weighted quadrature (the SER oracle), the
truncated Rayleigh-Q integral, the closed-form MRC error rate and log-log
regression.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LogLogFit",
    "QuadratureError",
    "q_function",
    "gamma_tail",
    "integrate_gamma_weighted",
    "gamma_weighted_q_tail",
    "fit_loglog",
    "bpsk_mrc_ser",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# erfc(z) = exp(-z^2) S(y) / (1 + 2z) with y = (z - K)/(z + K) in [-1, 1):
# S is smooth on all of it (S(-1) = 1, S(1) = 2/sqrt(pi)), so one Chebyshev
# series covers z in [0, inf) (Shepherd & Laframboise, "Chebyshev
# approximation of (1 + 2x) exp(x^2) erfc x in 0 <= x < inf", Math. Comp.
# 1981).  The coefficients are S's projection on 80 first-kind nodes in
# 50-digit arithmetic, each rounded once to a double, and the series is cut
# where the absolute sum of the dropped ones falls below eps/64.
_ERFC_K = 3.75
_ERFC_CHEB = np.array(
    [
        1.1775789345674017, -0.004590054580646478, -0.08424913336651792,
        0.05920993999819189, -0.026658668435305753, 0.009074997670705265,
        -0.002413163540417608, 0.0004907758365258086, -6.916973302501207e-05,
        4.13902798607301e-06, 7.74038306619849e-07, -2.1886401049234397e-07,
        1.076499946567091e-08, 4.521959811218287e-09, -7.754400208831351e-10,
        -6.318088340886684e-11, 2.86879501093067e-11, 1.9455868545777347e-13,
        -9.65469674843344e-13, 3.25254814814874e-14, 3.3478119482868056e-14,
        -1.864562880419313e-15, -1.2507950530688648e-15, 7.418235256624044e-17,
        5.068148904796111e-17, -2.2370566594359995e-18,
    ]
)


# Fixed 64-node Gauss-Legendre rule on theta in [0, pi/2] for Craig's form
# of Q.  The weights absorb the 1/pi prefactor and the pi/4 Jacobian.
_CRAIG_XI, _CRAIG_W = np.polynomial.legendre.leggauss(64)
_CRAIG_SIN2 = np.sin(0.25 * math.pi * (_CRAIG_XI + 1.0)) ** 2
_CRAIG_WEIGHTS = 0.25 * _CRAIG_W

# integrate_gamma_weighted's range of u and most halvings of h = 1/2.
_DE_LO, _DE_HI = -5.0, 4.0
_DE_HALVINGS = 10


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot meet the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(f"{message} (estimate={estimate!r}, error={error_estimate:.3e})")
        self.estimate = estimate
        self.error_estimate = error_estimate


def _chebval(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``chebval(x, coef)`` for len(coef) >= 2, bit for bit.

    The same Clenshaw recurrence in the same order, but into preallocated
    buffers instead of three new arrays per term, and with the first step,
    where c0 and c1 are the scalars c[-2] and c[-1], on scalars.
    """
    if len(coef) == 2:
        return np.add(coef[0], np.multiply(coef[1], x))
    x2 = 2.0 * x
    # each step is (c0, c1) <- (c - c1, c0 + c1 x2); after the first, c0 is
    # the scalar c[-3] - c[-1] and c1 the array c[-2] + c[-1] x2
    c0 = coef[-3] - coef[-1]
    c1 = np.multiply(coef[-1], x2)
    c1 += coef[-2]
    nxt = np.empty_like(x)
    for c in coef[-4::-1]:
        np.subtract(c, c1, out=nxt)
        np.multiply(c1, x2, out=c1)
        np.add(c0, c1, out=c1)
        # the old c0's buffer takes the next c - c1; the scalar has none
        c0, nxt = nxt, c0 if isinstance(c0, np.ndarray) else np.empty_like(x)
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c1)


def _erfc_nonneg(z: np.ndarray) -> np.ndarray:
    """erfc on z >= 0 as exp(-z^2) S(y) / (1 + 2z), with S the Chebyshev
    series of (1 + 2z) exp(z^2) erfc(z) in y = (z - 3.75)/(z + 3.75)."""
    y = (z - _ERFC_K) / (z + _ERFC_K)
    # z * z and 2 z overflow to inf for z >~ 1.3e154, where exp(-inf) and
    # the division by inf give the right 0.0
    with np.errstate(under="ignore", over="ignore"):
        return np.exp(-z * z) * (_chebval(y, _ERFC_CHEB) / (1.0 + 2.0 * z))


def q_function(x):
    """Gaussian tail probability P(N(0,1) > x).

    One evaluation path for every input: a Python float or int, an
    ``np.float64`` or a 0-d array comes back as a float with the bits of
    the same x in a 1-element array.  Against mpmath at 40 digits:
    absolute error <= 2.3e-16 on [-8, 8] at step 0.01; for x >= 0
    relative error <= 4.3e-14 up to x = 15, growing like x^2 times the
    rounding of x/sqrt(2), to <= 2.5e-13 while Q is a normal double, up to
    x ~ 37.52 where Q ~ 2.2e-308; below that, absolute error <= 1e-320 in
    the subnormals, and 0.0 from x ~ 38.48 (mpmath's value rounds to 0.0
    from 38.49).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("q_function requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    tail = 0.5 * _erfc_nonneg(np.abs(arr) * _INV_SQRT2)
    res = np.where(arr >= 0.0, tail, 1.0 - tail)
    return float(res[0]) if scalar else res


_LOG_TINY = math.log(np.finfo(float).tiny)  # of the smallest normal double


def _exp_sum(t: int, x: np.ndarray, out=None, where=True) -> np.ndarray:
    """sum_{k < t} x^k / k! for integer t > 1, from 1 + x on, each term
    from the last, in place; into ``out`` where ``where`` holds."""
    acc = np.add(x, 1.0, out=out, where=where)
    if t > 2:
        term = x.copy()
        for k in range(2, t):
            np.multiply(term, x, out=term, where=where)
            np.divide(term, k, out=term, where=where)
            np.add(acc, term, out=acc, where=where)
    return acc


def gamma_tail(t: int, x):
    """Regularized upper incomplete gamma Gamma(t, x)/Gamma(t) for integer
    1 <= t <= about 200 (the sum overflows beyond); vectorized in x.

    exp(-x) sum_{k < t} x^k / k!, and from x = 700 on, where exp(-x) nears
    underflow, exp(ln sum - x); 0 from where the tail is surely not a
    normal double on, since exp is about 20 times slower where it underflows.
    """
    if t < 1 or t != int(t):
        raise ValueError("t must be a positive integer")
    t = int(t)
    a = np.asarray(x, dtype=float)
    scalar = a.ndim == 0
    if scalar:
        a = a.reshape(1)
    pos = np.clip(a, 0.0, 700.0)
    acc = _exp_sum(t, pos) if t > 1 else 1.0
    # a <= 0 needs no fix-up: pos is 0 there and exp(-0) * 1 is 1
    out = np.negative(pos, out=pos)
    np.exp(out, out=out)
    out *= acc
    deep = a >= 700.0
    out[deep] = 0.0
    # the tail is below t x^(t-1) e^-x, which falls from x = t on: below
    # the smallest normal double from x_hi (<= 1e4) on
    x_hi = math.log(t) + (t - 1) * math.log(1e4) - _LOG_TINY
    near = np.logical_and(deep, a < x_hi, out=deep)
    if near.any():
        # in place under the mask: small arrays of the few entries raised a
        # radial-t2 benchmark run's peak RSS by 0.2-0.9 MB (2-vCPU VM)
        if t > 1:
            np.log(_exp_sum(t, a, acc, near), out=acc, where=near)
        else:
            acc = np.zeros_like(a)
        np.subtract(acc, a, out=acc, where=near)
        with np.errstate(under="ignore"):
            np.exp(acc, out=out, where=near)
    return float(out[0]) if scalar else out


def gamma_weighted_q_tail(t: int, s, x0: float):
    """Truncated Rayleigh-Q integral I(s, x0) = E[Q(sqrt(2 s X)); X >= x0]
    for X ~ Gamma(t, 1), integer t >= 1; vectorized in s >= 0.

    Craig's form Q(x) = (1/pi) int_0^{pi/2} exp(-x^2 / (2 sin^2 th)) dth
    turns the magnitude integral into a smooth, positive, finite-range one,

        I(s, x0) = (1/pi) int_0^{pi/2} a^{-t} Gammabar(t, x0 a) dth,
        a = 1 + s / sin^2 th,

    which a fixed 64-node Gauss-Legendre rule evaluates as one
    (len(s), 64) array and one matvec.  I(s, 0) is the MRC average
    ``bpsk_mrc_ser(t, s)``.

    Domain, measured against the closed form by parts at 120 digits for
    t in 1..8: relative error <= 5e-14 for 1 <= s * x0 <= 600 and s >= 1e-2
    (I >= ~1e-260), and <= 1e-15 at x0 = 0 for s >= 1e-2.  Outside it the
    integrand has a sharp step near th = 0 that the fixed rule resolves
    less well: 5e-13 at s * x0 = 0.1, 2e-10 at 0.01 (t = 1), and at x0 = 0
    5e-11 for s = 1e-3 (t = 8).  The precoding VLQ's table spans
    (1-delta) t/(delta r) <= s * x0 <= t/(delta r), and its short branch
    has s * x0 = 1/(delta r) > 1.
    """
    if not (math.isfinite(x0) and x0 >= 0.0):
        raise ValueError("x0 must be finite and >= 0")
    a = np.asarray(s, dtype=float)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    if not np.all(a >= 0.0):
        raise ValueError("s must be >= 0")
    with np.errstate(under="ignore"):
        ratio = _CRAIG_SIN2 / (_CRAIG_SIN2 + a[:, None])  # 1 / a(th)
        res = (ratio**t * gamma_tail(t, x0 / ratio)) @ _CRAIG_WEIGHTS
    return float(res[0]) if scalar else res


def integrate_gamma_weighted(
    g: Callable[[np.ndarray], np.ndarray],
    t: int,
    lower: float = 0.0,
    *,
    rtol: float = 1e-10,
) -> float:
    """Integral of g(x) x^{t-1} e^{-x} / Gamma(t) over [lower, infinity).

    g takes a 1-D float array of abscissae and returns the values at each;
    t is a positive integer.  The exp-sinh rule of Takahasi and Mori
    substitutes x = lower + exp((pi/2) sinh u), which makes the integrand
    decay double-exponentially at both ends of u, and sums the trapezoid
    rule on u in [-5, 4] (x - lower from 2e-51 to 4e18) from h = 1/2,
    halving h and reusing every earlier abscissa, until two levels agree to
    rtol; after 10 halvings (18 433 abscissae) it raises QuadratureError.
    The weights are formed in the log domain, so no t warns.

    The rule converges this fast only when g is smooth on (lower,
    infinity): a kink such as ``np.minimum(x, 2.0)`` leaves an O(h^2)
    error and raises at rtol <= 1e-8.  For smooth g and the default rtol,
    measured against the closed form and mpmath: relative error <= 1e-14
    for the MRC average of ``q_function`` (t in 1..4 and 8, P from 1e-12
    to 1e12), and <= 1e-14 for e^{-x/2} with lower from 10 to 300.
    """
    if t < 1 or t != int(t):
        raise ValueError("t must be a positive integer")
    if lower < 0.0:
        raise ValueError("lower must be >= 0")
    if not rtol > 0.0:
        raise ValueError("rtol must be > 0")
    t = int(t)
    log_gamma_t = math.lgamma(t)

    def level_sum(u: np.ndarray) -> float:
        s = 0.5 * math.pi * np.sinh(u)
        x = lower + np.exp(s)
        with np.errstate(under="ignore"):
            # gamma density times dx/du = (pi/2) cosh(u) e^s
            log_w = np.log(0.5 * math.pi * np.cosh(u)) + s + (t - 1) * np.log(x) - x - log_gamma_t
            return float(np.sum(np.asarray(g(x), dtype=float) * np.exp(log_w)))

    h = 0.5
    total = h * level_sum(np.arange(_DE_LO, _DE_HI + 0.5 * h, h))
    for _ in range(_DE_HALVINGS):
        h *= 0.5
        prev = total
        total = 0.5 * prev + h * level_sum(np.arange(_DE_LO + h, _DE_HI, 2.0 * h))
        if abs(total - prev) <= rtol * abs(total):
            return total
    raise QuadratureError("double-exponential rule did not converge", total, abs(total - prev))


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    max_abs_residual: float
    p_range: tuple  # (P_min, P_max) in linear power

    def __post_init__(self):
        if not self.p_range[0] < self.p_range[1]:
            raise ValueError("P-range must be ascending")
        if self.max_abs_residual < 0.0:
            raise ValueError("residual must be >= 0")


def fit_loglog(points: Sequence) -> LogLogFit:
    """Least-squares line through (ln P, ln y).

    Diversity is read as -slope and array gain as exp(-intercept) when the
    data follow y = 1/(g P^d).
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    P = np.asarray([p for p, _ in pts], dtype=float)
    y = np.asarray([v for _, v in pts], dtype=float)
    if np.any(P <= 0.0) or np.any(y <= 0.0):
        raise ValueError("P and y must be positive")
    if np.any(np.diff(P) <= 0.0):
        raise ValueError("P must be strictly increasing")
    lx, ly = np.log(P), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return LogLogFit(
        slope=float(slope),
        intercept=float(intercept),
        max_abs_residual=float(np.max(np.abs(resid))),
        p_range=(float(P[0]), float(P[-1])),
    )


def bpsk_mrc_ser(t: int, snr):
    """Closed-form average BPSK error rate with t-branch maximal-ratio
    combining over i.i.d. unit-power Rayleigh fading at the given linear SNR.

    Vectorized in snr.
    """
    if t < 1 or t != int(t):
        raise ValueError("t must be a positive integer")
    t = int(t)
    a = np.asarray(snr, dtype=float)
    scalar = a.ndim == 0
    if scalar:
        a = a.reshape(1)
    # fmin skips NaN, which is accepted; an empty snr has no minimum
    if a.size and np.fmin.reduce(a, axis=None) < 0.0:
        raise ValueError("snr must be >= 0")
    # mu = sqrt(a / (1 + a)); 0.5 (1 - mu) is formed without the
    # cancellation at high SNR as lo = 0.5 / ((1 + a)(1 + mu)), since
    # 1 - mu^2 = 1/(1+a); hi = 0.5 (1 + mu)
    lo = np.add(1.0, a)
    hi = np.divide(a, lo)
    np.sqrt(hi, out=hi)
    hi += 1.0
    lo *= hi
    np.divide(0.5, lo, out=lo)
    hi *= 0.5
    # res = lo^t sum_{k < t} C(t-1+k, k) hi^k, the powers as ``**`` forms
    # them; the sum starts at 1 + C(t, 1) hi, since hi^1 is hi itself, and
    # at t = 1 it is 1, which leaves res = lo
    res = lo
    if t > 1:
        acc = np.multiply(t, hi)
        acc += 1.0
        term = np.empty_like(a) if t > 2 else None
        for k in range(2, t):
            np.multiply(math.comb(t - 1 + k, k), _power(hi, k, term), out=term)
            acc += term
        res = np.multiply(_power(lo, t, lo), acc, out=acc)
    return float(res[0]) if scalar else res


def _power(x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """``x ** k`` for an integer k >= 1, bit for bit, into out (which may be
    x): ``**`` squares with ``np.square``."""
    return np.square(x, out=out) if k == 2 else np.power(x, k, out=out)
