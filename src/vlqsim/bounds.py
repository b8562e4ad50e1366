"""Achievability and converse bound evaluators and their constants.

The Gaussian-tail sandwich constant c1 = min Q(x) e^{x^2} is Q(x*) e^{x*^2}
at the root x* of 2x Q(x) = phi(x), solved by Newton's method; the array
gains and their gap constant c3 are closed forms, and every full-CSIT
error rate here is the closed form ``numerics.bpsk_mrc_ser``.  The rate
bounds take the size of the book a run actually uses: ``vlq_rate_bound``
bounds the variable-length beamformer's rate by a fixed 1-D rule over the
Beta(1, t-1) law of one codeword's correlation, and the sweep's delta
schedule picks each power's book by it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numerics import _ipow, bpsk_mrc_ser, gamma_lower, q_function
from .quantizer import index_bits

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Newton steps from the grid's best point, 0.6: the error in x* goes
# 1.2e-2, 1.8e-4, 4.2e-8, 2.4e-15 and then to rounding
_C1_NEWTON_STEPS = 4
# vlq_rate_bound's rule: Gauss-Legendre nodes on [-1, 1] for ln c, and the
# head's depth in ln c below ln(beta / P): 1 - P(t, e^8) < 1e-1200 at t <= 8
_RATE_XI, _RATE_W = np.polynomial.legendre.leggauss(128)
_RATE_HEAD = 8.0

__all__ = [
    "derive_c1",
    "prop1_bounds",
    "vlq_rate_excess",
    "vlq_rate_bound",
    "thm3_converse_lb",
    "thm6_constants",
    "prop4_bounds",
    "converse_check",
    "constants_table",
]


def derive_c1():
    """Largest constant with Q(x) >= c1 exp(-x^2) for all real x.

    The ratio Q(x) e^{x^2} exceeds 1/2 for x < 0, is 1/2 at 0 and tends to
    infinity in the tail.  Its derivative e^{x^2} (2x Q(x) - phi(x)), with
    phi the standard normal density, vanishes once on x > 0, at the root
    x* of 2x Q(x) = phi(x), so c1 = Q(x*) e^{x*^2}.  Newton's method on
    2x Q(x) - phi(x), whose derivative is 2Q(x) - x phi(x), starts from
    the smallest ratio on a grid over [0, 5].  Returns (c1, x*).
    """
    grid = np.linspace(0.0, 5.0, 51)
    x = float(grid[np.argmin(q_function(grid) * np.exp(grid * grid))])
    for _ in range(_C1_NEWTON_STEPS):
        q, phi = q_function(x), math.exp(-0.5 * x * x) / _SQRT_2PI
        x -= (2.0 * x * q - phi) / (2.0 * q - x * phi)
    return q_function(x) * math.exp(x * x), x


def prop1_bounds(cardinality: int, t: int, P: float):
    """Variable-length beamforming penalties: SER slack and rate bound.

    Returns (ser_slack, rate_bound) with ser_slack = P^-(t+1) and
    rate_bound = 1 + (t+1) |B| log2(4|B|) ln P / P.
    """
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if P <= 1.0:
        raise ValueError("P must be > 1")
    ser_slack = P ** (-(t + 1))
    rate_bound = 1.0 + (t + 1) * cardinality * math.log2(4 * cardinality) * math.log(P) / P
    return ser_slack, rate_bound


def vlq_rate_excess(t: int, size: int, P: float) -> float:
    """Bound on the rate excess R - 1 of the variable-length beamformer on a
    book of ``size`` codewords in C^t at power P > 1, from its size alone:
    min(bits, bits |B| E[P(t, beta / (c P))]), with bits = ceil(log2 |B|),
    beta = (t+1) ln P, P(t, .) = ``numerics.gamma_lower`` and c ~ Beta(1, t-1)
    (c = 1 at t = 1).  The long branch costs bits with probability
    P(t, beta / (c_min P)), and c_min is one of the |B| correlations c_i,
    each Beta(1, t-1) whatever the book, so their sum bounds it.

    A fixed rule: with k = beta / P and c0 = k e^-8, the head c < c0, where
    P(t, k/c) = 1, is 1 - (1 - c0)^(t-1), the rest 128 Gauss-Legendre nodes
    in ln c on [ln c0, 0].  Within 1e-13 of mpmath for t in 2..4 and P in
    [1e2, 1e12].
    """
    bits = index_bits(size)
    if not P > 1.0:
        raise ValueError("P must be > 1")
    k = (t + 1) * math.log(P) / P
    if t == 1:
        mean = gamma_lower(1, k)
    else:
        ln_c0 = math.log(k) - _RATE_HEAD
        c = np.exp(0.5 * ln_c0 * (1.0 - _RATE_XI))
        dens = (t - 1) * _ipow(1.0 - c, t - 2) * c  # Beta(1, t-1) density by dc / d ln c
        tail = float(np.dot(dens * gamma_lower(t, k / c), _RATE_W)) * -0.5 * ln_c0
        mean = -math.expm1((t - 1) * math.log1p(-math.exp(ln_c0))) + tail
    return min(bits, bits * size * mean)


def vlq_rate_bound(t: int, size: int, P: float) -> float:
    """The rate bound 1 + ``vlq_rate_excess(t, size, P)``; the schedule
    compares the excess itself, which keeps its digits below 1e-16."""
    return 1.0 + vlq_rate_excess(t, size, P)


def thm3_converse_lb(P: float, R: float, c1: float) -> float:
    """Converse lower bound c1 exp(-6 P R) / (3 P) on the SER of any
    beamforming quantizer whose rate stays within the stated budget."""
    if P < 1.0:
        raise ValueError("P must be >= 1")
    if R < 0.0:
        raise ValueError("R must be >= 0")
    return float(c1 * math.exp(-min(6.0 * P * R, 745.0)) / (3.0 * P))


def thm6_constants(t: int, r: Fraction = Fraction(1)):
    """Array gains of the closed-loop and open-loop baselines and the
    converse gap constant c3 = (1/g_open - 1/g_full)/2, in closed form.

    With t-branch MRC, SER(P) (P/r)^t -> C(2t-1, t)/4^t at high P (Proakis
    & Salehi, BPSK with L-branch MRC), so g_full = (4/r)^t / C(2t-1, t).
    The open-loop identity precoder scales the SNR by 1/t, which costs a
    factor t^t in array gain: g_open = g_full / t^t, and
    c3 = C(2t-1, t) (r/4)^t (t^t - 1)/2.  The values are exact rationals
    rounded once to float.  Returns (g_open, g_full, c3).
    """
    if t not in (2, 3, 4):
        raise ValueError("t must be in {2, 3, 4}")
    if not 0 < r <= 1:
        raise ValueError("r must be in (0, 1]")
    inv_g_full = math.comb(2 * t - 1, t) * (Fraction(r) / 4) ** t
    return (
        float(1 / (inv_g_full * t**t)),
        float(1 / inv_g_full),
        float(inv_g_full * (t**t - 1) / 2),
    )


def prop4_bounds(t: int, delta: float, P: float, r: Fraction, cardinality: int):
    """Variable-length precoding bounds on a book of ``cardinality``
    codewords: (ser_bound, rate_bound) with ser_bound = SER_r(FULL)
    (1 + 2 t delta) + delta / P^t and rate_bound = 1 + C2 delta^-t
    ln(1/delta) / P^t, C2 = (|B| + 2) t^t / (t! ln(1/delta))."""
    if P <= 0.0 or not 0 < r <= 1 or not 0.0 < delta < 1.0 or cardinality < 1:
        raise ValueError("need P > 0, r in (0, 1], delta in (0, 1) and cardinality >= 1")
    ser_full = bpsk_mrc_ser(t, P / r)
    ser_bound = ser_full * (1.0 + 2.0 * t * delta) + delta / P**t
    rate_bound = 1.0 + (cardinality + 2) * t**t / (math.gamma(t + 1) * (delta * P) ** t)
    return ser_bound, rate_bound


def converse_check(records, t: int, c1: float):
    """Consistency of measured (rate, SER) points with the converse bounds.

    Beamforming quantizer records (ids bf-flq, bf-vlq) at P >= 1, where
    Theorem 3's bound is stated, are checked against the exponential lower
    bound evaluated at the measured rate excess plus the budget term
    t ln P / (13 P); records below P = 1 and feedback-free baselines are
    outside the scope of that bound (the baselines' rate is 0, not >= 1).
    Precoding quantizer records (pc-vlq) are checked against
    SER >= SER(OPEN) - (R - 1), with SER(OPEN) the closed-form open-loop
    error rate ``bpsk_mrc_ser(t, P / t)``.  Returns a list of violation
    dicts (empty when consistent).
    """
    violations = []
    for rec in records:
        margin = 3.0 * rec.ser_stderr
        if rec.quantizer_id in ("bf-flq", "bf-vlq"):
            if rec.P < 1.0:
                continue
            budget = t * math.log(rec.P) / (13.0 * rec.P)
            lb = thm3_converse_lb(rec.P, max(rec.rate - 1.0, 0.0) + budget, c1)
        elif rec.quantizer_id == "pc-vlq":
            lb = bpsk_mrc_ser(t, rec.P / t) - max(rec.rate - 1.0, 0.0)
        else:
            continue
        if rec.ser + margin < lb:
            violations.append(
                {"quantizer": rec.quantizer_id, "P": rec.P, "ser": rec.ser, "bound": lb}
            )
    return violations


def constants_table(t: int, r: Fraction) -> str:
    """Human-readable table of the derived bound constants at (t, r), each
    derived once."""
    _, _, c3 = thm6_constants(t, r)
    c1, x_star = derive_c1()
    rows = [
        ("C1", c1, f"min Q(x) exp(x^2), argmin ~ {x_star:.3f}"),
        ("C3", c3, "(1/g_open - 1/g_full)/2 = C(2t-1, t) (r/4)^t (t^t - 1)/2"),
    ]
    lines = [f"bound constants (t={t}, r={r})"]
    for name, value, formula in rows:
        lines.append(f"  {name}  {value:<12.6g} derived    {formula}")
    return "\n".join(lines)
