"""Achievability and converse bound evaluators and their constants.

The Gaussian-tail sandwich constant c1 = min Q(x) e^{x^2} is Q(x*) e^{x*^2}
at the root x* of 2x Q(x) = phi(x), solved by Newton's method; the array
gains and their gap constant c3 are closed forms, and every full-CSIT
error rate here is the closed form ``numerics.bpsk_mrc_ser``.  The
covering constant and the precoding rate constant are empirical, threaded
in from built codebook families.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numerics import bpsk_mrc_ser, q_function

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Newton steps from the grid's best point, 0.6: the error in x* goes
# 1.2e-2, 1.8e-4, 4.2e-8, 2.4e-15 and then to rounding
_C1_NEWTON_STEPS = 4

__all__ = [
    "derive_c1",
    "prop1_bounds",
    "delta_schedule",
    "phi_schedule",
    "thm3_converse_lb",
    "thm6_constants",
    "c2_hat",
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


def _covering_size(c0_hat: float, t: int, delta: float) -> float:
    """C0 delta^-2t, the size scale of a delta-cover; ValueError unless it
    is finite."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    try:
        m = c0_hat * delta ** (-2 * t)
    except OverflowError:
        m = math.inf
    if not math.isfinite(m):
        raise ValueError(f"C0 delta^-2t overflows at C0 = {c0_hat:g}, delta = {delta:g}")
    return m


def phi_schedule(delta: float, t: int, c0_hat: float) -> float:
    """phi(delta) = (t+1) C0 delta^-2t * log2(4 C0 delta^-2t)."""
    m = _covering_size(c0_hat, t, delta)
    return (t + 1) * m * math.log2(4.0 * m)


def delta_schedule(fP: float, t: int, c0_hat: float) -> float:
    """Inverse of phi by bisection on its strictly decreasing branch.

    With m = C0 delta^-2t, phi = (t+1) m log2(4m) is increasing in m, and so
    decreasing in delta, wherever 4m >= e.  The bracket is therefore
    [1e-6, hi] with hi = min(0.99, (4 C0/e)^(1/2t)), which covers every
    delta of practical interest.  Bisection stops once phi is within a
    relative 1e-9 of fP.
    """
    if c0_hat <= 0.0:
        raise ValueError("c0_hat must be positive")
    hi = min(0.99, (4.0 * c0_hat / math.e) ** (1.0 / (2 * t)))
    lo = 1e-6
    if fP > phi_schedule(lo, t, c0_hat) or fP < phi_schedule(hi, t, c0_hat):
        raise ValueError(
            f"f(P) = {fP:g} outside the invertible range "
            f"[{phi_schedule(hi, t, c0_hat):g}, {phi_schedule(lo, t, c0_hat):g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_schedule(mid, t, c0_hat) > fP:
            lo = mid
        else:
            hi = mid
        if abs(phi_schedule(mid, t, c0_hat) - fP) <= 1e-9 * fP:
            return mid
    return 0.5 * (lo + hi)


def thm3_converse_lb(P: float, R: float, c1: float) -> float:
    """Converse lower bound c1 exp(-6 P R) / (3 P) on the SER of any
    beamforming quantizer whose rate stays within the stated budget."""
    if P < 1.0:
        raise ValueError("P must be >= 1")
    if R < 0.0:
        raise ValueError("R must be >= 0")
    with np.errstate(under="ignore"):
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


def c2_hat(c0_hat: float, t: int, delta: float) -> float:
    """Empirical precoding rate constant,
    (1 + ceil(C0 delta^-2t) + 1) t^t / Gamma(t+1) normalized by
    ln(1/delta)."""
    count = 2 + math.ceil(_covering_size(c0_hat, t, delta))
    return count * t**t / (math.gamma(t + 1) * math.log(1.0 / delta))


def prop4_bounds(t: int, delta: float, P: float, r: Fraction, c0_hat: float):
    """Variable-length precoding bounds: (ser_bound, rate_bound) with
    ser_bound = SER_r(FULL)(1 + 2 t delta) + delta / P^t and
    rate_bound = 1 + C2 delta^-t ln(1/delta) / P^t."""
    if P <= 0.0 or not 0 < r <= 1:
        raise ValueError("need P > 0 and r in (0, 1]")
    ser_full = bpsk_mrc_ser(t, P / r)
    ser_bound = ser_full * (1.0 + 2.0 * t * delta) + delta / P**t
    rate_bound = 1.0 + c2_hat(c0_hat, t, delta) * delta ** (-t) * math.log(1.0 / delta) / P**t
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


def constants_table(t: int, r: Fraction, c0_hat: float, delta: float) -> str:
    """Human-readable table of the bound constants at (t, r), each derived
    once, for the empirical covering constant c0_hat (finite, > 0) and the
    precoding resolution delta."""
    if not (math.isfinite(c0_hat) and c0_hat > 0.0):
        raise ValueError("c0 must be finite and > 0")
    c2 = c2_hat(c0_hat, t, delta)
    _, _, c3 = thm6_constants(t, r)
    c1, x_star = derive_c1()
    rows = [
        ("C0-hat", c0_hat, "empirical", "max |B| delta^(2t) over built family"),
        ("C1", c1, "derived", f"min Q(x) exp(x^2), argmin ~ {x_star:.3f}"),
        ("C2-hat", c2, "empirical", "(2 + ceil(C0 delta^-2t)) t^t / (t! ln(1/delta))"),
        ("C3", c3, "derived", "(1/g_open - 1/g_full)/2 = C(2t-1, t) (r/4)^t (t^t - 1)/2"),
    ]
    width = max(len(row[0]) for row in rows)
    lines = [f"bound constants (t={t}, r={r})"]
    for name, value, prov, formula in rows:
        lines.append(f"  {name:<{width}}  {value:<12.6g} {prov:<10} {formula}")
    return "\n".join(lines)
