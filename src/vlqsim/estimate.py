"""Semi-analytic SER / feedback-rate estimation.

The primary estimator averages the conditional BPSK error rate
Q(sqrt(2 snr(h))) over channel draws.  Two conditioning modes:

* "none": per-draw conditional SER; supports exact pathwise comparisons.
* "radial": the channel magnitude is integrated out analytically per
  direction (h = a hbar with a^2 ~ Gamma(t,1) independent of hbar), which
  removes the dominant variance component and keeps relative standard
  errors bounded as P grows.  Without it the per-draw estimator's relative
  stderr grows like P^t/sqrt(N) and deep-SNR points are unusable.

Common random numbers: every quantizer evaluated in one sweep batch sees
the same draws, and the chunk partition is fixed, so outputs do not depend
on the worker count.

Because the draws are shared, so is the codebook correlation.  Each spec
names the beamforming codebook it quantizes with (``spec.codebook``, None
for full CSIT and open loop); per chunk, ``correlation_stats`` runs once
per distinct codebook and every spec using it receives the same per-draw
(max, min, column-0) of |<x_i, h>|^2 through ``snr_bits(H, P, corr)`` or
``conditioned(Hbar, P, corr)``.  The kernel itself is a blocked real GEMM
on lifted vectors (see ``BeamformingCodebook.correlation_stats``); called
without ``corr``, a spec computes its own.

Schemes: full-CSIT beamforming and precoding and the open-loop precoder
are one ``FeedbackFree`` class that differs only in its SNR divisor;
bf-flq, bf-vlq and pc-vlq each have a class, and each variable-length
branch rule is written once, in its ``snr_bits``.

No adaptive quadrature runs in a sweep.  The precoding VLQ's radial SER
needs the truncated Rayleigh-Q integral I(s, x0); ``prepare(P)`` evaluates
it with the fixed Craig-form kernel ``gamma_weighted_q_tail`` at 24
Chebyshev nodes per chunk and draws are evaluated on the interpolant, so
the sweep keeps no per-P state.  Per-chunk moments are centred and
combined in chunk order, so the standard error of a constant per-draw
value is rounding-sized.  ``ser_full_analytic`` keeps
the adaptive quadrature as an independent oracle.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1, chebval

from .channel import RngStream, sample_channels
from .codebook import BeamformingCodebook
from .numerics import (
    LogLogFit,
    QuadratureSpec,
    bpsk_mrc_ser,
    fit_loglog,
    gamma_tail,
    gamma_weighted_q_tail,
    integrate_gamma_weighted,
    q_function,
)
from .quantizer import VlqBeamformingSpec, VlqPrecodingSpec, index_bits

__all__ = [
    "SweepRecord",
    "GainEstimate",
    "FeedbackFree",
    "FullCsitBeamforming",
    "FixedLengthBeamforming",
    "VariableLengthBeamforming",
    "FullCsitPrecoding",
    "OpenLoopPrecoding",
    "VariableLengthPrecoding",
    "ser_rate_sweep",
    "ser_full_analytic",
    "estimate_gains",
    "paired_compare",
    "write_records_csv",
]

_CHUNK = 1 << 16

# Chebyshev nodes on [-1, 1] for the precoding VLQ's per-chunk table of
# log I in log s (see ``VariableLengthPrecoding.prepare``).
_TABLE_NODES = 24
_TABLE_X = chebpts1(_TABLE_NODES)


@dataclass(frozen=True)
class SweepRecord:
    quantizer_id: str
    P: float
    ser: float
    ser_stderr: float
    rate: float
    rate_stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ser <= 0.5 + 1e-12:
            raise ValueError(f"ser {self.ser} outside [0, 1/2]")
        if self.ser_stderr < 0.0 or self.rate_stderr < 0.0:
            raise ValueError("stderr must be >= 0")


@dataclass(frozen=True)
class GainEstimate:
    diversity: float
    array_gain: float
    fit: LogLogFit


class FeedbackFree:
    """A scheme with no feedback: snr = ||h||^2 P / divisor.

    The divisor is 1 for full-CSIT beamforming (h / ||h||), r for the
    full-CSIT rank-1 precoder h h^dagger / ||h||^2 and r t for the open-loop
    identity precoder I / sqrt(t).
    """

    def __init__(self, t: int, divisor: float, quantizer_id: str):
        self.t = t
        self.divisor = divisor
        self.quantizer_id = quantizer_id
        self.codebook = None

    def snr_bits(self, H: np.ndarray, P: float, corr=None):
        snr = np.sum(np.abs(H) ** 2, axis=1) * P / self.divisor
        return snr, np.zeros(len(H))

    def conditioned(self, Hbar: np.ndarray, P: float, corr=None):
        n = len(Hbar)
        return np.full(n, bpsk_mrc_ser(self.t, P / self.divisor)), np.zeros(n), 0.0


def FullCsitBeamforming(t: int) -> FeedbackFree:
    return FeedbackFree(t, 1.0, "bf-full")


def FullCsitPrecoding(t: int, r: Fraction = Fraction(1)) -> FeedbackFree:
    return FeedbackFree(t, float(r), "pc-full")


def OpenLoopPrecoding(t: int, r: Fraction = Fraction(1)) -> FeedbackFree:
    return FeedbackFree(t, float(r) * t, "open-loop")


class FixedLengthBeamforming:
    """Nearest-codeword encoder; always sends the full index."""

    def __init__(self, book: BeamformingCodebook):
        self.codebook = book
        self.t = book.t
        self.bits = index_bits(len(book))
        self.quantizer_id = "bf-flq"

    def snr_bits(self, H: np.ndarray, P: float, corr=None):
        c_max = (corr or self.codebook.correlation_stats(H))[0]
        return c_max * P, np.full(len(H), float(self.bits))

    def conditioned(self, Hbar: np.ndarray, P: float, corr=None):
        c_max = (corr or self.codebook.correlation_stats(Hbar))[0]
        return bpsk_mrc_ser(self.t, c_max * P), np.full(len(Hbar), float(self.bits)), 0.0


class VariableLengthBeamforming:
    """Short codeword "0" when every codeword clears beta = (t+1) ln P.

    In radial mode the conditional SER is reported as the fixed-length value
    plus half the rigorous gap bracket: the vlq differs from the flq only on
    the short branch, where both SNRs exceed beta, so the per-direction gap
    lies in [0, Q(sqrt(2 beta)) Pr(short | hbar)].  The half-width
    Q(sqrt(2 beta))/2 <= P^{-(t+1)}/4 is folded into the stderr.
    """

    def __init__(self, spec: VlqBeamformingSpec):
        self.spec = spec
        self.codebook = spec.codebook
        self.t = spec.codebook.t
        self.quantizer_id = "bf-vlq"

    def snr_bits(self, H: np.ndarray, P: float, corr=None):
        c_max, c_min, c_first = corr or self.codebook.correlation_stats(H)
        short = c_min * P >= self.spec.beta(P)
        snr = np.where(short, c_first, c_max) * P
        bits = np.where(short, 1.0, 1.0 + self.spec.index_bits)
        return snr, bits

    def conditioned(self, Hbar: np.ndarray, P: float, corr=None):
        c_max, c_min, _ = corr or self.codebook.correlation_stats(Hbar)
        beta = self.spec.beta(P)
        p_short = gamma_tail(self.t, beta / (np.maximum(c_min, 1e-300) * P))
        gap = q_function(math.sqrt(2.0 * beta))
        ser = bpsk_mrc_ser(self.t, c_max * P) + 0.5 * gap * p_short
        rate = 1.0 + self.spec.index_bits * (1.0 - p_short)
        return ser, rate, 0.5 * gap


class VariableLengthPrecoding:
    """Identity precoder when ||h||^2 P >= t/delta, else nearest codeword.

    Radial mode splits the magnitude integral at the branch threshold
    x0 = t/(delta P).  With the truncated Rayleigh-Q integral
    I(s, x0) = ``gamma_weighted_q_tail(t, s, x0)``, the SER per direction is

        F(s) - I(s, x0) + I(P/(t r), x0),    s = c_max P / r,

    where F = ``bpsk_mrc_ser``.  The short-branch term is direction-free.
    ``prepare(P)`` evaluates I once per call at the _TABLE_NODES Chebyshev
    nodes of log s over [(1-delta) P/r, P/r], which a delta-cover's c_max
    lands in, and fits the Chebyshev interpolant of log I in log s; draws
    are evaluated on it to ~1e-12 relative.  Draws the codebook does not
    cover (c_max < 1 - delta) get the kernel directly, because a polynomial
    must not extrapolate.  The feedback rate conditioned on the direction
    is exact and constant.
    """

    def __init__(self, spec: VlqPrecodingSpec):
        self.spec = spec
        self.codebook = spec.codebook.beamforming
        self.t = spec.codebook.t
        self.r = float(spec.r)
        self.quantizer_id = "pc-vlq"

    def snr_bits(self, H: np.ndarray, P: float, corr=None):
        norm2 = np.sum(np.abs(H) ** 2, axis=1)
        short = norm2 * P >= self.spec.threshold
        c_max = (corr or self.codebook.correlation_stats(H))[0]
        snr = np.where(short, norm2 * P / (self.t * self.r), c_max * P / self.r)
        bits = np.where(short, 1.0, 1.0 + self.spec.index_bits)
        return snr, bits

    def prepare(self, P: float):
        """(log s interval, Chebyshev coefficients of log I on it,
        short-branch I) for power P."""
        t, r = self.t, self.r
        x0 = self.spec.threshold / P
        lo, hi = math.log((1.0 - self.spec.delta) * P / r), math.log(P / r)
        s_nodes = np.exp(lo + 0.5 * (hi - lo) * (_TABLE_X + 1.0))
        tail = gamma_weighted_q_tail(t, np.append(s_nodes, P / (t * r)), x0)
        coef = chebfit(_TABLE_X, np.log(np.maximum(tail[:-1], 1e-300)), _TABLE_NODES - 1)
        return (lo, hi), coef, tail[-1]

    def conditioned(self, Hbar: np.ndarray, P: float, corr=None):
        (lo, hi), coef, tail_short = self.prepare(P)
        c_max = (corr or self.codebook.correlation_stats(Hbar))[0]
        s = c_max * P / self.r
        x0 = self.spec.threshold / P
        x = np.clip((2.0 * np.log(s) - lo - hi) / (hi - lo), -1.0, 1.0)
        tail_long = np.exp(chebval(x, coef))
        uncovered = c_max < 1.0 - self.spec.delta
        if np.any(uncovered):
            tail_long[uncovered] = gamma_weighted_q_tail(self.t, s[uncovered], x0)
        ser = np.maximum(bpsk_mrc_ser(self.t, s) - tail_long, 0.0) + tail_short
        rate = np.full(len(Hbar), 1.0 + self.spec.index_bits * (1.0 - gamma_tail(self.t, x0)))
        return ser, rate, 0.0


def ser_full_analytic(
    t: int, P: float, r: Fraction | float = 1, quad: QuadratureSpec | None = None
) -> float:
    """E[Q(sqrt(2 ||h||^2 P / r))] by Gamma(t,1)-weighted quadrature."""
    if t < 1 or P <= 0.0:
        raise ValueError("need t >= 1 and P > 0")
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must be in (0, 1]")
    quad = quad or QuadratureSpec(relative_tolerance=1e-10)
    return integrate_gamma_weighted(lambda x: q_function(np.sqrt(2.0 * x * P / r)), t, quad)


def _chunk_bounds(samples: int, chunk: int = _CHUNK):
    return [(i, min(i + chunk, samples)) for i in range(0, samples, chunk)]


def _conditional_ser(specs, H, P, conditioning):
    """Per-draw (ser, rate, half-width) of every spec on one chunk of draws.

    The codebook correlation is computed once per distinct codebook and
    shared by every spec that quantizes with it.
    """
    if conditioning == "radial":
        H = H / np.linalg.norm(H, axis=1, keepdims=True)
    stats = {}
    out = []
    for spec in specs:
        book = spec.codebook
        if book is not None and id(book) not in stats:
            stats[id(book)] = book.correlation_stats(H)
        corr = None if book is None else stats[id(book)]
        if conditioning == "radial":
            out.append(spec.conditioned(H, P, corr))
        else:
            snr, bits = spec.snr_bits(H, P, corr)
            out.append((q_function(np.sqrt(2.0 * snr)), bits, 0.0))
    return out


def _chunk_task(specs, P, stream, p_idx, c_idx, n, conditioning):
    """Per-chunk moments for every spec; identical for any worker layout."""
    H = sample_channels(stream.child(p_idx, c_idx), specs[0].t, n)
    return [
        (_moments(ser_v), _moments(rate_v), hw)
        for ser_v, rate_v, hw in _conditional_ser(specs, H, P, conditioning)
    ]


def _moments(v: np.ndarray):
    """(count, sum, sum of squared deviations from the mean) of one chunk."""
    total = float(np.sum(v))
    return len(v), total, float(np.sum((v - total / len(v)) ** 2))


def _mean_stderr(parts):
    """Mean and its standard error from per-chunk moments.

    Chunks are combined in index order with the parallel-variance update
    (Chan, Golub & LeVeque), so a constant per-draw value gives a stderr of
    rounding size instead of the one-pass formula's cancellation.
    """
    n = sum(c for c, _, _ in parts)
    mean = math.fsum(total for _, total, _ in parts) / n
    m2 = math.fsum(m2 + c * (total / c - mean) ** 2 for c, total, m2 in parts)
    return mean, math.sqrt(m2 / max(n - 1, 1) / n)


def ser_rate_sweep(
    specs,
    P_grid,
    samples: int,
    stream: RngStream,
    *,
    workers: int = 1,
    conditioning: str = "radial",
) -> list:
    """SER and feedback-rate records for every (spec, P) pair.

    All specs share the channel draws at each grid point (common random
    numbers).  Chunks are a fixed partition of the sample index range with
    per-chunk substreams, and per-chunk sums are combined with compensated
    summation in index order, so the result is bit-identical for any
    worker count.
    """
    specs = list(specs)
    P_grid = [float(P) for P in P_grid]
    if not P_grid or min(P_grid) <= 0.0:
        raise ValueError("P grid must be nonempty and positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if conditioning not in ("none", "radial"):
        raise ValueError("conditioning must be 'none' or 'radial'")
    if len({s.t for s in specs}) != 1:
        raise ValueError("all specs must share the antenna count")
    bounds = _chunk_bounds(samples)
    records = []
    for p_idx, P in enumerate(P_grid):
        tasks = [
            (p_idx, c_idx, hi - lo) for c_idx, (lo, hi) in enumerate(bounds)
        ]
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(
                        lambda a: _chunk_task(specs, P, stream, a[0], a[1], a[2], conditioning),
                        tasks,
                    )
                )
        else:
            results = [
                _chunk_task(specs, P, stream, pi, ci, n, conditioning) for pi, ci, n in tasks
            ]
        for j, spec in enumerate(specs):
            ser, ser_se = _mean_stderr([r[j][0] for r in results])
            rate, rate_se = _mean_stderr([r[j][1] for r in results])
            hw = max(r[j][2] for r in results)
            records.append(
                SweepRecord(
                    quantizer_id=spec.quantizer_id,
                    P=P,
                    ser=min(ser, 0.5),
                    ser_stderr=ser_se + hw,
                    rate=rate,
                    rate_stderr=rate_se,
                    samples=samples,
                    seed=stream.master_seed,
                )
            )
    return records


def estimate_gains(records, top_decades: int = 2) -> GainEstimate:
    """Diversity and array gain from the top decades of a sweep.

    Fits ln SER against ln P; diversity is minus the slope and the array
    gain is 1/(SER * P^diversity) at the largest grid point.
    """
    recs = sorted(records, key=lambda r: r.P)
    if len(recs) < 3:
        raise ValueError("need at least 3 records")
    p_max = recs[-1].P
    span = math.log10(p_max / recs[0].P)
    if span < top_decades:
        raise ValueError(f"grid spans {span:.2f} decades < requested {top_decades}")
    cut = p_max / 10.0**top_decades
    top = [r for r in recs if r.P >= cut * (1.0 - 1e-12)]
    if len(top) < 3:
        raise ValueError("fewer than 3 records in the top decades")
    fit = fit_loglog([(r.P, r.ser) for r in top])
    d = -fit.slope
    g = 1.0 / (recs[-1].ser * p_max**d)
    return GainEstimate(diversity=d, array_gain=g, fit=fit)


def paired_compare(
    spec_a,
    spec_b,
    P: float,
    samples: int,
    stream: RngStream,
    *,
    conditioning: str = "none",
):
    """Pathwise comparison of conditional SERs on identical channel draws.

    Returns (mean-gap, gap-stderr, fraction-A-dominates, max-violation)
    where the gap is SER_A - SER_B per draw and max-violation is the most
    negative gap observed (0.0 when A dominates everywhere).
    """
    if spec_a.t != spec_b.t:
        raise ValueError("specs must share the antenna count")
    bounds = _chunk_bounds(samples)
    parts = []
    dom = 0
    worst = 0.0
    for c_idx, (lo, hi) in enumerate(bounds):
        H = sample_channels(stream.child(0, c_idx), spec_a.t, hi - lo)
        (va, _, _), (vb, _, _) = _conditional_ser((spec_a, spec_b), H, P, conditioning)
        gap = va - vb
        parts.append(_moments(gap))
        dom += int(np.count_nonzero(gap >= 0.0))
        worst = min(worst, float(np.min(gap)))
    mean, se = _mean_stderr(parts)
    return mean, se, dom / samples, worst


def _format(x: float) -> str:
    return repr(float(x))


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["quantizer", "P_dB", "P_linear", "ser", "ser_stderr", "rate", "rate_stderr", "samples", "seed"]
        )
        for r in records:
            w.writerow(
                [
                    r.quantizer_id,
                    _format(10.0 * math.log10(r.P)),
                    _format(r.P),
                    _format(r.ser),
                    _format(r.ser_stderr),
                    _format(r.rate),
                    _format(r.rate_stderr),
                    r.samples,
                    r.seed,
                ]
            )

