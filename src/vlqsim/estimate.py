"""Semi-analytic SER / feedback-rate estimation.

The primary estimator averages the conditional BPSK error rate
Q(sqrt(2 snr(h))) over channel draws.  Two conditioning modes:

* "none": per-draw conditional SER; supports exact pathwise comparisons.
* "radial": the channel magnitude is integrated out analytically per
  direction (h = a hbar with a^2 ~ Gamma(t,1) independent of hbar), which
  removes the dominant variance component and keeps relative standard
  errors bounded as P grows.  Without it the per-draw estimator's relative
  stderr grows like P^t/sqrt(N) and deep-SNR points are unusable.  Only
  the direction is drawn, up to a common phase, by
  ``channel.sample_directions`` from 2t - 2 uniforms per draw, straight
  into the real (t^2, n) lift that the correlation reads; plain mode
  draws whole complex channels with ``sample_channels``.

Common random numbers: every quantizer at every grid point of one sweep
sees the same draws, and the chunk partition is fixed, so outputs do not
depend on the worker count and a grid point's records equal a one-point
sweep at that P.  Records at different P in one sweep are therefore
correlated; each record's mean and stderr are unchanged in distribution.
Chunks of _CHUNK draws run on one thread per usable CPU by default.

Because the draws are shared, so is the codebook correlation.  Each spec
names the beamforming codebook it quantizes with (``spec.codebook``, None
for full CSIT and open loop); per chunk, the correlation runs once
per distinct codebook for the whole P grid, and every spec using it
receives the same per-draw (max, min, column-0) of |<x_i, h>|^2 through
``snr_bits(H, P, corr)`` or ``conditioned(lifted, P, corr)``.  The kernel
itself is one blocked real GEMM on lifted vectors (see
``BeamformingCodebook.lifted_stats``; ``correlation_stats`` lifts complex
rows block by block into it); called without ``corr``, a spec computes
its own.  A radial chunk's lift is freed once its stats exist, and the
specs then read only its draw count.  In radial mode the stats also hold
the MRC SER ``bpsk_mrc_ser(t, c_max P / r)`` for the current P, one array
per r, so bf-flq, bf-vlq and pc-vlq at r = 1 evaluate it once per chunk
and P instead of once each, with the same bits.  Each spec's per-draw values
are reduced to chunk moments before the next spec is evaluated.

Schemes: full-CSIT beamforming and precoding and the open-loop precoder
are one ``FeedbackFree`` class that differs only in its SNR divisor;
bf-flq, bf-vlq and pc-vlq each have a class, and each variable-length
branch rule is written once, in its ``snr_bits``.

No adaptive quadrature runs in a sweep.  The precoding VLQ's radial SER
needs the truncated Rayleigh-Q integral I(s, x0); ``prepare(P)`` evaluates
it with the fixed Craig-form kernel ``gamma_weighted_q_tail`` at 24
Chebyshev nodes, once per spec and P, and keeps the interpolant's series
only as long as the SER can see.  Draws are evaluated on it at an abscissa
that depends on c_max and delta alone, computed once per chunk in the
codebook's stats.  Per-chunk moments are centred and combined in chunk
order, so the standard error of a per-draw value that varies only by
rounding is rounding-sized; a scheme whose rate is constant per direction
returns it as a scalar, whose moments are exact and whose stderr is 0.
``ser_full_analytic`` keeps the adaptive quadrature as an independent
oracle.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1

from .channel import RngStream, sample_channels, sample_directions
from .codebook import BeamformingCodebook
from .numerics import (
    LogLogFit,
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
    "read_records_csv",
    "CSV_COLUMNS",
]

_CHUNK = 1 << 15

# Header of the sweep CSV that write_records_csv writes and read_records_csv reads.
CSV_COLUMNS = (
    "quantizer", "P_dB", "P_linear", "ser", "ser_stderr", "rate", "rate_stderr", "samples", "seed"
)

# Chebyshev nodes on [-1, 1] for the precoding VLQ's per-P table of log I
# (see ``VariableLengthPrecoding``).
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

    def conditioned(self, lifted: np.ndarray, P: float, corr=None):
        return np.full(lifted.shape[1], bpsk_mrc_ser(self.t, P / self.divisor)), 0.0, 0.0


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
        c_max, _, _ = corr or self.codebook.correlation_stats(H)
        return c_max * P, np.full(len(H), float(self.bits))

    def conditioned(self, lifted: np.ndarray, P: float, corr=None):
        corr = corr or _BookStats(self.codebook, lifted)
        return corr.mrc_ser(P), float(self.bits), 0.0


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

    def conditioned(self, lifted: np.ndarray, P: float, corr=None):
        corr = corr or _BookStats(self.codebook, lifted)
        beta = self.spec.beta(P)
        p_short = gamma_tail(self.t, beta / (np.maximum(corr.c_min, 1e-300) * P))
        gap = q_function(math.sqrt(2.0 * beta))
        ser = corr.mrc_ser(P) + 0.5 * gap * p_short
        rate = 1.0 + self.spec.index_bits * (1.0 - p_short)
        return ser, rate, 0.5 * gap


class VariableLengthPrecoding:
    """Identity precoder when ||h||^2 P >= t/delta, else nearest codeword.

    Radial mode splits the magnitude integral at the branch threshold
    x0 = t/(delta P).  With the truncated Rayleigh-Q integral
    I(s, x0) = ``gamma_weighted_q_tail(t, s, x0)``, the SER per direction is

        F(s) - I(s, x0) + I(P/(t r), x0),    s = c_max P / r,

    where F = ``bpsk_mrc_ser``.  The short-branch term and the feedback
    rate are direction-free.  A delta-cover's c_max lies in [1 - delta, 1],
    and there I is tabulated in the abscissa x = 1 - 2 ln c_max / ln(1 - delta)
    in [-1, 1], which depends on neither P nor r: each chunk's ``_BookStats``
    computes x once for every pc-vlq spec at every P.  ``prepare(P)``
    evaluates I at the _TABLE_NODES Chebyshev nodes in x and fits the
    Chebyshev interpolant of log I; each spec keeps one table per P, so a
    sweep builds it once per grid point, not once per chunk.  The series is
    then cut to what the SER can see: trailing coefficients are dropped
    while their absolute sum, which bounds the change in log I, stays below
    eps times the smallest SER / I over the nodes.  At t=2, delta=0.2 it
    keeps 8 of 24; at delta=0.9, where I ~ F, it keeps all.  Draws the
    codebook does not cover (c_max < 1 - delta) get the kernel directly,
    because a polynomial must not extrapolate.
    """

    def __init__(self, spec: VlqPrecodingSpec):
        self.spec = spec
        self.codebook = spec.codebook.beamforming
        self.t = spec.codebook.t
        self.r = float(spec.r)
        self.quantizer_id = "pc-vlq"
        self._tables = {}
        self._tables_lock = threading.Lock()

    def snr_bits(self, H: np.ndarray, P: float, corr=None):
        norm2 = np.sum(np.abs(H) ** 2, axis=1)
        short = norm2 * P >= self.spec.threshold
        c_max, _, _ = corr or self.codebook.correlation_stats(H)
        snr = np.where(short, norm2 * P / (self.t * self.r), c_max * P / self.r)
        bits = np.where(short, 1.0, 1.0 + self.spec.index_bits)
        return snr, bits

    def prepare(self, P: float):
        """(Chebyshev coefficients of log I in x, short-branch I, feedback
        rate) for power P."""
        t, r = self.t, self.r
        x0 = self.spec.threshold / P
        lo, hi = math.log((1.0 - self.spec.delta) * P / r), math.log(P / r)
        s_nodes = np.exp(lo + 0.5 * (hi - lo) * (_TABLE_X + 1.0))
        tail = gamma_weighted_q_tail(t, np.append(s_nodes, P / (t * r)), x0)
        tail_nodes, tail_short = np.maximum(tail[:-1], 1e-300), tail[-1]
        coef = chebfit(_TABLE_X, np.log(tail_nodes), _TABLE_NODES - 1)
        # |T_k| <= 1 on [-1, 1], so dropping c_k, c_k+1, ... moves log I by at
        # most the sum of their |c|, and the SER by about I times that
        ser_nodes = bpsk_mrc_ser(t, s_nodes) - tail_nodes + tail_short
        tol = np.finfo(float).eps * np.min(ser_nodes / tail_nodes)
        dropped = np.cumsum(np.abs(coef[::-1]))[::-1]
        keep = max(2, int(np.count_nonzero(dropped > tol)))
        rate = 1.0 + self.spec.index_bits * (1.0 - gamma_tail(t, x0))
        return coef[:keep], tail_short, rate

    def conditioned(self, lifted: np.ndarray, P: float, corr=None):
        with self._tables_lock:
            if P not in self._tables:
                self._tables[P] = self.prepare(P)
        coef, tail_short, rate = self._tables[P]
        corr = corr or _BookStats(self.codebook, lifted)
        tail = np.exp(_chebval(corr.cheb_x, coef))
        if corr.uncovered.size:
            s = corr.c_max[corr.uncovered] * P / self.r
            tail[corr.uncovered] = gamma_weighted_q_tail(self.t, s, self.spec.threshold / P)
        ser = np.subtract(corr.mrc_ser(P, self.r), tail, out=tail)
        np.maximum(ser, 0.0, out=ser)
        ser += tail_short
        return ser, rate, 0.0


def _chebval(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``chebval(x, coef)`` for len(coef) >= 2, bit for bit.

    The same Clenshaw recurrence in the same order, but into three
    preallocated buffers instead of three new arrays per term.
    """
    x2 = 2.0 * x
    c0 = np.full_like(x, coef[-2])
    c1 = np.full_like(x, coef[-1])
    nxt = np.empty_like(x)
    for c in coef[-3::-1]:
        # (c0, c1) <- (c - c1, c0 + c1 x2)
        np.subtract(c, c1, out=nxt)
        np.multiply(c1, x2, out=c1)
        np.add(c0, c1, out=c1)
        c0, nxt = nxt, c0
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c1)


def ser_full_analytic(t: int, P: float, r: Fraction | float = 1) -> float:
    """E[Q(sqrt(2 ||h||^2 P / r))] by Gamma(t,1)-weighted quadrature."""
    if t < 1 or P <= 0.0:
        raise ValueError("need t >= 1 and P > 0")
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must be in (0, 1]")
    return integrate_gamma_weighted(lambda x: q_function(np.sqrt(2.0 * x * P / r)), t)


def _chunk_bounds(samples: int):
    return [(i, min(i + _CHUNK, samples)) for i in range(0, samples, _CHUNK)]


class _BookStats:
    """One codebook's per-draw correlation stats on one chunk's lifted
    directions, shared by every spec that quantizes with it in radial mode.

    ``mrc_ser(P, r)`` is ``bpsk_mrc_ser(t, c_max P / r)``, kept for the
    latest P only, one array per r: bf-flq, bf-vlq and pc-vlq at r = 1 read
    the same array, and since x / 1.0 == x each reads what it would compute
    alone.  Readers must not write into it.
    """

    def __init__(self, book: BeamformingCodebook, lifted: np.ndarray):
        self.t, self.delta = book.t, book.delta
        self.c_max, self.c_min, self.c_first = book.lifted_stats(lifted)
        self._P, self._mrc = None, {}

    @cached_property
    def cheb_x(self) -> np.ndarray:
        """The precoding VLQ's table abscissa 1 - 2 ln c_max / ln(1 - delta),
        clipped to [-1, 1]; P- and r-free, so every pc-vlq spec reads it at
        every P."""
        x = 1.0 - 2.0 * np.log(self.c_max) / math.log(1.0 - self.delta)
        return np.clip(x, -1.0, 1.0)

    @cached_property
    def uncovered(self) -> np.ndarray:
        """Indices of the draws the codebook does not cover, c_max < 1 - delta."""
        return np.flatnonzero(self.c_max < 1.0 - self.delta)

    def mrc_ser(self, P: float, r: float = 1.0) -> np.ndarray:
        if P != self._P:
            self._P, self._mrc = P, {}
        if r not in self._mrc:
            self._mrc[r] = bpsk_mrc_ser(self.t, self.c_max * P / r)
        return self._mrc[r]


def _draws(specs, stream, c_idx, n, conditioning):
    """P-free half of chunk c_idx: its n draws from substream (0, c_idx),
    as the specs evaluate them, and the stats of each distinct codebook on
    them: in radial mode the directions' lift and ``_BookStats``, in plain
    mode the channels and ``correlation_stats``."""
    radial = conditioning == "radial"
    H = (sample_directions if radial else sample_channels)(stream.child(0, c_idx), specs[0].t, n)
    stats = {}
    for spec in specs:
        book = spec.codebook
        if book is not None and id(book) not in stats:
            stats[id(book)] = _BookStats(book, H) if radial else book.correlation_stats(H)
    return H, stats


def _conditional_ser(specs, H, stats, P, conditioning):
    """Per-draw (ser, rate, half-width) of each spec at power P, one spec
    at a time."""
    for spec in specs:
        corr = None if spec.codebook is None else stats[id(spec.codebook)]
        if conditioning == "radial":
            yield spec.conditioned(H, P, corr)
        else:
            snr, bits = spec.snr_bits(H, P, corr)
            yield q_function(np.sqrt(2.0 * snr)), bits, 0.0


def _spec_moments(values):
    """Per-chunk moments of one spec's (ser, rate, half-width) at one P."""
    ser_v, rate_v, hw = values
    if np.ndim(rate_v) == 0:
        # a constant rate: closed-form moments, free of rounding noise
        return _moments(ser_v), (len(ser_v), len(ser_v) * rate_v, 0.0), hw
    return _moments(ser_v), _moments(rate_v), hw


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


# worker count -> the ThreadPoolExecutor that runs sweeps on that many threads
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The executor with ``workers`` threads, created on first use and kept
    for the life of the process.

    A sweep that started and joined its own threads gave every new thread a
    fresh malloc arena, and what those arenas kept made the peak RSS of
    repeated sweeps vary by up to 17%; threads that persist reuse theirs.
    """
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
        return _POOLS[workers]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def ser_rate_sweep(
    specs,
    P_grid,
    samples: int,
    stream: RngStream,
    *,
    workers: int | None = None,
    conditioning: str = "radial",
) -> list:
    """SER and feedback-rate records for every (spec, P) pair.

    Every spec at every grid point sees the same channel draws (common
    random numbers).  Chunks are a fixed partition of the sample index
    range, chunk c drawn from substream (0, c); each chunk is sampled and
    correlated once for the whole grid.  Per-chunk moments are combined
    with compensated summation in index order, so the result is
    bit-identical for any worker count, and a grid point's records equal
    those of a one-point sweep at that P.  Chunks run on ``workers``
    threads, by default one per usable CPU, never more than there are
    chunks.
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
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    sizes = [hi - lo for lo, hi in _chunk_bounds(samples)]
    workers = min(workers or _usable_cpus(), len(sizes))

    def task(c_idx):
        # per-(P, spec) moments of one chunk; map holds no reference to a
        # spec's per-draw values once they are reduced, so they are freed
        # before the next spec is evaluated
        H, stats = _draws(specs, stream, c_idx, sizes[c_idx], conditioning)
        if conditioning == "radial":
            # specs given the stats read only the lift's draw count, so the
            # lift is freed before the grid is swept
            H = np.empty((0, sizes[c_idx]))
        return [
            list(map(_spec_moments, _conditional_ser(specs, H, stats, P, conditioning)))
            for P in P_grid
        ]

    if workers > 1:
        results = list(_pool(workers).map(task, range(len(sizes))))
    else:
        results = [task(c_idx) for c_idx in range(len(sizes))]
    records = []
    for p_idx, P in enumerate(P_grid):
        for j, spec in enumerate(specs):
            ser, ser_se = _mean_stderr([r[p_idx][j][0] for r in results])
            rate, rate_se = _mean_stderr([r[p_idx][j][1] for r in results])
            hw = max(r[p_idx][j][2] for r in results)
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
    gain is 1/(SER * P^diversity) at the largest grid point, computed in
    the log domain.  A top-decade SER of 0 (the draws saw no error there)
    or a gain beyond the float range raises ValueError.
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
    if min(r.ser for r in top) <= 0.0:
        raise ValueError("a top-decade SER is 0: too few draws to see an error there")
    fit = fit_loglog([(r.P, r.ser) for r in top])
    d = -fit.slope
    log_g = -(math.log(recs[-1].ser) + d * math.log(p_max))
    if not log_g < math.log(sys.float_info.max):
        raise ValueError(f"array gain e^{log_g:.6g} exceeds the float range")
    return GainEstimate(diversity=d, array_gain=math.exp(log_g), fit=fit)


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
    specs = (spec_a, spec_b)
    parts = []
    dom = 0
    worst = 0.0
    for c_idx, (lo, hi) in enumerate(_chunk_bounds(samples)):
        H, stats = _draws(specs, stream, c_idx, hi - lo, conditioning)
        (va, _, _), (vb, _, _) = _conditional_ser(specs, H, stats, P, conditioning)
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
        w.writerow(CSV_COLUMNS)
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


def read_records_csv(path) -> list:
    """The records of a sweep CSV; ValueError when it lacks the sweep columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the sweep CSV columns {missing}")
        return [
            SweepRecord(
                quantizer_id=row["quantizer"],
                P=float(row["P_linear"]),
                ser=float(row["ser"]),
                ser_stderr=float(row["ser_stderr"]),
                rate=float(row["rate"]),
                rate_stderr=float(row["rate_stderr"]),
                samples=int(row["samples"]),
                seed=int(row["seed"]),
            )
            for row in reader
        ]
