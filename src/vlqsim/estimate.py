"""Semi-analytic SER / feedback-rate estimation.

The primary estimator averages the conditional BPSK error rate
Q(sqrt(2 snr(h))) over h ~ CN(0, I_t).  Every snr reads only ||h||^2 and
the codeword correlations of the direction hbar = h / ||h||, and
h = a hbar with a^2 ~ Gamma(t,1) independent of hbar.  So both modes draw
directions, up to a common phase, with ``channel.direction_blocks`` from
2t - 2 uniforms per draw, straight into blocks of the real (t^2, n) lift
that the correlation reads:

* "none": ``channel.sample_magnitudes`` adds each draw's ||h||^2 from t
  more uniforms, and ``snr_bits(norm2, stats, P, prepared)`` gives its
  conditional SER and feedback bits, the bits as a scalar where every
  draw sends the same number; this supports exact pathwise comparisons.
* "radial": ``conditioned(n, stats, P, prepared)`` integrates the
  magnitude out analytically per direction, which removes the dominant
  variance component and keeps relative standard errors bounded as P
  grows (per draw they grow like P^t/sqrt(N), and deep-SNR points are
  unusable).

Common random numbers: every quantizer at every grid point of one sweep
sees the same draws, and the chunk partition is fixed, so outputs do not
depend on the worker count and a grid point's records equal a one-point
sweep at that P.  Records at different P in one sweep are therefore
correlated; each record's mean and stderr are unchanged in distribution.
Chunks of _CHUNK draws run on one thread per usable CPU by default, on
threads that persist across sweeps; a single worker runs on such a thread
too, not on the caller's.
``paired_compare`` runs the same chunk loop and reduces each chunk to the
moments of the per-draw gap between two specs.

Because the draws are shared, so is the codebook correlation.  Each spec
names the beamforming codebook it quantizes with (``spec.codebook``, None
for full CSIT and open loop); per chunk, the correlation runs once per
distinct codebook for the whole P grid, and every spec using it receives
the same ``_BookStats``: per-draw (max, min, column-0) of
|<x_i, hbar>|^2, column 0 only in plain mode, where bf-vlq's short branch
reads it.  The kernel itself is one blocked real GEMM on the lift (see
``BeamformingCodebook.lifted_stats``).  A chunk's lift is drawn in blocks
of at most 1 MiB up to t = 5 and of 4 096 draws beyond (a whole chunk at
t <= 2, 8 192 draws at t = 3 and 4, 4 096 at t >= 5), one buffer per
chunk, and each block's stats are written into the chunk's arrays before
the next block is drawn, so no worker holds a whole chunk's lift.  A sweep
of only feedback-free schemes draws no direction.  In radial mode the
stats also hold the MRC SER ``bpsk_mrc_ser(t, c_max P / r)`` for the
current P, one array per r, so bf-flq, bf-vlq and pc-vlq at r = 1 evaluate
it once per chunk and P instead of once each, with the same bits.  Each
spec's per-draw values are reduced to chunk moments before the next spec
is evaluated.

Schemes: full-CSIT beamforming and precoding and the open-loop precoder
are one ``FeedbackFree`` class that differs only in its SNR divisor;
bf-flq, bf-vlq and pc-vlq each have one class, built straight from the
beamforming codebook, that owns its rule's constants: the index width,
bf-vlq's beta(P) and pc-vlq's threshold t/delta and space-time rate r.
Plain mode evaluates each branch rule per draw in ``snr_bits``; radial
mode integrates the magnitude out in ``conditioned``.

Values that depend on P alone, ``prepare(P)``, are computed once per spec
and P before the first draw, and every chunk reads them as ``prepared``:
the feedback-free SER, bf-flq's rate, bf-vlq's beta and gap bound
Q(sqrt(2 beta)), and the precoding VLQ's table below.

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
``ser_full_analytic`` keeps the double-exponential quadrature
``integrate_gamma_weighted`` as an independent oracle.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1

from .channel import RngStream, direction_blocks, sample_channels, sample_magnitudes
from .codebook import BeamformingCodebook
from .numerics import (
    LogLogFit,
    _chebval,
    bpsk_mrc_ser,
    fit_loglog,
    gamma_tail,
    gamma_weighted_q_tail,
    integrate_gamma_weighted,
    q_function,
)
from .quantizer import index_bits

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
    "MAX_SAMPLES",
    "MAX_WORKERS",
    # re-exported for perfbench/spans.py, which traces it; no sweep calls it
    "sample_channels",
]

_CHUNK = 1 << 15
# input caps: a sweep keeps every chunk's moments until it ends, about
# 3.15 KB per chunk for 3 schemes at 3 P, so 10^10 draws (305 176 chunks)
# hold about 1 GB; each worker is an OS thread
MAX_SAMPLES = 10**10
MAX_WORKERS = 1024

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
        if not (math.isfinite(self.P) and self.P > 0.0):
            raise ValueError(f"P {self.P} must be finite and > 0")
        if not 0.0 <= self.ser <= 0.5 + 1e-12:
            raise ValueError(f"ser {self.ser} outside [0, 1/2]")
        if not all(map(math.isfinite, (self.ser_stderr, self.rate, self.rate_stderr))):
            raise ValueError("ser_stderr, rate and rate_stderr must be finite")
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

    def prepare(self, P: float):
        """The SER at power P, the same for every direction."""
        return bpsk_mrc_ser(self.t, P / self.divisor)

    def snr_bits(self, norm2: np.ndarray, stats, P: float, prepared):
        return norm2 * P / self.divisor, 0.0

    def conditioned(self, n: int, stats, P: float, prepared):
        return np.full(n, prepared), 0.0, 0.0


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

    def prepare(self, P: float):
        """The feedback rate, the same at every P."""
        return float(self.bits)

    def snr_bits(self, norm2: np.ndarray, stats, P: float, prepared):
        return stats.c_max * (norm2 * P), prepared

    def conditioned(self, n: int, stats, P: float, prepared):
        return stats.mrc_ser(P), prepared, 0.0


class VariableLengthBeamforming:
    """Short codeword "0" when every codeword clears beta = (t+1) ln P.

    In radial mode the conditional SER is reported as the fixed-length value
    plus half the rigorous gap bracket: the vlq differs from the flq only on
    the short branch, where both SNRs exceed beta, so the per-direction gap
    lies in [0, Q(sqrt(2 beta)) Pr(short | hbar)].  The half-width
    Q(sqrt(2 beta))/2 <= P^{-(t+1)}/4 is folded into the stderr.  beta and
    the gap depend on P alone: ``prepare(P)`` computes them, and a sweep
    calls it once per P, not once per chunk.
    """

    def __init__(self, book: BeamformingCodebook):
        self.codebook = book
        self.t = book.t
        self.bits = index_bits(len(book))
        self.quantizer_id = "bf-vlq"

    def beta(self, P: float) -> float:
        """Short-branch SNR threshold (t+1) ln P; defined for P > 1 only."""
        if not P > 1.0:
            raise ValueError("P must be > 1 so that beta > 0")
        return (self.t + 1) * math.log(P)

    def snr_bits(self, norm2: np.ndarray, stats, P: float, prepared):
        gain = norm2 * P
        short = stats.c_min * gain >= prepared[0]
        snr = np.where(short, stats.c_first, stats.c_max) * gain
        bits = np.where(short, 1.0, 1.0 + self.bits)
        return snr, bits

    def prepare(self, P: float):
        """(beta, half the gap bound Q(sqrt(2 beta)) / 2) for power P."""
        beta = self.beta(P)
        return beta, 0.5 * q_function(math.sqrt(2.0 * beta))

    def conditioned(self, n: int, stats, P: float, prepared):
        beta, half_gap = prepared
        # Pr(short | hbar) = Gammabar(t, beta / (c_min P)), its argument
        # formed in one buffer
        arg = np.maximum(stats.c_min, 1e-300)
        arg *= P
        p_short = gamma_tail(self.t, np.divide(beta, arg, out=arg))
        ser = np.multiply(half_gap, p_short)
        ser += stats.mrc_ser(P)
        rate = np.subtract(1.0, p_short, out=arg)
        rate *= self.bits
        rate += 1.0
        return ser, rate, half_gap


class VariableLengthPrecoding:
    """Identity precoder when ||h||^2 P >= t/delta, else x x^H for the best
    codeword x of ``codebook``, the beamforming cover that bf-flq and bf-vlq
    on the same book hold too, so each chunk is correlated with it once.

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
    Chebyshev interpolant of log I; a sweep calls it once per grid point,
    not once per chunk, and hands the table to every chunk.  The series is
    then cut to what the SER can see: trailing coefficients are dropped
    while their absolute sum, which bounds the change in log I, stays below
    eps times the smallest SER / I over the nodes.  At t=2, delta=0.2 it
    keeps 8 of 24; at delta=0.9, where I ~ F, it keeps all.  Draws the
    codebook does not cover (c_max < 1 - delta) get the kernel directly,
    because a polynomial must not extrapolate.
    """

    def __init__(self, book: BeamformingCodebook, r: Fraction = Fraction(1)):
        if not 0 < r <= 1:
            raise ValueError("space-time rate must be in (0, 1]")
        self.codebook = book
        self.t = book.t
        self.r = float(r)
        self.bits = index_bits(len(book))
        self.threshold = book.t / book.delta  # on ||h||^2 P
        self.quantizer_id = "pc-vlq"

    def snr_bits(self, norm2: np.ndarray, stats, P: float, prepared):
        gain = norm2 * P
        short = gain >= self.threshold
        snr = np.where(short, gain / (self.t * self.r), stats.c_max * gain / self.r)
        bits = np.where(short, 1.0, 1.0 + self.bits)
        return snr, bits

    def prepare(self, P: float):
        """(Chebyshev coefficients of log I in x, short-branch I, feedback
        rate) for power P."""
        t, r = self.t, self.r
        x0 = self.threshold / P
        lo, hi = math.log((1.0 - self.codebook.delta) * P / r), math.log(P / r)
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
        rate = 1.0 + self.bits * (1.0 - gamma_tail(t, x0))
        return coef[:keep], tail_short, rate

    def conditioned(self, n: int, stats, P: float, prepared):
        coef, tail_short, rate = prepared
        tail = _chebval(stats.cheb_x, coef)
        np.exp(tail, out=tail)
        if stats.uncovered.size:
            s = stats.c_max[stats.uncovered] * P / self.r
            tail[stats.uncovered] = gamma_weighted_q_tail(self.t, s, self.threshold / P)
        ser = np.subtract(stats.mrc_ser(P, self.r), tail, out=tail)
        np.maximum(ser, 0.0, out=ser)
        ser += tail_short
        return ser, rate, 0.0


def ser_full_analytic(t: int, P: float, r: Fraction | float = 1) -> float:
    """E[Q(sqrt(2 ||h||^2 P / r))] by Gamma(t,1)-weighted quadrature."""
    if t < 1 or P <= 0.0:
        raise ValueError("need t >= 1 and P > 0")
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must be in (0, 1]")
    return integrate_gamma_weighted(lambda x: q_function(np.sqrt(2.0 * x * P / r)), t)


class _BookStats:
    """One codebook's per-draw correlation stats (max, min and column 0 of
    |<x_i, hbar>|^2) on one chunk's lifted directions, shared by every spec
    that quantizes with it, in either mode; column 0 is None in a radial
    sweep, which does not read it.

    ``mrc_ser(P, r)`` is ``bpsk_mrc_ser(t, c_max P / r)``, kept for the
    latest P only, one array per r: bf-flq, bf-vlq and pc-vlq at r = 1 read
    the same array, and since x / 1.0 == x each reads what it would compute
    alone.  Readers must not write into it.

    ``cheb_x`` and ``uncovered`` are computed on first read.  A stats object
    belongs to one chunk on one thread, so they are plain attributes: a
    ``functools.cached_property`` holds, up to Python 3.11, one lock per
    class while it computes, and the workers would take turns.
    """

    def __init__(self, book: BeamformingCodebook, stats):
        """The (c_max, c_min, c_first) arrays ``stats`` that
        ``book.lifted_stats`` has filled."""
        self.t, self.delta = book.t, book.delta
        self.c_max, self.c_min, self.c_first = stats
        self._P, self._mrc = None, {}
        self._cheb_x = self._uncovered = None

    @property
    def cheb_x(self) -> np.ndarray:
        """The precoding VLQ's table abscissa 1 - 2 ln c_max / ln(1 - delta),
        clipped to [-1, 1]; P- and r-free, so every pc-vlq spec reads it at
        every P."""
        if self._cheb_x is None:
            x = 1.0 - 2.0 * np.log(self.c_max) / math.log(1.0 - self.delta)
            self._cheb_x = np.clip(x, -1.0, 1.0)
        return self._cheb_x

    @property
    def uncovered(self) -> np.ndarray:
        """Indices of the draws the codebook does not cover, c_max < 1 - delta."""
        if self._uncovered is None:
            self._uncovered = np.flatnonzero(self.c_max < 1.0 - self.delta)
        return self._uncovered

    def mrc_ser(self, P: float, r: float = 1.0) -> np.ndarray:
        if P != self._P:
            self._P, self._mrc = P, {}
        if r not in self._mrc:
            snr = self.c_max * P
            if r != 1.0:
                snr /= r
            self._mrc[r] = bpsk_mrc_ser(self.t, snr)
        return self._mrc[r]


def _draws(specs, stream, c_idx, n, conditioning):
    """P-free half of chunk c_idx: (norm2, stats).  stats maps each distinct
    codebook's id to its ``_BookStats`` on n directions from substream
    (0, c_idx), correlated one block of ``direction_blocks`` at a time into
    the chunk's stats arrays; no direction is drawn when no spec has a
    codebook, and column 0 (``c_first``) only in plain mode.  norm2 holds
    each draw's ||h||^2 from substream (1, c_idx) in plain mode; it is None
    in radial mode, which never reads (1, c_idx)."""
    t = specs[0].t
    radial = conditioning == "radial"
    books = {id(s.codebook): s.codebook for s in specs if s.codebook is not None}
    arrays = {key: (np.empty(n), np.empty(n), None if radial else np.empty(n)) for key in books}
    if books:
        for lo, lifted in direction_blocks(stream.child(0, c_idx), t, n):
            hi = lo + lifted.shape[1]
            for key, book in books.items():
                book.lifted_stats(lifted, [a if a is None else a[lo:hi] for a in arrays[key]])
    stats = {key: _BookStats(book, arrays[key]) for key, book in books.items()}
    norm2 = None if radial else sample_magnitudes(stream.child(1, c_idx), t, n)
    return norm2, stats


def _conditional_ser(specs, n, norm2, stats, P, prepared):
    """Per-draw (ser, rate, half-width) of each spec at power P, given its
    ``prepare(P)``: per direction in radial mode (norm2 None), else per draw."""
    for spec, values in zip(specs, prepared):
        book_stats = None if spec.codebook is None else stats[id(spec.codebook)]
        if norm2 is None:
            yield spec.conditioned(n, book_stats, P, values)
        else:
            snr, bits = spec.snr_bits(norm2, book_stats, P, values)
            yield q_function(np.sqrt(2.0 * snr)), bits, 0.0


def _spec_moments(values):
    """Per-chunk moments of one spec's (ser, rate, half-width) at one P."""
    ser_v, rate_v, hw = values
    if not isinstance(rate_v, np.ndarray):
        # a constant rate: closed-form moments, free of rounding noise
        return _moments(ser_v), (len(ser_v), len(ser_v) * rate_v, 0.0), hw
    return _moments(ser_v), _moments(rate_v), hw


def _moments(v: np.ndarray):
    """(count, sum, sum of squared deviations from the mean) of one chunk:
    ``np.sum(v)`` and ``np.sum((v - mean) ** 2)``, bit for bit, with the
    ufunc's own reduce and the square in place."""
    total = float(np.add.reduce(v, axis=None))
    dev = np.subtract(v, total / len(v))
    np.square(dev, out=dev)
    return len(v), total, float(np.add.reduce(dev, axis=None))


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


def _chunk_loop(specs, P_grid, samples, stream, workers, conditioning, reduce):
    """The chunk loop of ``ser_rate_sweep`` and ``paired_compare``: checks
    the arguments and returns (the grid as floats, results), where
    results[c][p] is ``reduce`` of the specs' per-draw values at the p-th
    grid point on chunk c, which ``reduce`` must not keep.  Each spec is
    prepared once per grid point before any draw, and each chunk is drawn
    and correlated once for the whole grid, on ``workers`` threads, by
    default one per usable CPU, never more than there are chunks.
    """
    P_grid = [float(P) for P in P_grid]
    if not P_grid or not all(0.0 < P < math.inf for P in P_grid):
        raise ValueError("P grid must be nonempty, finite and positive")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError("samples must be in [1, 10^10]")
    if conditioning not in ("none", "radial"):
        raise ValueError("conditioning must be 'none' or 'radial'")
    if len({s.t for s in specs}) != 1:
        raise ValueError("all specs must share the antenna count")
    if workers is not None and not 1 <= workers <= MAX_WORKERS:
        raise ValueError("workers must be in [1, 1024]")
    sizes = [min(_CHUNK, samples - lo) for lo in range(0, samples, _CHUNK)]
    workers = min(workers or _usable_cpus(), len(sizes))
    pool = _pool(workers)
    # prepared on the pool too: on the calling thread, pc-vlq's fit raised a
    # radial-t2 benchmark run's peak RSS by about 0.5 MB (2-vCPU VM)
    points = list(pool.map(lambda P: (P, [spec.prepare(P) for spec in specs]), P_grid))

    def task(c_idx):
        n = sizes[c_idx]
        norm2, stats = _draws(specs, stream, c_idx, n, conditioning)
        return [reduce(_conditional_ser(specs, n, norm2, stats, *point)) for point in points]

    # one worker runs on the pool too: on the main thread, glibc trims the
    # main heap's top after every chunk, which costs a page fault per page
    # when the next chunk grows it again
    return P_grid, list(pool.map(task, range(len(sizes))))


def ser_rate_sweep(
    specs,
    P_grid,
    samples: int,
    stream: RngStream,
    *,
    workers: int | None = None,
    conditioning: str = "radial",
) -> list:
    """SER and feedback-rate records for every (spec, P) pair, on the same
    draws (common random numbers), on ``workers`` threads, by default one
    per usable CPU.

    Each spec's per-draw values are reduced to chunk moments before the
    next spec is evaluated, and the moments are combined with compensated
    summation in chunk order, so the result is bit-identical for any worker
    count, and a grid point's records equal a one-point sweep at that P.
    An empty P grid or one with an entry that is not finite and positive,
    ``samples`` outside [1, 10^10] or ``workers`` outside [1, 1024] raises
    ValueError before any spec is prepared or any draw is made.
    """
    specs = list(specs)
    P_grid, results = _chunk_loop(
        specs, P_grid, samples, stream, workers, conditioning,
        lambda values: list(map(_spec_moments, values)),
    )
    records = []
    for P, point in zip(P_grid, zip(*results)):
        for spec, parts in zip(specs, zip(*point)):
            ser_parts, rate_parts, hw = zip(*parts)
            ser, ser_se = _mean_stderr(ser_parts)
            rate, rate_se = _mean_stderr(rate_parts)
            records.append(SweepRecord(
                quantizer_id=spec.quantizer_id, P=P, ser=min(ser, 0.5),
                ser_stderr=ser_se + max(hw), rate=rate, rate_stderr=rate_se,
                samples=samples, seed=stream.master_seed,
            ))
    return records


def estimate_gains(records, top_decades: int = 2) -> GainEstimate:
    """Diversity and array gain from the top decades of a sweep.

    Fits ln SER against ln P; diversity is minus the slope and the array
    gain is 1/(SER * P^diversity) at the largest grid point, computed in
    the log domain.  A top-decade SER of 0 (the draws saw no error there),
    a gain beyond the float range or ``top_decades`` below 1 raises
    ValueError.
    """
    if top_decades < 1:
        raise ValueError(f"top decades must be >= 1, got {top_decades}")
    recs = sorted(records, key=lambda r: r.P)
    if len(recs) < 3:
        raise ValueError("need at least 3 records")
    p_max = recs[-1].P
    span = math.log10(p_max / recs[0].P)
    if span < top_decades:
        raise ValueError(f"grid spans {span:.2f} decades < requested {top_decades}")
    cut = p_max * 10.0**-top_decades
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
    P_grid,
    samples: int,
    stream: RngStream,
    *,
    conditioning: str = "none",
) -> list:
    """Pathwise comparison of conditional SERs on identical draws.

    Returns one (mean-gap, gap-stderr, fraction-A-dominates, max-violation)
    per grid point, where the gap is SER_A - SER_B per draw and
    max-violation is the most negative gap observed (0.0 when A dominates
    everywhere).  Runs on ``ser_rate_sweep``'s chunk loop, with its checks
    and default threads, so a grid point's result equals a one-point call
    and does not depend on the worker count; like the sweep, it rejects
    an empty P grid, a P that is not finite and positive and ``samples``
    outside [1, 10^10] before any spec is prepared or any draw is made.
    """
    _, results = _chunk_loop(
        (spec_a, spec_b), P_grid, samples, stream, None, conditioning, _gap_stats
    )
    out = []
    for point in zip(*results):
        moments, dominated, smallest = zip(*point)
        out.append((*_mean_stderr(moments), sum(dominated) / samples, min(0.0, *smallest)))
    return out


def _gap_stats(values):
    """(moments, draws with gap >= 0, smallest gap) of one chunk's gap
    SER_A - SER_B at one P."""
    (ser_a, _, _), (ser_b, _, _) = values
    gap = ser_a - ser_b
    return _moments(gap), int(np.count_nonzero(gap >= 0.0)), float(np.min(gap))


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
