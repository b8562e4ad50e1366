"""Covering beamforming codebooks.

Codebooks are built by greedy sequential covering (random unit probes are
promoted to codewords whenever no existing codeword is close enough) and
certified statistically, with adversarial local refinement of the worst
probe.  Every cover decision runs on the lifted correlation kernel: the
build's batch filter, the certificate and a sweep's codebook statistics
all reduce through one blocked real-GEMM kernel, ``_reduce``, with one
block rule, ``_corr_width``, and the build tests a probe against the
codewords its own batch added by their lifted product.  The precoding VLQ
quantizes with the same codebook: its precoders {I/sqrt(t)} U {x x^H :
x in B} are fixed by B and never built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channel import RngStream, _complex_normal

__all__ = [
    "BeamformingCodebook",
    "CoveringReport",
    "CoveringError",
    "build_covering_codebook",
    "verify_covering",
    "precoding_codebook",
    "save_codebook",
    "load_codebook",
]

_DUPLICATE_CORR = 1.0 - 1e-9
_PROBE_BATCH = 512  # build probes drawn per generator call
_BUILD_MARGIN = 0.25  # share of delta the build threshold keeps inside the cover
_REFINE_STEPS = 30  # descent steps from the worst verification probe
# input caps: 10^8 probes take about 40 s at t=2 (|B| = 12) and 130 s at t=4
# (|B| = 239) on a 2-vCPU Xeon, and a build verifies with 10 x its streak,
# so the streak cap keeps that verification within the probe cap
_MAX_PROBES = 10**8
_MAX_STOP_STREAK = 10**7
# the most codewords a book may hold; a build needs at least about
# (0.75 delta)^(1-t), every probe at delta = 1e-300, and reaches the cap in
# about 1.7 s at t=2 and 7 s at t=8 on a 2-vCPU Xeon
_MAX_CODEWORDS = 1 << 14
# entries of one (|B|, block) GEMM result in the correlation kernel: small
# enough to stay in cache for its reductions
_CORR_ENTRIES = 1 << 16
# the most multiply-adds m n k of one GEMM of the correlation kernel, the
# largest that OpenBLAS runs on one thread (see ``_corr_width``)
_GEMM_MNK = 10**6


class CoveringError(RuntimeError):
    """A build needed more than _MAX_CODEWORDS codewords, or failed its
    post-build verification because the stop-streak was too small."""


@dataclass
class BeamformingCodebook:
    vectors: np.ndarray  # (n, t) complex, unit rows
    delta: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if len(self.vectors) < 1:
            raise ValueError("codebook must be nonempty")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("codewords must be finite")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("codewords must be unit norm to 1e-12")
        if len(self) > _MAX_CODEWORDS:
            raise ValueError(f"codebook has {len(self)} codewords, more than {_MAX_CODEWORDS}")
        # about _CORR_ENTRIES correlations at a time: the whole |B| x |B|
        # product and its abs take 24 |B|^2 bytes, 6.4 GB at the cap
        step = max(1, _CORR_ENTRIES // len(self))
        for lo in range(0, len(self), step):
            corr = np.abs(self.vectors @ self.vectors[lo : lo + step].conj().T)
            np.fill_diagonal(corr[lo:], 0.0)
            if np.max(corr) >= _DUPLICATE_CORR:
                raise ValueError("duplicate codewords")
        self._lifted = _lifted_codewords(self.vectors)

    @property
    def t(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def lifted_stats(self, lifted: np.ndarray, out=None):
        """Per draw: (max_i, min_i, i = 0) of |<x_i, h>|^2, for draws given
        as their real (t^2, n) lift in ``_lift``'s row layout, as
        ``channel.direction_blocks`` yields them; into ``out``, three
        n-arrays, when given (a sweep passes slices of its chunk's arrays,
        and None for the i = 0 column where it does not read it)."""
        n = lifted.shape[1]
        c_max, c_min, c_first = out or (np.empty(n), np.empty(n), np.empty(n))
        _reduce(self._lifted, n, lambda lo, hi: lifted[:, lo:hi], c_max, c_min, c_first)
        return c_max, c_min, c_first

    def max_correlation_sq(self, h: np.ndarray) -> np.ndarray:
        """max_i |<x_i, h>|^2 for each row of h, which need not be unit norm
        and are lifted one block at a time."""
        h = np.atleast_2d(h)
        c_max = np.empty(len(h))
        _reduce(self._lifted, len(h), lambda lo, hi: _lift(h[lo:hi]), c_max)
        return c_max


def _reduce(weights: np.ndarray, n: int, block, c_max, c_min=None, c_first=None) -> None:
    """Into the n-arrays c_max and, where not None, c_min and c_first: the
    max, min and column 0 over the rows of ``weights``, a (|B|, t^2) matrix
    of ``_lifted_codewords``, of |x^H h|^2 for n draws whose lifted columns
    lo:hi ``block(lo, hi)`` returns (a radial sweep never reads column 0,
    and the certificate and the build read the max alone).

    Uses |x^H h|^2 = <lift(h), lift(x)> with the codeword side's
    off-diagonal terms doubled, so each block of columns is one real GEMM
    of inner dimension t^2 whose (|B|, block) result is reduced in place,
    ``_corr_width(|B|, t)`` columns at a time.

    A block is a strided (t^2, width) view of the lift, read in place.  Its
    row stride changes the time of the product but not its bits;
    ``channel.direction_blocks`` pads its rows so that the t^2 rows do not
    share cache sets (at t = 4, |B| = 239, a 32 768-draw lift: about 17 ms
    padded against 21 ms at a row stride of 2^15 doubles).  Which columns
    share a product can change a column's bits (a one-column product runs
    as a matrix-vector product), so a lift reduced in parts gives the whole
    lift's bits when every part but the last is a multiple of the block
    width.
    """
    size = len(weights)
    width = _corr_width(size, math.isqrt(weights.shape[1]))
    buf = np.empty(size * min(n, width))
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        corr = buf[: size * (hi - lo)].reshape(size, hi - lo)
        np.matmul(weights, block(lo, hi), out=corr)
        # the ufuncs' own reduce: np.max and np.min without their wrappers
        np.maximum.reduce(corr, axis=0, out=c_max[lo:hi])
        if c_min is not None:
            np.minimum.reduce(corr, axis=0, out=c_min[lo:hi])
        if c_first is not None:
            c_first[lo:hi] = corr[0]
    # |.|^2 >= 0; rounding in the lifted sum can leave -1e-17
    for stat in (c_max, c_min, c_first):
        if stat is not None:
            np.maximum(stat, 0.0, out=stat)


def _corr_width(size: int, t: int) -> int:
    """Columns per GEMM of the correlation kernel for a book of ``size``
    codewords in C^t: _CORR_ENTRIES // size, rounded down to a multiple of
    64 and at most 4096, and at most _GEMM_MNK // (size t^2), so that no
    product has more than 10^6 multiply-adds m n k: 4096 at t = 2, |B| = 12,
    256 at t = 4, |B| = 239 (m n k = 978 944), but 250 at t = 4, |B| = 250.

    OpenBLAS (0.3.31, SkylakeX kernels) runs a GEMM of m n k <= 10^6 on
    its small-matrix path, on one thread and without packing, and packs and
    threads a larger one.  On a 2-vCPU Xeon at |B| = 250, t = 4, a product
    of 256 columns (m n k = 1 024 000) took 115 us against 68 us for 250
    columns, and a radial sweep of 2^17 draws on two workers 240 ms
    against 88 ms.  A build without the small-matrix path threads from
    m n k > 2^18.
    """
    width = min(4096, max(64, _CORR_ENTRIES // size // 64 * 64))
    return max(1, min(width, _GEMM_MNK // (size * t * t)))


def _lifted_codewords(vectors: np.ndarray) -> np.ndarray:
    """(|B|, t^2): each codeword's lift with its off-diagonal terms doubled,
    so that its inner product with lift(h) is |<x, h>|^2."""
    lifted = _lift(vectors)
    lifted[vectors.shape[1] :] *= 2.0
    return np.ascontiguousarray(lifted.T)


def _lift(z: np.ndarray) -> np.ndarray:
    """Real (t^2, n) lift of complex rows z (n, t).

    Rows: |z_k|^2, then Re and Im of z_k conj(z_l) for k < l.
    """
    zt = z.T
    k, l = _pairs(z.shape[1])
    cross = zt[k] * zt[l].conj()
    return np.concatenate((zt.real**2 + zt.imag**2, cross.real, cross.imag))


@lru_cache(maxsize=None)
def _pairs(t: int) -> tuple:
    """``np.triu_indices(t, 1)``, which takes most of a one-row lift."""
    return np.triu_indices(t, 1)


@dataclass(frozen=True)
class CoveringReport:
    probes_tested: int
    worst_correlation_sq: float
    worst_probe: np.ndarray
    delta: float

    @property
    def passed(self) -> bool:
        """Whether every probe was covered: worst correlation^2 >= 1 - delta."""
        return self.worst_correlation_sq >= 1.0 - self.delta


def _unit_probes(gen: np.random.Generator, t: int, n: int) -> np.ndarray:
    g = _complex_normal(gen, (n, t))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def build_covering_codebook(
    t: int,
    delta: float,
    stream: RngStream,
    stop_streak: int,
) -> BeamformingCodebook:
    """Greedy sequential covering certified at squared-correlation 1 - delta.

    Probes are drawn uniformly on the unit sphere; a probe whose best
    codeword correlation^2 falls below the build threshold becomes a
    codeword.  The build threshold keeps a small margin inside delta
    (1 - 0.75 delta) so that the residual slivers the statistical
    stop criterion cannot rule out still sit above 1 - delta; without the
    margin, the adversarial post-build certificate essentially always finds
    a point just below the threshold.  The build stops after stop_streak
    consecutive probes required no addition, then must pass a fresh
    verification at delta itself, over 10 x stop_streak probes.  A
    stop_streak outside [1, 10^7] raises ValueError before any probe.  A
    book holds at most 2^14 codewords (``_MAX_CODEWORDS``), and a build
    needs at least about (0.75 delta)^(1-t), so a build at too small a
    delta raises CoveringError as soon as it would add one more.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 1 <= stop_streak <= _MAX_STOP_STREAK:
        raise ValueError("stop_streak must be in [1, 10^7]")
    threshold = 1.0 - (1.0 - _BUILD_MARGIN) * delta
    try:
        vectors, probes = _greedy_cover(t, threshold, stream.child(0).generator(), stop_streak)
    except CoveringError as exc:
        raise CoveringError(f"delta={delta}: {exc}; increase delta") from None
    book = BeamformingCodebook(
        vectors=vectors,
        delta=delta,
        metadata={
            "master_seed": stream.master_seed,
            "stream_index": stream.index,
            "stop_streak": stop_streak,
            "probes_during_build": probes,
        },
    )
    report = verify_covering(book, delta, probes=10 * stop_streak, stream=stream.child(1))
    if not report.passed:
        raise CoveringError(
            f"post-build verification failed (worst corr^2 "
            f"{report.worst_correlation_sq:.6f} < {1 - delta:.6f}); "
            "increase stop_streak"
        )
    book.metadata["verified_probes"] = report.probes_tested
    book.metadata["verified_worst_correlation_sq"] = report.worst_correlation_sq
    return book


def _greedy_cover(t: int, threshold: float, gen: np.random.Generator, stop_streak: int):
    """The greedy build's codewords and probe count.

    Each probe, in order, whose best codeword correlation^2 falls below the
    threshold becomes a codeword; the build stops once stop_streak probes
    in a row did not.  So it draws exactly last + stop_streak probes, where
    last counts the probes up to and including the last codeword, and the
    probe at index i of a batch drawn after ``drawn`` others ends the build
    once drawn + i - last reaches stop_streak.  The book starts as one zero
    row, whose correlation with any probe is 0, and drops it on return.
    Every decision runs on the lifted kernel: each batch of probes is lifted
    once and correlated with the book as it stood before the batch by the
    sweep's kernel ``_reduce``, and a probe below the threshold there is
    then tested against the codewords added earlier in the same batch alone,
    by their lifted product.  A codeword past _MAX_CODEWORDS raises
    CoveringError before it is added.  Book and lift grow in doubling
    buffers, and each codeword is lifted when it is added; a lift reads
    its own row alone, so the bits are those of the whole book's lift.
    """
    mat, lifted = np.zeros((64, t), dtype=complex), np.zeros((64, t * t))
    size = 1
    drawn = last = 0
    batch_best = np.empty(_PROBE_BATCH)
    while drawn - last < stop_streak:
        batch = _unit_probes(gen, t, _PROBE_BATCH)
        probes = _lift(batch)
        _reduce(lifted[:size], _PROBE_BATCH, lambda lo, hi: probes[:, lo:hi], batch_best)
        start = size
        for i in np.flatnonzero(batch_best < threshold).tolist():
            if drawn + i - last >= stop_streak:
                break
            if size > start and np.max(lifted[start:size] @ probes[:, i]) >= threshold:
                continue
            if size > _MAX_CODEWORDS:
                raise CoveringError(f"the cover needs more than {_MAX_CODEWORDS} codewords")
            if size == len(mat):
                mat = np.concatenate((mat, np.empty_like(mat)))
                lifted = np.concatenate((lifted, np.empty_like(lifted)))
            mat[size] = batch[i] / np.linalg.norm(batch[i])
            lifted[size] = _lifted_codewords(mat[size : size + 1])[0]
            size += 1
            last = drawn + i + 1
        drawn += _PROBE_BATCH
    return mat[1:size].copy(), last + stop_streak


def _refine_worst(book: BeamformingCodebook, probe: np.ndarray, steps: int):
    """Local descent pushing a probe away from the codebook on the sphere:
    the point it reaches and that point's max correlation^2."""
    h = probe / np.linalg.norm(probe)
    eta = 0.5
    val = float(book.max_correlation_sq(h)[0])
    for _ in range(steps):
        corr = book.vectors @ h.conj()
        j = int(np.argmax(np.abs(corr)))
        grad = book.vectors[j] * corr[j].conj()
        cand = h - eta * grad
        cand = cand / np.linalg.norm(cand)
        cand_val = float(book.max_correlation_sq(cand)[0])
        if cand_val < val:
            h, val = cand, cand_val
        else:
            eta *= 0.5
            if eta < 1e-12:
                break
    return h, val


def verify_covering(
    book: BeamformingCodebook,
    delta: float,
    probes: int,
    stream: RngStream,
) -> CoveringReport:
    """Statistical covering certificate with adversarial refinement.

    Draws uniform unit probes, finds the worst one, then runs local descent
    maximizing its distance to the codebook before reporting.  A probe
    count outside [1, 10^8] raises ValueError before any probe.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 1 <= probes <= _MAX_PROBES:
        raise ValueError("probes must be in [1, 10^8]")
    gen = stream.child(0).generator()
    worst_val = math.inf
    worst_probe = None
    for lo in range(0, probes, 1 << 15):
        batch = _unit_probes(gen, book.t, min(probes - lo, 1 << 15))
        vals = book.max_correlation_sq(batch)
        i = int(np.argmin(vals))
        if vals[i] < worst_val:
            worst_val = float(vals[i])
            worst_probe = batch[i]
    refined, refined_val = _refine_worst(book, worst_probe, _REFINE_STEPS)
    if refined_val < worst_val:
        worst_val, worst_probe = refined_val, refined
    return CoveringReport(
        probes_tested=probes,
        worst_correlation_sq=worst_val,
        worst_probe=worst_probe,
        delta=delta,
    )


def precoding_codebook(book: BeamformingCodebook) -> BeamformingCodebook:
    """``book``: the precoding VLQ quantizes with its beamforming cover.
    Kept only because ``perfbench/bench.py`` builds pc-vlq through this
    name; dropping it is a later change to the benchmark."""
    return book


def save_codebook(book: BeamformingCodebook, path) -> None:
    doc = {
        "format-version": 1,
        "t": book.t,
        "delta": book.delta,
        "vectors": [[[float(z.real), float(z.imag)] for z in row] for row in book.vectors],
        "metadata": book.metadata,
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_codebook(path) -> BeamformingCodebook:
    """Read a codebook written by save_codebook.

    A file that is not such a codebook raises ValueError; an unreadable
    path raises OSError.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply to read: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format-version") != 1:
        raise ValueError("unsupported codebook format version")
    missing = sorted({"t", "delta", "vectors"} - set(doc))
    if missing:
        raise ValueError(f"codebook file lacks {missing}")
    try:
        vectors = np.array(
            [[complex(re, im) for re, im in row] for row in doc["vectors"]], dtype=complex
        )
        delta = float(doc["delta"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed codebook entries: {exc}") from exc
    if vectors.ndim != 2 or vectors.shape[1] != doc["t"]:
        raise ValueError("vector length inconsistent with t")
    return BeamformingCodebook(vectors=vectors, delta=delta, metadata=doc.get("metadata", {}))
