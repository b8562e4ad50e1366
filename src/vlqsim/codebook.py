"""Covering beamforming codebooks.

Codebooks are built by greedy sequential covering (random unit probes are
promoted to codewords whenever no existing codeword is close enough) and
certified statistically, with adversarial local refinement of the worst
probe.  The precoding VLQ quantizes with the same codebook: its precoders
{I/sqrt(t)} U {x x^H : x in B} are fixed by B and never built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    "fit_c0",
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
# entries of one (|B|, block) GEMM result in the correlation kernel: small
# enough to stay in cache for its three reductions
_CORR_ENTRIES = 1 << 16


class CoveringError(RuntimeError):
    """Post-build verification failed; the stop-streak was too small."""


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
        corr = np.abs(self.vectors @ self.vectors.conj().T)
        np.fill_diagonal(corr, 0.0)
        if corr.size and np.max(corr) >= _DUPLICATE_CORR:
            raise ValueError("duplicate codewords")
        lifted = _lift(self.vectors)
        lifted[self.t :] *= 2.0
        self._lifted = np.ascontiguousarray(lifted.T)  # (|B|, t^2)

    @property
    def t(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.vectors)

    def lifted_stats(self, lifted: np.ndarray):
        """Per draw: (max_i, min_i, i = 0) of |<x_i, h>|^2, for draws given
        as their real (t^2, n) lift in ``_lift``'s row layout, as
        ``channel.sample_directions`` returns them."""
        return self._reduce(lifted.shape[1], lambda lo, hi: lifted[:, lo:hi])

    def _reduce(self, n: int, block):
        """(max, min, first) over the codebook of n draws whose lifted
        columns lo:hi ``block(lo, hi)`` returns.

        Uses |x^H h|^2 = <lift(h), lift(x)> with the codeword side's
        off-diagonal terms doubled, so each block of columns is one real
        GEMM of inner dimension t^2 whose (|B|, block) result is reduced in
        place.  A block is _CORR_ENTRIES // |B| columns, rounded down to a
        multiple of 64 and at most 4096: 4096 at |B| = 12, 256 at |B| = 239,
        where the BLAS then runs each product on one thread.
        """
        width = min(4096, max(64, _CORR_ENTRIES // len(self) // 64 * 64))
        c_max, c_min, c_first = np.empty(n), np.empty(n), np.empty(n)
        buf = np.empty(len(self) * min(n, width))
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            corr = buf[: len(self) * (hi - lo)].reshape(len(self), hi - lo)
            np.matmul(self._lifted, block(lo, hi), out=corr)
            np.max(corr, axis=0, out=c_max[lo:hi])
            np.min(corr, axis=0, out=c_min[lo:hi])
            c_first[lo:hi] = corr[0]
        # |.|^2 >= 0; rounding in the lifted sum can leave -1e-17
        for out in (c_max, c_min, c_first):
            np.maximum(out, 0.0, out=out)
        return c_max, c_min, c_first

    def max_correlation_sq(self, h: np.ndarray) -> np.ndarray:
        """max_i |<x_i, h>|^2 for each row of h, which need not be unit norm
        and are lifted one block at a time."""
        h = np.atleast_2d(h)
        return self._reduce(len(h), lambda lo, hi: _lift(h[lo:hi]))[0]


def _lift(z: np.ndarray) -> np.ndarray:
    """Real (t^2, n) lift of complex rows z (n, t).

    Rows: |z_k|^2, then Re and Im of z_k conj(z_l) for k < l.
    """
    zt = z.T
    k, l = np.triu_indices(z.shape[1], 1)
    cross = zt[k] * zt[l].conj()
    return np.concatenate((zt.real**2 + zt.imag**2, cross.real, cross.imag))


@dataclass(frozen=True)
class CoveringReport:
    probes_tested: int
    worst_correlation_sq: float
    worst_probe: np.ndarray
    passed: bool
    delta: float

    def __post_init__(self):
        if self.passed != (self.worst_correlation_sq >= 1.0 - self.delta):
            raise ValueError("pass flag inconsistent with worst correlation")


def _unit_probes(gen: np.random.Generator, t: int, n: int) -> np.ndarray:
    g = _complex_normal(gen, (n, t))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def build_covering_codebook(
    t: int,
    delta: float,
    stream: RngStream,
    stop_streak: int = 200,
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
    stop_streak outside [1, 10^7] raises ValueError before any probe.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 1 <= stop_streak <= _MAX_STOP_STREAK:
        raise ValueError("stop_streak must be in [1, 10^7]")
    gen = stream.generator(0)
    threshold = 1.0 - (1.0 - _BUILD_MARGIN) * delta
    vectors: list[np.ndarray] = []
    streak = 0
    probes = 0
    while streak < stop_streak:
        batch = _unit_probes(gen, t, _PROBE_BATCH)
        mat = np.asarray(vectors) if vectors else None
        for p in batch:
            probes += 1
            best = 0.0 if mat is None else float(np.max(np.abs(mat @ p.conj()) ** 2))
            if best < threshold:
                p = p / np.linalg.norm(p)
                vectors.append(p)
                mat = np.asarray(vectors)
                streak = 0
            else:
                streak += 1
            if streak >= stop_streak:
                break
    book = BeamformingCodebook(
        vectors=np.asarray(vectors),
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


def _refine_worst(book: BeamformingCodebook, probe: np.ndarray, steps: int) -> np.ndarray:
    """Local descent pushing a probe away from the codebook on the sphere."""
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
    return h


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
    gen = stream.generator(0)
    worst_val = math.inf
    worst_probe = None
    remaining = probes
    while remaining > 0:
        n = min(remaining, 1 << 15)
        remaining -= n
        batch = _unit_probes(gen, book.t, n)
        vals = book.max_correlation_sq(batch)
        i = int(np.argmin(vals))
        if vals[i] < worst_val:
            worst_val = float(vals[i])
            worst_probe = batch[i]
    refined = _refine_worst(book, worst_probe, _REFINE_STEPS)
    refined_val = float(book.max_correlation_sq(refined)[0])
    if refined_val < worst_val:
        worst_val, worst_probe = refined_val, refined
    return CoveringReport(
        probes_tested=probes,
        worst_correlation_sq=worst_val,
        worst_probe=worst_probe,
        passed=worst_val >= 1.0 - delta,
        delta=delta,
    )


def precoding_codebook(book: BeamformingCodebook) -> BeamformingCodebook:
    """``book``: the precoding VLQ quantizes with its beamforming cover.
    Kept only because ``perfbench/bench.py`` builds pc-vlq through this
    name; dropping it is a later change to the benchmark."""
    return book


def fit_c0(family) -> float:
    """Empirical covering constant: max over the family of |B| * delta^{2t}."""
    books = list(family)
    if len(books) < 2:
        raise ValueError("need at least 2 codebooks")
    ts = {b.t for b in books}
    if len(ts) != 1:
        raise ValueError("mixed antenna counts in family")
    t = ts.pop()
    return max(len(b) * b.delta ** (2 * t) for b in books)


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
    doc = json.loads(Path(path).read_text())
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
