"""Encoders and transmit mappings.

Full-CSIT baselines, the fixed-length nearest-codeword encoder, the
short/long-branch variable-length encoders for beamforming and precoding,
and prefix-code bookkeeping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codebook import BeamformingCodebook, PrecodingCodebook

__all__ = [
    "PrefixCode",
    "QuantizerDecision",
    "VlqBeamformingSpec",
    "VlqPrecodingSpec",
    "full_csit_bf",
    "full_csit_pc",
    "flq_encode",
    "vlq_encode_bf",
    "vlq_encode_pc",
    "kraft_check",
    "index_bits",
    "export_trace",
]


@dataclass(frozen=True)
class PrefixCode:
    codewords: tuple

    def __init__(self, codewords):
        object.__setattr__(self, "codewords", tuple(codewords))
        for w in self.codewords:
            if not w or set(w) - {"0", "1"}:
                raise ValueError(f"invalid binary codeword {w!r}")

    @property
    def lengths(self):
        return tuple(len(w) for w in self.codewords)


@dataclass(frozen=True)
class QuantizerDecision:
    index: int
    codeword: str
    transmit: np.ndarray  # beamforming vector or precoding matrix
    snr: float
    feedback_bits: int

    def __post_init__(self):
        if self.feedback_bits != len(self.codeword):
            raise ValueError("feedback_bits must equal codeword length")
        if self.snr < 0.0:
            raise ValueError("snr must be >= 0")


def index_bits(cardinality: int) -> int:
    """Fixed index width ceil(log2 |B|)."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    return max(0, (cardinality - 1).bit_length())


def _index_word(index: int, width: int) -> str:
    return format(index, f"0{width}b") if width > 0 else ""


@dataclass(frozen=True)
class VlqBeamformingSpec:
    codebook: BeamformingCodebook

    @property
    def index_bits(self) -> int:
        return index_bits(len(self.codebook))

    def beta(self, P: float) -> float:
        """Short-branch SNR threshold (t+1) ln P; defined for P > 1 only."""
        if not P > 1.0:
            raise ValueError("P must be > 1 so that beta > 0")
        return (self.codebook.t + 1) * math.log(P)

    def prefix_code(self) -> PrefixCode:
        """The induced feedback code {0} U {1 || index}."""
        w = self.index_bits
        return PrefixCode(["0"] + ["1" + _index_word(i, w) for i in range(len(self.codebook))])


@dataclass(frozen=True)
class VlqPrecodingSpec:
    codebook: PrecodingCodebook
    r: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 < self.r <= 1:
            raise ValueError("space-time rate must be in (0, 1]")

    @property
    def delta(self) -> float:
        return self.codebook.delta

    @property
    def index_bits(self) -> int:
        return index_bits(len(self.codebook.beamforming))

    @property
    def threshold(self) -> float:
        """Short-branch threshold on ||h||^2 P: t / delta."""
        return self.codebook.t / self.delta

    def prefix_code(self) -> PrefixCode:
        w = self.index_bits
        return PrefixCode(
            ["0"] + ["1" + _index_word(i, w) for i in range(len(self.codebook.beamforming))]
        )


def full_csit_bf(h: np.ndarray) -> np.ndarray:
    """Optimal beamforming vector h/||h||."""
    h = np.asarray(h, dtype=complex)
    nrm = np.linalg.norm(h)
    if nrm == 0.0:
        raise ValueError("zero channel vector; caller should resample")
    return h / nrm


def full_csit_pc(h: np.ndarray) -> np.ndarray:
    """Optimal precoder h h^dagger / ||h||^2 (rank 1, spectral norm 1)."""
    h = np.asarray(h, dtype=complex)
    n2 = float(np.vdot(h, h).real)
    if n2 == 0.0:
        raise ValueError("zero channel vector; caller should resample")
    return np.outer(h, h.conj()) / n2


def flq_encode(book: BeamformingCodebook, h: np.ndarray, P: float = 1.0) -> QuantizerDecision:
    """Nearest-codeword encoder: argmax |<x, h>|, ties to the lowest index."""
    h = np.asarray(h, dtype=complex)
    corr = np.abs(book.vectors @ h.conj())
    j = int(np.argmax(corr))
    w = index_bits(len(book))
    return QuantizerDecision(
        index=j,
        codeword=_index_word(j, w),
        transmit=book.vectors[j],
        snr=float(corr[j] ** 2 * P),
        feedback_bits=w,
    )


def vlq_encode_bf(spec: VlqBeamformingSpec, h: np.ndarray, P: float) -> QuantizerDecision:
    """Short branch "0" (first codeword) when every codeword already clears
    the SNR threshold beta; otherwise "1" plus the fixed-width index of the
    nearest codeword."""
    beta = spec.beta(P)
    h = np.asarray(h, dtype=complex)
    book = spec.codebook
    snrs = np.abs(book.vectors @ h.conj()) ** 2 * P
    if np.min(snrs) >= beta:
        return QuantizerDecision(
            index=0,
            codeword="0",
            transmit=book.vectors[0],
            snr=float(snrs[0]),
            feedback_bits=1,
        )
    inner = flq_encode(book, h, P)
    word = "1" + inner.codeword
    return QuantizerDecision(
        index=inner.index,
        codeword=word,
        transmit=inner.transmit,
        snr=inner.snr,
        feedback_bits=len(word),
    )


def vlq_encode_pc(spec: VlqPrecodingSpec, h: np.ndarray, P: float) -> QuantizerDecision:
    """Short branch "0" (identity precoder) when ||h||^2 P clears t/delta;
    otherwise "1" plus the index of the nearest beamforming codeword, sent
    as its rank-1 precoder equivalent."""
    if P <= 0.0:
        raise ValueError("P must be > 0")
    h = np.asarray(h, dtype=complex)
    t = spec.codebook.t
    r = float(spec.r)
    n2 = float(np.vdot(h, h).real)
    if n2 * P >= spec.threshold:
        ident = spec.codebook.matrices[spec.codebook.index_of_identity]
        return QuantizerDecision(
            index=spec.codebook.index_of_identity,
            codeword="0",
            transmit=ident,
            snr=n2 * P / (t * r),
            feedback_bits=1,
        )
    inner = flq_encode(spec.codebook.beamforming, h, P)
    word = "1" + inner.codeword
    return QuantizerDecision(
        index=inner.index + 1,
        codeword=word,
        transmit=spec.codebook.matrices[inner.index + 1],
        snr=inner.snr / r,
        feedback_bits=len(word),
    )


def kraft_check(code: PrefixCode):
    """Exhaustive pairwise prefix test plus the Kraft sum."""
    words = code.codewords
    ok = True
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            if a.startswith(b) or b.startswith(a):
                ok = False
    ksum = math.fsum(2.0 ** (-len(w)) for w in words)
    return ok, ksum


def export_trace(decisions, path) -> None:
    """Write feedback decisions as CSV (sample-id, branch, index, codeword,
    bits, snr)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "branch", "index", "codeword", "bits", "snr"])
        for i, d in enumerate(decisions):
            branch = "short" if d.codeword == "0" else "long"
            w.writerow([i, branch, d.index, d.codeword, d.feedback_bits, repr(d.snr)])
