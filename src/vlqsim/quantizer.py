"""Quantizer specifications and prefix-code bookkeeping.

The two variable-length specs hold a beamforming codebook and the
short-branch threshold of their scheme; the vectorised decisions built on
them live in ``estimate``.  Each variable-length scheme feeds back the
prefix code {0} U {1 || index}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codebook import BeamformingCodebook

__all__ = [
    "PrefixCode",
    "VlqBeamformingSpec",
    "VlqPrecodingSpec",
    "kraft_check",
    "index_bits",
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


def index_bits(cardinality: int) -> int:
    """Fixed index width ceil(log2 |B|)."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    return max(0, (cardinality - 1).bit_length())


def _vlq_prefix_code(size: int) -> PrefixCode:
    """The variable-length feedback code {0} U {1 || index} over size indices."""
    w = index_bits(size)
    return PrefixCode(["0"] + ["1" + (format(i, f"0{w}b") if w > 0 else "") for i in range(size)])


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
        return _vlq_prefix_code(len(self.codebook))


@dataclass(frozen=True)
class VlqPrecodingSpec:
    """Long branch: the index of x in the cover B for the precoder x x^H;
    short branch: I/sqrt(t).  Index width and prefix code are over |B|."""

    codebook: BeamformingCodebook
    r: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 < self.r <= 1:
            raise ValueError("space-time rate must be in (0, 1]")

    @property
    def delta(self) -> float:
        return self.codebook.delta

    @property
    def index_bits(self) -> int:
        return index_bits(len(self.codebook))

    @property
    def threshold(self) -> float:
        """Short-branch threshold on ||h||^2 P: t / delta."""
        return self.codebook.t / self.delta

    def prefix_code(self) -> PrefixCode:
        return _vlq_prefix_code(len(self.codebook))


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
