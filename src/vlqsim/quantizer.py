"""Prefix-code bookkeeping of the variable-length quantizers.

Both variable-length schemes feed back the prefix code {0} U {1 || index}
over the indices of their beamforming codebook; the schemes themselves,
their thresholds and their vectorised decisions live in ``estimate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PrefixCode",
    "VlqBeamformingSpec",
    "VlqPrecodingSpec",
    "kraft_check",
    "index_bits",
    "vlq_prefix_code",
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


def vlq_prefix_code(size: int) -> PrefixCode:
    """The variable-length feedback code {0} U {1 || index} over size indices."""
    w = index_bits(size)
    return PrefixCode(["0"] + ["1" + (format(i, f"0{w}b") if w > 0 else "") for i in range(size)])


def VlqBeamformingSpec(book):
    """``book``: bf-vlq is ``estimate.VariableLengthBeamforming(book)``.
    Kept only because ``perfbench/bench.py`` builds bf-vlq through this
    name; dropping it is a later change to the benchmark."""
    return book


def VlqPrecodingSpec(book):
    """``book``: pc-vlq is ``estimate.VariableLengthPrecoding(book)``.
    Kept only because ``perfbench/bench.py`` builds pc-vlq through this
    name; dropping it is a later change to the benchmark."""
    return book


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
