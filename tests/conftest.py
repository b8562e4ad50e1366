"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from vlqsim.channel import direction_blocks
from vlqsim.codebook import _lift
from vlqsim.estimate import _BookStats


def chunk_lift(stream, t, n):
    """The real (t^2, n) lift of the n directions that
    ``channel.direction_blocks`` yields on ``stream``, its blocks side by
    side: the directions a sweep chunk of n draws sees.  A (t^2, n) view of
    a (t^2, n + 8) array, its rows padded like the blocks'."""
    lifted = np.empty((t * t, n + 8))[:, :n]
    for lo, block in direction_blocks(stream, t, n):
        lifted[:, lo : lo + block.shape[1]] = block
    return lifted


def _snr_bits(spec, H, P):
    """``spec.snr_bits`` on complex channel rows H, as plain mode sees a
    draw: its ||h||^2, the codebook stats of its lifted direction and the
    spec prepared at P."""
    norm2 = np.sum(np.abs(H) ** 2, axis=1)
    stats = None
    if spec.codebook is not None:
        lifted = _lift(H / np.sqrt(norm2)[:, None])
        book = spec.codebook
        stats = _BookStats(book.t, book.delta, book.lifted_stats(lifted))
    return spec.snr_bits(norm2, stats, P, spec.prepare(P))


@pytest.fixture(scope="session")
def snr_bits():
    """(spec, H, P) -> per-row (snr, bits) of spec on channels H at power P."""
    return _snr_bits
