"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from vlqsim.codebook import _lift
from vlqsim.estimate import _BookStats


def _snr_bits(spec, H, P):
    """``spec.snr_bits`` on complex channel rows H, as plain mode sees a
    draw: its ||h||^2, the codebook stats of its lifted direction and the
    spec prepared at P."""
    norm2 = np.sum(np.abs(H) ** 2, axis=1)
    stats = None
    if spec.codebook is not None:
        stats = _BookStats(spec.codebook, _lift(H / np.sqrt(norm2)[:, None]))
    return spec.snr_bits(norm2, stats, P, spec.prepare(P))


@pytest.fixture(scope="session")
def snr_bits():
    """(spec, H, P) -> per-row (snr, bits) of spec on channels H at power P."""
    return _snr_bits
