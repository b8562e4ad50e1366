"""Quasi-static Rayleigh MISO channel model with deterministic seeded streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "sample_channel", "sample_channels", "apply_unitary", "random_unitary"]


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream handle.

    The same (master_seed, index, path) always yields the same draw
    sequence; distinct index paths give statistically independent
    substreams.  Substreams come from a counter-based generator (Philox)
    whose SeedSequence spawn key is the full path (index, *path, *extra),
    so no two paths share a stream and results do not depend on how work
    is split across workers.
    """

    master_seed: int
    index: int = 0
    path: tuple = ()

    def generator(self, *extra: int) -> np.random.Generator:
        key = (self.index, *self.path, *extra)
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *extra: int) -> "RngStream":
        """Stream with an extended index path, for per-chunk derivation."""
        return RngStream(self.master_seed, self.index, (*self.path, *extra))


def _complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) draws via the exact polar transform (no rejection).

    Radius^2 is Exp(1) from an inverse-CDF uniform; the phase is uniform, so
    real and imaginary parts each have variance 1/2.
    """
    u1 = gen.random(shape)
    u2 = gen.random(shape)
    return np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def sample_channels(stream: RngStream, t: int, n: int) -> np.ndarray:
    """n i.i.d. channel vectors h ~ CN(0, I_t), shape (n, t)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _complex_normal(stream.generator(), (n, t))


def sample_channel(stream: RngStream, t: int) -> np.ndarray:
    """A single channel vector h ~ CN(0, I_t), shape (t,)."""
    return sample_channels(stream, t, 1)[0]


def apply_unitary(U: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rotate h by a unitary U; rejects non-unitary input."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("U must be square")
    gram = U.conj().T @ U
    if np.max(np.abs(gram - np.eye(U.shape[0]))) > 1e-10:
        raise ValueError("U is not unitary to 1e-10")
    return U @ np.asarray(h)


def random_unitary(stream: RngStream, t: int, n: int | None = None) -> np.ndarray:
    """Haar-distributed t x t unitaries via QR of a complex Gaussian matrix.

    Returns shape (t, t), or (n, t, t) when n is given.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    shape = (t, t) if n is None else (n, t, t)
    G = _complex_normal(stream.generator(), shape)
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    return Q * phase.conj()[..., None, :]
