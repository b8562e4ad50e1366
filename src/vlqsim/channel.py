"""Quasi-static Rayleigh MISO channel model with deterministic seeded streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "sample_channels", "sample_directions"]


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


def sample_directions(stream: RngStream, t: int, n: int) -> np.ndarray:
    """n directions h / ||h|| of h ~ CN(0, I_t), up to a common phase,
    shape (n, t); each row has its first entry real and >= 0.

    Exact in law, with no rejection and no norm, from 2t - 2 uniforms per
    draw: the squared magnitudes of a uniform unit vector in C^t are
    Dirichlet(1, ..., 1), which stick-breaking draws with the Beta(1, k)
    inverse CDF 1 - (1 - u)^(1/k), k = t-1, ..., 1; the other t - 1 entries
    get independent uniform phases relative to the first.  Quantities that
    depend only on |<x, h>|^2 have the same law as on normalised
    ``sample_channels`` draws.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, t), dtype=complex)
    if t == 1:
        out.fill(1.0)
        return out
    # one row of n uniforms at a time: t - 1 for the magnitudes, then
    # t - 1 for the phases; |h_j| is kept in out.real until its phase comes
    gen = stream.generator()
    u, keep = np.empty(n), np.empty(n)
    rest = np.ones(n)  # squared norm not yet assigned
    for j in range(t - 1):
        gen.random(out=u)
        np.subtract(1.0, u, out=keep)
        if t - 1 - j > 1:
            np.power(keep, 1.0 / (t - 1 - j), out=keep)
        # keep = (1 - u)^(1/k) is 1 - Beta(1, k), k = t-1-j;
        # |h_j|^2 = rest (1 - keep), rest <- rest keep
        np.subtract(1.0, keep, out=u)
        u *= rest
        rest *= keep
        np.sqrt(u, out=out.real[:, j])
    np.sqrt(rest, out=out.real[:, t - 1])
    out.imag[:, 0] = 0.0
    for j in range(1, t):
        gen.random(out=u)
        u *= 2.0 * np.pi
        np.sin(u, out=keep)
        np.multiply(keep, out.real[:, j], out=out.imag[:, j])
        np.cos(u, out=keep)
        out.real[:, j] *= keep
    return out
