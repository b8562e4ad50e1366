"""Quasi-static Rayleigh MISO channel model with deterministic seeded streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "sample_channels", "sample_directions", "sample_magnitudes"]


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


def _check_sizes(t: int, n: int) -> None:
    if t < 1 or n < 1:
        raise ValueError(f"t and n must be >= 1, got t={t}, n={n}")


def sample_channels(stream: RngStream, t: int, n: int) -> np.ndarray:
    """n i.i.d. channel vectors h ~ CN(0, I_t), shape (n, t)."""
    _check_sizes(t, n)
    return _complex_normal(stream.generator(), (n, t))


def sample_magnitudes(stream: RngStream, t: int, n: int) -> np.ndarray:
    """n squared norms ||h||^2 ~ Gamma(t, 1) of h ~ CN(0, I_t), which are
    independent of the direction h / ||h||: sums of t Exp(1) draws
    -log(1 - u), from one row of n uniforms at a time."""
    _check_sizes(t, n)
    gen = stream.generator()
    norm2, u = np.zeros(n), np.empty(n)
    for _ in range(t):
        gen.random(out=u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        norm2 -= u
    return norm2


def sample_directions(stream: RngStream, t: int, n: int) -> np.ndarray:
    """The real (t^2, n) lift of n directions h / ||h|| of h ~ CN(0, I_t),
    up to a common phase, in the row layout of ``codebook._lift``: |h_k|^2
    in rows 0..t-1, then Re and Im of h_k conj(h_l) for each pair k < l.

    Exact in law, with no rejection and no norm, from 2t - 2 uniforms per
    draw: the squared magnitudes m_k of a uniform unit vector in C^t are
    Dirichlet(1, ..., 1), which stick-breaking draws with the Beta(1, k)
    inverse CDF 1 - (1 - u)^(1/k), k = t-1, ..., 1; the other t - 1 entries
    get independent uniform phases relative to the first, h_l =
    sqrt(m_l) e^(-i phi_l) with h_0 real and >= 0.  Quantities that depend
    only on |<x, h>|^2 have the same law as on normalised ``sample_channels``
    draws.

    The lift is filled in place with two n-buffers of scratch: the m_k go
    into rows 0..t-1, the phasors cos and sin phi_l into the rows of the
    pairs (0, l), the pairs (k >= 1, l) are built from those rows, and the
    amplitudes sqrt(m_k m_l) are applied last.
    """
    _check_sizes(t, n)
    lifted = np.empty((t * t, n))
    if t == 1:
        lifted.fill(1.0)
        return lifted
    gen = stream.generator()
    u, keep = np.empty(n), np.empty(n)
    mag = lifted[:t]
    # one row of n uniforms at a time: t - 1 for the magnitudes, then t - 1
    # for the phases; the squared norm not yet assigned stays in mag[t - 1]
    mag[t - 1].fill(1.0)
    for j in range(t - 1):
        gen.random(out=u)
        np.subtract(1.0, u, out=keep)
        if t - 1 - j > 1:
            np.power(keep, 1.0 / (t - 1 - j), out=keep)
        # keep = (1 - u)^(1/k) is 1 - Beta(1, k), k = t-1-j
        np.subtract(1.0, keep, out=mag[j])
        mag[j] *= mag[t - 1]
        mag[t - 1] *= keep
    k, l = np.triu_indices(t, 1)
    re, im = lifted[t : t + len(k)], lifted[t + len(k) :]
    # the pairs (0, b) come first; their rows take the unit phasors
    for b in range(1, t):
        gen.random(out=u)
        u *= 2.0 * np.pi
        np.cos(u, out=re[b - 1])
        np.sin(u, out=im[b - 1])
    # h_a conj(h_b) / sqrt(m_a m_b) = e^(i (phi_b - phi_a)) for a >= 1
    for p in range(t - 1, len(k)):
        ca, sa = re[k[p] - 1], im[k[p] - 1]
        cb, sb = re[l[p] - 1], im[l[p] - 1]
        np.multiply(ca, cb, out=re[p])
        np.multiply(sa, sb, out=u)
        re[p] += u
        np.multiply(ca, sb, out=im[p])
        np.multiply(sa, cb, out=u)
        im[p] -= u
    for p, (a, b) in enumerate(zip(k, l)):
        np.multiply(mag[a], mag[b], out=u)
        np.sqrt(u, out=u)
        re[p] *= u
        im[p] *= u
    return lifted
