"""Quasi-static Rayleigh MISO channel model with deterministic seeded streams."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["RngStream", "direction_blocks", "sample_channels", "sample_magnitudes"]


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream handle.

    The same (master_seed, index, path) always yields the same draw
    sequence; distinct index paths give statistically independent
    substreams.  Every substream is seeded by ``seed_sequence``, a
    SeedSequence whose spawn key is the full path (index, *path), which
    only ``child`` extends, so no two paths share a stream and results do
    not depend on how work is split across workers.

    Two bit generators read it.  A sweep's direction and magnitude draws
    (``direction_blocks``, ``sample_magnitudes``) come from PCG64, which
    makes a double about twice as fast as Philox.  ``generator`` stays
    Philox, for the codebook build and its certificate, ``stbc`` and
    ``sample_channels``, so that books built at a seed keep their
    codewords.
    """

    master_seed: int
    index: int = 0
    path: tuple = ()

    def seed_sequence(self) -> np.random.SeedSequence:
        """The SeedSequence of the path (index, *path)."""
        key = (self.index, *self.path)
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)

    def generator(self) -> np.random.Generator:
        """A Philox generator on ``seed_sequence()``."""
        return np.random.Generator(np.random.Philox(self.seed_sequence()))

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


def _sweep_generator(stream: RngStream) -> np.random.Generator:
    """The PCG64 generator of a sweep's draws on ``stream``."""
    return np.random.Generator(np.random.PCG64(stream.seed_sequence()))


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
    -log(1 - u), from one row of n uniforms of the PCG64 generator of
    ``stream`` at a time."""
    _check_sizes(t, n)
    gen = _sweep_generator(stream)
    norm2, u = np.zeros(n), np.empty(n)
    for _ in range(t):
        gen.random(out=u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        norm2 -= u
    return norm2


# doubles of padding after each row of a lift, so that its row stride is
# not a multiple of a large power of two
_LIFT_PAD = 8
# bytes of one block of a lift that ``direction_blocks`` yields: a sweep
# worker holds one block at a time, not its whole chunk's lift; but a block
# has at least _MIN_BLOCK draws, below which the fill's numpy calls cover
# too few columns to pay for themselves (a t = 8 sweep of 2^16 draws on two
# workers: 82-88 ms in 2 048-draw blocks, 59-63 ms in blocks of 4 096)
_LIFT_BYTES = 1 << 20
_MIN_BLOCK = 1 << 12


# nodes of the phasor table: 2 pi u is rotated to the nearest multiple of
# 2 pi / _NODES, and the rest, |a| <= pi / _NODES, goes into short series
_NODES = 1024
# pi = 3.140625 + _PI_REST to about 1e-19 (math.pi falls short of pi by
# 1.2246e-16), so 2 pi / _NODES = _STEP_HI + _STEP_LO; _STEP_HI has 8
# significant bits, so r * _STEP_HI is exact for every offset r = _NODES u - j
# of a uniform on the 2^-53 grid, which has at most 43
_PI_REST = (math.pi - 3.140625) + 1.2246467991473532e-16
_STEP_HI, _STEP_LO = 2.0 * 3.140625 / _NODES, 2.0 * _PI_REST / _NODES
# adding and subtracting 1.5 * 2^52 rounds a double in [0, 2^51] to the
# nearest integer, ties to even, as np.rint does; np.rint's loop alone would
# map 36 KB more of numpy's code into a sweep's resident set
_ROUND = 1.5 * 2.0**52
_FIXED_ONE = 10**50
_FIXED_PI = 314159265358979323846264338327950288419716939937510  # pi * 10^50


def _fixed_cos_sin(k: int) -> tuple:
    """cos and sin of x = 2 pi k / _NODES <= pi/4, times 10^50, from 40
    terms of the series of exp(ix) in integer arithmetic (error ~1e-48)."""
    x = 2 * _FIXED_PI * k // _NODES
    term, acc = _FIXED_ONE, [0, 0, 0, 0]
    for i in range(40):
        acc[i % 4] += term  # i^i x^i / i!: by i mod 4, +cos, +sin, -cos, -sin
        term = term * x // (_FIXED_ONE * (i + 1))
    return acc[0] - acc[2], acc[1] - acc[3]


@lru_cache(maxsize=None)
def _phasor_table() -> tuple:
    """cos and sin of 2 pi j / _NODES, j = 0.._NODES, each correctly rounded.

    The first octant is summed in fixed point on Python integers and
    rounded once to float64 by integer division, which rounds correctly;
    the rest follows by exact symmetries (a swap about pi/4, then quarter
    turns).  So the table is the same on every platform, and it holds
    exact zeros and ones at the multiples of pi/2.
    """
    octant = [_fixed_cos_sin(k) for k in range(_NODES // 8 + 1)]
    cos8, sin8 = (np.array([x / _FIXED_ONE for x in col]) for col in zip(*octant))
    cq, sq = np.concatenate((cos8, sin8[-2::-1])), np.concatenate((sin8, cos8[-2::-1]))
    # a quarter turn maps (c, s) to (-s, c); 0.0 - x keeps the zeros positive
    cos = np.concatenate((cq, 0.0 - sq[1:], 0.0 - cq[1:], sq[1:]))
    sin = np.concatenate((sq, cq[1:], 0.0 - sq[1:], 0.0 - cq[1:]))
    cos.flags.writeable = sin.flags.writeable = False  # shared by every call
    return cos, sin


def _phasor(u: np.ndarray, cos: np.ndarray, sin: np.ndarray, y, z, w) -> None:
    """cos and sin of 2 pi u, u in [0, 1), into ``cos`` and ``sin``, with
    three scratch arrays y, z and w of u's shape; u is overwritten.  The
    arrays may be strided 2-D views of rows (one pass for several rows of
    phases), but z's rows must be contiguous.

    With j = rint(_NODES u) and a = 2 pi (_NODES u - j) / _NODES, the
    phasor is the table's entry T_j rotated by a: T_j + T_j (cos a - 1) +
    i T_j sin a, with cos a - 1 and sin a to the a^4 and a^5 terms (the
    next, a^6 / 720, is about 1e-18).  Within 2 ulp of cos and sin of 2 pi u.
    """
    cos_t, sin_t = _phasor_table()
    u *= _NODES  # exact
    np.add(u, _ROUND, out=y)
    y -= _ROUND  # j
    u -= y  # exact, |r| <= 1/2
    j = z.view(np.int64)
    np.copyto(j, y, casting="unsafe")
    np.multiply(u, _STEP_LO, out=y)
    u *= _STEP_HI
    u += y  # a
    # j is in [0, _NODES]; mode="clip" spares np.take a buffered copy, and
    # a row at a time spares it the copy of a strided index or out array
    for jr, c, s in zip(np.atleast_2d(j), np.atleast_2d(cos), np.atleast_2d(sin)):
        np.take(cos_t, jr, out=c, mode="clip")
        np.take(sin_t, jr, out=s, mode="clip")
    np.multiply(u, u, out=y)  # a^2
    np.multiply(y, 1.0 / 120.0, out=z)
    z -= 1.0 / 6.0
    z *= y
    z *= u
    z += u  # sin a
    np.multiply(y, 1.0 / 24.0, out=u)
    u -= 0.5
    u *= y  # cos a - 1
    np.multiply(sin, z, out=y)
    z *= cos
    np.multiply(cos, u, out=w)
    w -= y  # T_c (cos a - 1) - T_s sin a
    u *= sin
    u += z  # T_s (cos a - 1) + T_c sin a
    cos += w
    sin += u


def _block_width(t: int) -> int:
    """The most columns of one block of ``direction_blocks``: the largest
    power of two whose (t^2, width) lift fits in _LIFT_BYTES, and at least
    _MIN_BLOCK."""
    return max(_MIN_BLOCK, 1 << ((_LIFT_BYTES // (8 * t * t)).bit_length() - 1))


def direction_blocks(stream: RngStream, t: int, n: int):
    """Yield (lo, lifted): the real (t^2, hi - lo) lifts of draws lo..hi of
    n directions h / ||h|| of h ~ CN(0, I_t), up to a common phase, in the
    row layout of ``codebook._lift``: |h_k|^2 in rows 0..t-1, then Re and
    Im of h_k conj(h_l) for each pair k < l.

    Exact in law, with no rejection and no norm, from 2t - 2 uniforms per
    draw: the squared magnitudes m_k of a uniform unit vector in C^t are
    Dirichlet(1, ..., 1), which stick-breaking draws with the Beta(1, k)
    inverse CDF 1 - (1 - u)^(1/k), k = t-1, ..., 1; the other t - 1 entries
    get independent uniform phases relative to the first, h_l =
    sqrt(m_l) e^(-i phi_l) with h_0 real and >= 0.  Quantities that depend
    only on |<x, h>|^2 have the same law as on normalised ``sample_channels``
    draws.

    Blocks are ``_block_width(t)`` columns wide (the last one, or a whole
    n below that, narrower), so that a lift holds at most _LIFT_BYTES
    (1 MiB) up to t = 5, and 4 096 draws beyond: a whole 32 768-draw sweep
    chunk at t <= 2, 8 192 draws at t = 3 and 4, 4 096 at t >= 5.  Every
    block is written into one (t^2, width + _LIFT_PAD) buffer, so a block
    is valid only until the next one is drawn.  All blocks come from the
    one PCG64 generator of ``stream``, each as t - 1 rows of uniforms for its
    phases and then t - 1 for its magnitudes, each row as wide as the
    block (``_fill_directions`` draws each set of rows in one call); so a
    block as wide as n draws the uniforms in the order of one whole lift.

    The buffer's rows are padded by _LIFT_PAD doubles.  With an unpadded
    row stride of 2^14 or 2^15 doubles, the t^2 rows a GEMM block of
    ``BeamformingCodebook.lifted_stats`` reads map to the same cache sets;
    the pad breaks that alignment, and the GEMM's result does not depend
    on the row stride.
    """
    _check_sizes(t, n)
    width = min(n, _block_width(t))
    lifted = np.empty((t * t, width + _LIFT_PAD))
    gen = _sweep_generator(stream)
    for lo in range(0, n, width):
        block = lifted[:, : min(width, n - lo)]
        _fill_directions(gen, t, block)
        yield lo, block


def _fill_directions(gen: np.random.Generator, t: int, lifted: np.ndarray) -> None:
    """Fill the (t^2, w) lift of w directions from 2t - 2 rows of w
    uniforms of ``gen``, in place (at t = 1, with ones and no uniforms).

    Most numpy calls cover several rows: one ``Generator.random`` draws the
    t - 1 rows of phase uniforms and one ``_phasor`` pass turns them into
    the phasors cos and sin phi_b in the rows of the pairs (0, b); one more
    draws the t - 1 rows of magnitude uniforms, whose stick-breaking takes
    one call per row for its powers and running products
    (``np.multiply.accumulate`` over rows loops per column: about 170 us on
    3 rows of 8 192); then, for each a, the pairs (a, b > a) are built from
    the phasor rows and scaled by their amplitudes sqrt(m_a m_b), a few
    calls on their block of rows.  Every value is what one row at a time
    computes, by the same operations on the same uniforms in the same
    order, bit for bit.

    Scratch is one contiguous (t - 1, w) array, which holds the phase
    uniforms, then the magnitude uniforms (``Generator.random`` fills only
    contiguous arrays), then products of a pair's rows; ``_phasor``'s other
    scratch is lift rows not yet filled, and at t <= 3, where there are too
    few, one more (t - 1, w) array.  At t = 2 that is two w-buffers, as
    one row at a time needs.
    """
    pairs = t * (t - 1) // 2
    mag, re, im = lifted[:t], lifted[t : t + pairs], lifted[t + pairs :]
    if t == 1:
        mag.fill(1.0)
        return
    u = np.empty((t - 1, lifted.shape[1]))
    # the phasor's scratch besides the first t - 1 magnitude rows: from
    # t = 4 on, rows of the pairs (a >= 1, b); below, a second array and
    # the last magnitude row with, at t = 3, the pair (1, 2), t rows apart
    if t > 3:
        z, spare = re[t - 1 : 2 * t - 2], im[t - 1 : 2 * t - 2]
    else:
        z, spare = np.empty_like(u), lifted[t - 1 :: t][: t - 1]
    gen.random(out=u)
    # the pairs (0, b) take the unit phasors, b = 1..t-1 in row b - 1
    cos, sin = re[: t - 1], im[: t - 1]
    _phasor(u, cos, sin, mag[: t - 1], z, spare)
    gen.random(out=u)
    np.subtract(1.0, u, out=u)
    for j in range(t - 2):  # the power 1/k is skipped at k = 1
        np.power(u[j], 1.0 / (t - 1 - j), out=u[j])
    # u[j] = (1 - u)^(1/k) is 1 - Beta(1, k), k = t-1-j; m_j is 1 - u[j]
    # times the squared norm not yet assigned, the product of u[:j]
    np.subtract(1.0, u, out=mag[: t - 1])
    for j in range(1, t - 1):
        u[j] *= u[j - 1]
    mag[1 : t - 1] *= u[: t - 2]
    mag[t - 1] = u[t - 2]
    # the pairs (a, b) from the last a to a = 0, whose rows the others read:
    # h_a conj(h_b) / sqrt(m_a m_b) = e^(i (phi_b - phi_a)) for a >= 1
    both = lifted[t:].reshape(2, pairs, -1)  # re over im, a view
    for a in range(t - 2, -1, -1):
        lo, k = a * (2 * t - a - 1) // 2, t - 1 - a
        pre, pim, amp = re[lo : lo + k], im[lo : lo + k], u[:k]
        if a:
            np.multiply(cos[a - 1], cos[a:], out=pre)
            np.multiply(sin[a - 1], sin[a:], out=amp)
            pre += amp
            np.multiply(cos[a - 1], sin[a:], out=pim)
            np.multiply(sin[a - 1], cos[a:], out=amp)
            pim -= amp
        np.multiply(mag[a], mag[a + 1 :], out=amp)
        np.sqrt(amp, out=amp)
        both[:, lo : lo + k] *= amp

