"""Channel sampling: determinism, distribution checks, unitary invariance."""

import math

import mpmath
import numpy as np
import pytest

from vlqsim import channel
from vlqsim.channel import RngStream, sample_channels, sample_directions, sample_magnitudes
from vlqsim.codebook import _lift
from vlqsim.numerics import gamma_tail


def ks_statistic(x: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against the given CDF."""
    x = np.sort(x)
    n = len(x)
    f = cdf(x)
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return max(d_plus, d_minus)


def ks_statistic_exponential(x: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance against Exp(1)."""
    return ks_statistic(x, lambda x: 1.0 - np.exp(-x))


class TestDeterminism:
    def test_same_stream_same_draws(self):
        a = sample_channels(RngStream(123, 4), 3, 100)
        b = sample_channels(RngStream(123, 4), 3, 100)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = sample_channels(RngStream(123, 4), 3, 100)
        b = sample_channels(RngStream(123, 5), 3, 100)
        assert not np.allclose(a, b)

    def test_child_streams_are_stable(self):
        s = RngStream(7)
        assert s.child(1, 2) == s.child(1, 2)
        assert s.child(1, 2) != s.child(2, 1)

    def test_child_paths_do_not_collide(self):
        # chunk 6991 of grid point 1 and chunk 49267 of grid point 2 shared
        # their draws when the path was hashed to 32 bits
        a = sample_channels(RngStream(0).child(1, 6991), 2, 8)
        b = sample_channels(RngStream(0).child(2, 49267), 2, 8)
        assert not np.array_equal(a, b)
        nested = sample_channels(RngStream(0).child(1).child(6991), 2, 8)
        assert np.array_equal(a, nested)


class TestDistribution:
    def test_component_power_is_exponential(self):
        h = sample_channels(RngStream(11), 4, 50000)
        power = np.abs(h) ** 2
        # per-component mean 1 and KS distance below the 1% critical value
        assert np.abs(np.mean(power, axis=0) - 1.0).max() < 0.02
        d = ks_statistic_exponential(power.ravel())
        assert d < 1.63 / math.sqrt(power.size)

    def test_real_imag_moments(self):
        h = sample_channels(RngStream(12), 2, 200000)
        z = np.concatenate([h.real.ravel(), h.imag.ravel()])
        assert abs(np.mean(z)) < 0.005
        assert np.var(z) == pytest.approx(0.5, abs=0.005)
        # circular symmetry: E[h^2] = 0 for proper complex Gaussians
        assert abs(np.mean(h**2)) < 0.005

    def test_norm_squared_gamma_moments(self):
        t = 3
        h = sample_channels(RngStream(13), t, 100000)
        n2 = np.sum(np.abs(h) ** 2, axis=1)
        assert np.mean(n2) == pytest.approx(t, rel=0.01)
        assert np.var(n2) == pytest.approx(t, rel=0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_channels(RngStream(1), 0, 10)
        with pytest.raises(ValueError):
            sample_channels(RngStream(1), 2, 0)


class TestUnitary:
    def test_rotation_invariance_of_channel_law(self):
        # ||Uh||^2 must equal ||h||^2 and the rotated ensemble must keep
        # exponential per-component powers
        t = 2
        H = sample_channels(RngStream(23), t, 20000)
        U, _ = np.linalg.qr(sample_channels(RngStream(24), t, t))
        rotated = H @ U.T
        assert np.allclose(
            np.sum(np.abs(rotated) ** 2, axis=1), np.sum(np.abs(H) ** 2, axis=1)
        )
        d = ks_statistic_exponential(np.abs(rotated.ravel()) ** 2)
        assert d < 1.63 / math.sqrt(rotated.size)


def unlift(lifted: np.ndarray, t: int) -> np.ndarray:
    """The direction rows (n, t), first entry real and >= 0, whose lift
    ``sample_directions`` returned: h_0 = sqrt(m_0), and each pair (0, l)
    holds h_0 conj(h_l)."""
    pairs = t * (t - 1) // 2
    h = np.empty((lifted.shape[1], t), dtype=complex)
    h[:, 0] = np.sqrt(lifted[0])
    for l in range(1, t):
        h[:, l] = np.conj(lifted[t + l - 1] + 1j * lifted[t + pairs + l - 1]) / h[:, 0]
    return h


def per_row_fill(gen, t, lifted):
    """``channel._fill_directions`` one row of uniforms, phasors, products
    and amplitudes per numpy call: the t - 1 phase rows, then the t - 1
    magnitude rows with their stick-breaking, then each pair (a >= 1, b)
    from the phasor rows, and the amplitudes last."""
    w = lifted.shape[1]
    u, keep = np.empty(w), np.empty(w)
    pairs = list(zip(*np.triu_indices(t, 1)))
    mag, re, im = lifted[:t], lifted[t : t + len(pairs)], lifted[t + len(pairs) :]
    for b in range(1, t):
        gen.random(out=u)
        channel._phasor(u, re[b - 1], im[b - 1], keep, mag[0], mag[1])
    mag[t - 1].fill(1.0)
    for j in range(t - 1):
        gen.random(out=u)
        np.subtract(1.0, u, out=keep)
        if t - 1 - j > 1:
            np.power(keep, 1.0 / (t - 1 - j), out=keep)
        np.subtract(1.0, keep, out=mag[j])
        mag[j] *= mag[t - 1]
        mag[t - 1] *= keep
    for p in range(t - 1, len(pairs)):
        a, b = pairs[p]
        np.multiply(re[a - 1], re[b - 1], out=re[p])
        np.multiply(im[a - 1], im[b - 1], out=u)
        re[p] += u
        np.multiply(re[a - 1], im[b - 1], out=im[p])
        np.multiply(im[a - 1], re[b - 1], out=u)
        im[p] -= u
    for p, (a, b) in enumerate(pairs):
        np.multiply(mag[a], mag[b], out=u)
        np.sqrt(u, out=u)
        re[p] *= u
        im[p] *= u


class TestDirections:
    """``sample_directions`` returns the real (t^2, n) lift of the draws
    that ``direction_blocks`` yields one block at a time."""

    def test_unit_rows_with_real_first_entry(self):
        # the lift is that of one unit vector per draw, with h_0 real >= 0
        for t in (2, 3, 4, 8):
            L = sample_directions(RngStream(30), t, 20000)
            assert L.shape == (t * t, 20000) and L.dtype == float
            H = unlift(L, t)
            assert np.max(np.abs(np.linalg.norm(H, axis=1) - 1.0)) <= 1e-15
            assert np.all(H[:, 0].imag == 0.0) and np.all(H[:, 0].real >= 0.0)
            assert np.max(np.abs(_lift(H) - L)) <= 1e-15

    def test_pairs_are_rank_one(self):
        # Re^2 + Im^2 of h_k conj(h_l) is m_k m_l, and the m_k sum to 1
        for t in (2, 3, 4, 8):
            L = sample_directions(RngStream(35, t), t, 20000)
            m = L[:t]
            assert np.all(m >= 0.0)
            assert np.max(np.abs(np.sum(m, axis=0) - 1.0)) <= 1e-15
            k, l = np.triu_indices(t, 1)
            re, im = L[t : t + len(k)], L[t + len(k) :]
            assert np.max(np.abs((re**2 + im**2) / (m[k] * m[l]) - 1.0)) <= 1e-15

    def test_first_power_and_relative_phases(self):
        # |h_1|^2 of a uniform unit vector in C^t is Beta(1, t-1), and the
        # phases relative to h_1 are independent and uniform
        for t in (2, 3, 4):
            L = sample_directions(RngStream(31, t), t, 50000)
            crit = 1.63 / math.sqrt(L.shape[1])  # 1% critical value
            assert ks_statistic(L[0], lambda x: 1.0 - (1.0 - x) ** (t - 1)) < crit
            pairs = t * (t - 1) // 2
            for j in range(1, t):
                angle = np.arctan2(L[t + pairs + j - 1], L[t + j - 1])
                phase = np.mod(angle, 2.0 * np.pi) / (2.0 * np.pi)
                assert ks_statistic(phase, lambda x: x) < crit

    def test_same_law_as_normalised_channels(self):
        # |<x, h>|^2 = <lift(x), L> with x's off-diagonal terms doubled, for
        # a fixed unit x, is Beta(1, t-1) either way
        t = 3
        x = np.array([[1.0, 1.0j, -1.0]]) / math.sqrt(3.0)
        w = _lift(x)[:, 0]
        w[t:] *= 2.0
        L = sample_directions(RngStream(32), t, 50000)
        corr = w @ L
        assert ks_statistic(corr, lambda c: 1.0 - (1.0 - c) ** (t - 1)) < 1.63 / math.sqrt(len(corr))

    def test_single_antenna_is_all_ones(self):
        L = sample_directions(RngStream(33), 1, 10)
        assert L.shape == (1, 10) and np.all(L == 1.0)

    def test_rejects_bad_arguments(self):
        for t, n in ((0, 10), (2, 0)):
            with pytest.raises(ValueError):
                sample_directions(RngStream(1), t, n)
            with pytest.raises(ValueError):
                next(channel.direction_blocks(RngStream(1), t, n))

    @pytest.mark.parametrize(
        "t, width",
        [(1, 1 << 17), (2, 1 << 15), (3, 1 << 13), (4, 1 << 13), (5, 1 << 12), (8, 1 << 12)],
    )
    def test_blocks_of_a_chunk(self, t, width):
        # a sweep chunk's lift in blocks of at most 1 MiB, or of 4 096 draws
        # where those are larger, each written over the last; side by side
        # they are the lift sample_directions returns
        n = (1 << 15) + 5
        whole = sample_directions(RngStream(39, t), t, n)
        starts, first = [], None
        for lo, block in channel.direction_blocks(RngStream(39, t), t, n):
            first = block if first is None else first
            assert block.shape == (t * t, min(width, n - lo))
            assert block.nbytes <= max(1 << 20, t * t * 8 * 4096)
            assert np.shares_memory(block, first)
            assert np.array_equal(block, whole[:, lo : lo + width])
            starts.append(lo)
        assert starts == list(range(0, n, width))

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 8])
    def test_fill_is_the_per_row_fill(self, t):
        # several rows per numpy call, the same bits as one row at a time,
        # on padded views of odd widths
        for w in (1, 7, 1001, 4097):
            got, want = (np.full((t * t, w + pad), np.nan)[:, :w] for pad in (8, 3))
            channel._fill_directions(RngStream(41, t, (w,)).generator(), t, got)
            per_row_fill(RngStream(41, t, (w,)).generator(), t, want)
            assert np.array_equal(got, want), (t, w)

    def test_deterministic_per_substream(self):
        s = RngStream(34)
        a = sample_directions(s.child(0, 3), 2, 100)
        assert np.array_equal(a, sample_directions(s.child(0, 3), 2, 100))
        b = sample_directions(s.child(0, 4), 2, 100)
        assert not np.any(a == b)


def two_sum(a, b):
    """(s, e) with s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def two_prod(a, b):
    """(p, e) with p + e = a b exactly (Dekker's split into 26-bit halves)."""
    p = a * b
    halves = []
    for x in (a, b):
        c = 134217729.0 * x
        hi = c - (c - x)
        halves.append((hi, x - hi))
    (ah, al), (bh, bl) = halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    return two_sum(s, e + (x[1] + y[1]))


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    return two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def dd(x):
    """An mpmath number as a double-double (hi, lo)."""
    hi = float(x)
    return hi, float(x - hi)


def phasor_reference(u):
    """cos and sin of 2 pi u as double-doubles, to about 1e-21: mpmath's
    values at the node 2 pi j / M nearest to 2 pi u, rotated by the rest
    a = 2 pi (M u - j) / M, |a| <= pi / M, in double-double arithmetic."""
    M = channel._NODES
    with mpmath.workprec(200):
        step = dd(2 * mpmath.pi / M)
        angles = [mpmath.mpf(2 * j) / M for j in range(M + 1)]
        c_hi, c_lo = np.array([dd(mpmath.cospi(x)) for x in angles]).T
        s_hi, s_lo = np.array([dd(mpmath.sinpi(x)) for x in angles]).T
    j = np.rint(M * u).astype(int)
    zero = np.zeros_like(u)
    a = dd_mul((zero + step[0], zero + step[1]), (M * u - j, zero))
    a2 = a[0] * a[0]
    cos_a_m1 = (a2 * (-0.5 + a2 * (1.0 / 24.0 - a2 / 720.0)), zero)
    sin_a = dd_add(a, (a[0] * a2 * (-1.0 / 6.0 + a2 * (1.0 / 120.0 - a2 / 5040.0)), zero))
    c, s = (c_hi[j], c_lo[j]), (s_hi[j], s_lo[j])
    cos = dd_add(dd_add(c, dd_mul(c, cos_a_m1)), dd_mul((-s[0], -s[1]), sin_a))
    sin = dd_add(dd_add(s, dd_mul(s, cos_a_m1)), dd_mul(c, sin_a))
    return cos, sin


def ulp_error(got, ref):
    """|got - ref| in units of the spacing of floats at ref (hi, lo)."""
    hi, lo = ref
    return np.abs((got - hi) - lo) / np.spacing(np.abs(hi))


class TestPhasor:
    """``sample_directions`` takes cos and sin of 2 pi u from a table of
    _NODES + 1 nodes, rotated by a short series."""

    def test_table_is_correctly_rounded(self):
        M = channel._NODES
        cos_t, sin_t = channel._phasor_table()
        assert cos_t.shape == sin_t.shape == (M + 1,)
        with mpmath.workprec(200):
            for j in range(M + 1):
                for got, f in ((cos_t[j], mpmath.cospi), (sin_t[j], mpmath.sinpi)):
                    want = f(mpmath.mpf(2 * j) / M)
                    if want == 0:
                        assert got == 0.0 and not math.copysign(1.0, got) < 0.0
                    else:
                        assert abs(got - want) <= 0.5 * np.spacing(abs(float(want))), (j, f)

    def test_within_two_ulp(self):
        # seeded uniforms, then 0, 1 - 2^-53 and the midpoints between nodes,
        # where |a| = pi / M is largest
        M = channel._NODES
        mid = (np.arange(M) + 0.5) / M
        edge = np.concatenate(([0.0, 1.0 - 2.0**-53], mid))
        u = np.concatenate((np.random.default_rng(40).random(1 << 20), edge))
        cos, sin, y, z, w = (np.empty_like(u) for _ in range(5))
        channel._phasor(u.copy(), cos, sin, y, z, w)
        ref = phasor_reference(u)
        assert np.max(ulp_error(cos, ref[0])) <= 2.0
        assert np.max(ulp_error(sin, ref[1])) <= 2.0
        # the reference itself is mpmath's to a thousandth of an ulp
        k = len(u) - len(edge)
        with mpmath.workprec(200):
            for i, x in enumerate(edge):
                for r, f in ((ref[0], mpmath.cospi), (ref[1], mpmath.sinpi)):
                    want = f(2 * mpmath.mpf(x))
                    assert abs(r[0][k + i] + mpmath.mpf(r[1][k + i]) - want) <= 1e-3 * np.spacing(
                        abs(float(want))
                    )


class TestMagnitudes:
    """``sample_magnitudes`` draws plain mode's ||h||^2, which scales the
    direction ``sample_directions`` draws into h ~ CN(0, I_t)."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_gamma_law(self, t):
        norm2 = sample_magnitudes(RngStream(36, t), t, 50000)
        crit = 1.63 / math.sqrt(len(norm2))  # 1% critical value
        assert ks_statistic(norm2, lambda x: 1.0 - gamma_tail(t, x)) < crit

    def test_projection_on_a_fixed_direction_is_exponential(self):
        # |<x, h>|^2 = ||h||^2 |<x, hbar>|^2 with ||h||^2 and hbar drawn
        # independently is Exp(1), as for h ~ CN(0, I_t)
        t, n = 3, 50000
        x = np.array([[1.0, 1.0j, -1.0]]) / math.sqrt(3.0)
        w = _lift(x)[:, 0]
        w[t:] *= 2.0
        stream = RngStream(37)
        norm2 = sample_magnitudes(stream.child(1, 0), t, n)
        power = norm2 * (w @ sample_directions(stream.child(0, 0), t, n))
        assert ks_statistic_exponential(power) < 1.63 / math.sqrt(n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_magnitudes(RngStream(1), 0, 10)
        with pytest.raises(ValueError):
            sample_magnitudes(RngStream(1), 2, 0)

    def test_deterministic_per_substream(self):
        s = RngStream(38)
        a = sample_magnitudes(s.child(1, 3), 2, 100)
        assert np.array_equal(a, sample_magnitudes(s.child(1, 3), 2, 100))
        assert not np.any(a == sample_magnitudes(s.child(1, 4), 2, 100))
