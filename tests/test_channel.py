"""Channel sampling: determinism, distribution checks, unitary invariance."""

import math

import numpy as np
import pytest

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


class TestDirections:
    """``sample_directions`` returns the real (t^2, n) lift of the draws."""

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
        with pytest.raises(ValueError):
            sample_directions(RngStream(1), 0, 10)
        with pytest.raises(ValueError):
            sample_directions(RngStream(1), 2, 0)

    def test_deterministic_per_substream(self):
        s = RngStream(34)
        a = sample_directions(s.child(0, 3), 2, 100)
        assert np.array_equal(a, sample_directions(s.child(0, 3), 2, 100))
        b = sample_directions(s.child(0, 4), 2, 100)
        assert not np.any(a == b)


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
