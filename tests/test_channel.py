"""Channel sampling: determinism, distribution checks, unitary invariance."""

import math

import numpy as np
import pytest

from vlqsim.channel import (
    RngStream,
    apply_unitary,
    random_unitary,
    sample_channel,
    sample_channels,
)


def ks_statistic_exponential(x: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance against Exp(1)."""
    x = np.sort(x)
    n = len(x)
    cdf = 1.0 - np.exp(-x)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    return max(d_plus, d_minus)


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

    def test_single_draw_matches_batch_of_one(self):
        s = RngStream(9, 1)
        assert np.array_equal(sample_channel(s, 2), sample_channels(s, 2, 1)[0])


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
    def test_haar_samples_are_unitary(self):
        U = random_unitary(RngStream(21), 4, n=50)
        eye = np.eye(4)
        for u in U:
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12

    def test_single_matrix_shape(self):
        u = random_unitary(RngStream(22), 3)
        assert u.shape == (3, 3)

    def test_rotation_invariance_of_channel_law(self):
        # ||Uh||^2 must equal ||h||^2 and the rotated ensemble must keep
        # exponential per-component powers
        t = 2
        H = sample_channels(RngStream(23), t, 20000)
        U = random_unitary(RngStream(24), t)
        rotated = H @ U.T
        assert np.allclose(
            np.sum(np.abs(rotated) ** 2, axis=1), np.sum(np.abs(H) ** 2, axis=1)
        )
        d = ks_statistic_exponential(np.abs(rotated.ravel()) ** 2)
        assert d < 1.63 / math.sqrt(rotated.size)

    def test_apply_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            apply_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 0.0]))
        got = apply_unitary(np.eye(2), np.array([1.0, 1.0j]))
        assert np.array_equal(got, np.array([1.0, 1.0j]))

    def test_haar_phase_distribution(self):
        # first-column entries of Haar matrices have uniformly distributed
        # phases; bin-count chi-square at 1% level
        U = random_unitary(RngStream(25), 2, n=20000)
        phases = np.angle(U[:, 0, 0])
        counts, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
        expected = len(phases) / 16
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 30.58  # chi-square 15 dof, 1% tail
