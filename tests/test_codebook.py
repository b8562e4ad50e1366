"""Covering codebook construction, certification and persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlqsim.channel import RngStream
from vlqsim.codebook import (
    BeamformingCodebook,
    CoveringError,
    CoveringReport,
    _lift,
    build_covering_codebook,
    fit_c0,
    load_codebook,
    save_codebook,
    verify_covering,
)


@pytest.fixture(scope="module")
def book02():
    return build_covering_codebook(2, 0.2, RngStream(42, 7), stop_streak=400)


class TestValidation:
    def test_rejects_non_unit_vectors(self):
        v = np.array([[1.0, 0.0], [0.0, 1.5]], dtype=complex)
        with pytest.raises(ValueError):
            BeamformingCodebook(vectors=v, delta=0.3)

    def test_rejects_duplicates(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            BeamformingCodebook(vectors=v, delta=0.3)
        # a global phase does not make a codeword distinct
        v = np.array([[1.0, 0.0], [1.0j, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            BeamformingCodebook(vectors=v, delta=0.3)

    def test_rejects_non_finite_vectors(self):
        # a NaN norm compares false against the unit-norm tolerance
        v = np.array([[1.0, 0.0], [0.0, np.nan]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            BeamformingCodebook(vectors=v, delta=0.3)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            BeamformingCodebook(vectors=np.eye(2, dtype=complex), delta=1.0)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            CoveringReport(
                probes_tested=10,
                worst_correlation_sq=0.5,
                worst_probe=np.array([1.0, 0.0]),
                passed=True,
                delta=0.2,
            )


class TestBuild:
    def test_build_is_certified(self, book02):
        assert book02.delta == 0.2
        assert book02.t == 2
        assert len(book02) >= 4
        assert book02.metadata["verified_worst_correlation_sq"] >= 0.8

    def test_independent_verification(self, book02):
        report = verify_covering(book02, 0.2, probes=50000, stream=RngStream(999))
        assert report.passed
        assert report.worst_correlation_sq >= 0.8
        # the worst probe really achieves the reported value
        val = float(book02.max_correlation_sq(report.worst_probe)[0])
        assert val == pytest.approx(report.worst_correlation_sq, abs=1e-12)

    def test_build_deterministic(self):
        a = build_covering_codebook(2, 0.4, RngStream(5, 1), stop_streak=200)
        b = build_covering_codebook(2, 0.4, RngStream(5, 1), stop_streak=200)
        assert np.array_equal(a.vectors, b.vectors)

    def test_single_antenna_is_trivial(self):
        book = build_covering_codebook(1, 0.3, RngStream(3), stop_streak=50)
        assert len(book) == 1

    def test_size_scales_with_delta(self):
        small = build_covering_codebook(2, 0.4, RngStream(42, 9), stop_streak=300)
        large = build_covering_codebook(2, 0.1, RngStream(42, 8), stop_streak=400)
        assert len(large) > len(small)
        # empirical growth must stay well below the delta^-2t packing rate
        exponent = math.log(len(large) / len(small)) / math.log(0.4 / 0.1)
        assert exponent <= 2 * 2 + 0.5

    def test_orthonormal_basis_covers_at_half(self):
        # max_i |<e_i, h>|^2 >= 1/t for any unit h, so the identity basis is
        # a certified cover at delta slightly above 1 - 1/t
        book = BeamformingCodebook(vectors=np.eye(2, dtype=complex), delta=0.51)
        report = verify_covering(book, 0.51, probes=20000, stream=RngStream(17))
        assert report.passed

    @pytest.mark.parametrize("delta", [2.0, 1.0, 0.0, -0.1, math.nan])
    def test_verify_rejects_delta_outside_unit_interval(self, delta):
        book = BeamformingCodebook(vectors=np.eye(2, dtype=complex), delta=0.51)
        with pytest.raises(ValueError, match="delta"):
            verify_covering(book, delta, probes=100, stream=RngStream(17))

    def test_impossible_cover_raises(self):
        # a stop streak of 1 aborts long before the sphere is covered at a
        # small delta, so the adversarial certificate must reject the build
        with pytest.raises(CoveringError):
            build_covering_codebook(3, 0.05, RngStream(1), stop_streak=1)


class TestCorrelationKernel:
    """The lifted real-GEMM kernel against the brute-force complex product."""

    @settings(max_examples=80, deadline=None)
    @given(
        t=st.integers(1, 4),
        size=st.integers(1, 40),
        n=st.integers(1, 300) | st.sampled_from([4095, 4096, 4097, 8192, 9001]),
        unit_rows=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t=4, size=1, n=5000, unit_rows=False, seed=0)
    def test_matches_brute_force(self, t, size, n, unit_rows, seed):
        gen = np.random.default_rng(seed)
        size = 1 if t == 1 else size  # every pair of unit scalars is a duplicate
        v = gen.standard_normal((size, t)) + 1j * gen.standard_normal((size, t))
        book = BeamformingCodebook(v / np.linalg.norm(v, axis=1, keepdims=True), 0.5)
        # CN(0, I) rows of any norm, or their directions
        h = (gen.standard_normal((n, t)) + 1j * gen.standard_normal((n, t))) / math.sqrt(2.0)
        if unit_rows:
            h /= np.linalg.norm(h, axis=1, keepdims=True)
        want = np.abs(h @ book.vectors.conj().T) ** 2
        c_max, c_min, c_first = book.lifted_stats(_lift(h))
        for got, ref in ((c_max, want.max(axis=1)), (c_min, want.min(axis=1)), (c_first, want[:, 0])):
            assert got.shape == (n,)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        # the same kernel on rows lifted one block at a time; a one-column
        # block may sum in another order
        np.testing.assert_allclose(book.max_correlation_sq(h), c_max, rtol=0.0, atol=1e-15)


class TestFitC0:
    def test_uses_family_maximum(self, book02):
        large = build_covering_codebook(2, 0.1, RngStream(42, 8), stop_streak=400)
        c0 = fit_c0([book02, large])
        t = 2
        assert c0 == max(
            len(book02) * 0.2 ** (2 * t), len(large) * 0.1 ** (2 * t)
        )
        assert 0.0 < c0 < 1.0

    def test_rejects_small_or_mixed_families(self, book02):
        with pytest.raises(ValueError):
            fit_c0([book02])
        other = build_covering_codebook(3, 0.5, RngStream(6), stop_streak=100)
        with pytest.raises(ValueError):
            fit_c0([book02, other])


class TestPersistence:
    def test_round_trip(self, tmp_path, book02):
        path = tmp_path / "book.json"
        save_codebook(book02, path)
        loaded = load_codebook(path)
        assert np.array_equal(loaded.vectors, book02.vectors)
        assert loaded.delta == book02.delta
        assert loaded.metadata == book02.metadata

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format-version": 2, "t": 1, "delta": 0.5, "vectors": []}))
        with pytest.raises(ValueError):
            load_codebook(path)

    def test_missing_vectors_rejected_on_load(self, tmp_path):
        path = tmp_path / "novec.json"
        path.write_text(json.dumps({"format-version": 1, "t": 2, "delta": 0.3}))
        with pytest.raises(ValueError, match="vectors"):
            load_codebook(path)

    def test_corrupted_vectors_rejected_on_load(self, tmp_path, book02):
        path = tmp_path / "book.json"
        save_codebook(book02, path)
        doc = json.loads(path.read_text())
        doc["vectors"][0][0][0] *= 3.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_codebook(path)
