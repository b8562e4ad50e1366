"""Covering codebook construction, certification and persistence."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import chunk_lift
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlqsim import codebook
from vlqsim.channel import RngStream, sample_channels
from vlqsim.codebook import (
    BeamformingCodebook,
    CoveringError,
    _lift,
    build_covering_codebook,
    load_codebook,
    save_codebook,
    verify_covering,
)


REFERENCE_BOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def per_probe_greedy(t, delta, stream, stop_streak):
    """The greedy build's (codewords, probes) from one exact test per
    probe, in order, against the book as it stands."""
    gen = stream.child(0).generator()
    threshold = 1.0 - (1.0 - codebook._BUILD_MARGIN) * delta
    vectors, mat, streak, probes = [], np.zeros((1, t)), 0, 0
    while streak < stop_streak:
        for p in codebook._unit_probes(gen, t, codebook._PROBE_BATCH):
            probes += 1
            if float(np.max(np.abs(mat @ p.conj()) ** 2)) < threshold:
                vectors.append(p / np.linalg.norm(p))
                mat = np.asarray(vectors)
                streak = 0
            else:
                streak += 1
            if streak >= stop_streak:
                break
    return np.asarray(vectors), probes


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

    @pytest.mark.parametrize("entries", [5, 8, 16, 1 << 16])
    def test_duplicates_found_across_blocks(self, monkeypatch, entries):
        # 5 codewords checked a block of 1, 1, 3 or 5 columns at a time:
        # the twin of row i sits in the last block
        monkeypatch.setattr(codebook, "_CORR_ENTRIES", entries)
        v = sample_channels(RngStream(8), 3, 4)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        BeamformingCodebook(vectors=v, delta=0.3)
        for i in range(4):
            with pytest.raises(ValueError, match="duplicate"):
                BeamformingCodebook(vectors=np.vstack((v, 1j * v[i : i + 1])), delta=0.3)
        for t in (1, 2, 5):
            BeamformingCodebook(vectors=np.eye(t, dtype=complex), delta=0.3)

    def test_rejects_more_codewords_than_the_cap(self, monkeypatch):
        monkeypatch.setattr(codebook, "_MAX_CODEWORDS", 3)
        BeamformingCodebook(vectors=np.eye(3, dtype=complex), delta=0.3)
        with pytest.raises(ValueError, match="4 codewords, more than 3"):
            BeamformingCodebook(vectors=np.eye(4, dtype=complex), delta=0.3)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            BeamformingCodebook(vectors=np.eye(2, dtype=complex), delta=1.0)


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

    @pytest.mark.parametrize(
        "t, delta", [(1, 0.3), (2, 0.1), (2, 0.4), (3, 0.2), (3, 0.5), (4, 0.3), (4, 0.6)]
    )
    def test_batched_greedy_matches_the_per_probe_loop(self, t, delta):
        # a batch's covered probes skip the exact test; streaks that end
        # inside a batch, after a candidate, on a batch boundary, on a
        # batch's last probe, on the next batch's first probe and after two
        # whole batches
        threshold = 1.0 - (1.0 - codebook._BUILD_MARGIN) * delta
        for seed in range(3):
            for stop_streak in (1, 37, 511, 512, 513, 1024, 1300):
                stream = RngStream(seed, 11)
                want, want_probes = per_probe_greedy(t, delta, stream, stop_streak)
                gen = stream.child(0).generator()
                got, probes = codebook._greedy_cover(t, threshold, gen, stop_streak)
                assert probes == want_probes, (seed, stop_streak)
                assert np.array_equal(np.asarray(got), want), (seed, stop_streak)

    @pytest.mark.parametrize("t, delta", [(2, 0.2), (4, 0.3)])
    def test_benchmark_books_are_unchanged(self, t, delta):
        # the sweep books built the way `vlqsim sweep` builds them; the
        # certificate value is the build's own, as the stored files' metadata
        # predates the current verification
        stored = load_codebook(REFERENCE_BOOKS / f"book-t{t}.json")
        book = build_covering_codebook(t, delta, RngStream(0, 101), stop_streak=400)
        assert np.array_equal(book.vectors, stored.vectors)
        assert book.metadata["probes_during_build"] == stored.metadata["probes_during_build"]
        worst = {2: 0.8472729004533468, 4: 0.7178447562304952}[t]
        assert book.metadata["verified_worst_correlation_sq"] == worst

    def test_build_stops_at_the_codeword_cap(self, monkeypatch):
        # at delta = 1e-300 the threshold rounds to 1 and every probe would
        # become a codeword; a book at the cap itself still builds
        monkeypatch.setattr(codebook, "_MAX_CODEWORDS", 8)
        with pytest.raises(CoveringError, match=r"delta=1e-300: .* more than 8 codewords"):
            build_covering_codebook(2, 1e-300, RngStream(0, 101), stop_streak=400)
        size = len(build_covering_codebook(2, 0.4, RngStream(5, 1), stop_streak=200))
        monkeypatch.setattr(codebook, "_MAX_CODEWORDS", size)
        assert len(build_covering_codebook(2, 0.4, RngStream(5, 1), stop_streak=200)) == size
        monkeypatch.setattr(codebook, "_MAX_CODEWORDS", size - 1)
        with pytest.raises(CoveringError, match=f"more than {size - 1} codewords"):
            build_covering_codebook(2, 0.4, RngStream(5, 1), stop_streak=200)

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

    def test_products_stay_within_a_million_multiply_adds(self):
        # the widest block under the cache-sized cap whose (|B|, t^2, width)
        # GEMM has at most 10^6 multiply-adds, which OpenBLAS runs on one
        # thread; the benchmark's books keep the cap's widths
        assert codebook._corr_width(12, 2) == 4096 and codebook._corr_width(239, 4) == 256
        assert codebook._corr_width(250, 4) == 250
        for t in range(1, 9):
            for size in range(1, 5001):
                cap = min(4096, max(64, (1 << 16) // size // 64 * 64))
                width = codebook._corr_width(size, t)
                assert 1 <= width <= cap and size * t * t * width <= 10**6
                assert width == cap or size * t * t * (width + 1) > 10**6

    @pytest.mark.parametrize("t, size", [(2, 12), (3, 40), (4, 239), (8, 100)])
    def test_row_stride_of_the_lift_changes_no_bit(self, t, size):
        # chunk_lift pads the lift's rows; the GEMM blocks read that
        # lift in place, and n is no multiple of the block width
        gen = np.random.default_rng(t)
        v = gen.standard_normal((size, t)) + 1j * gen.standard_normal((size, t))
        book = BeamformingCodebook(v / np.linalg.norm(v, axis=1, keepdims=True), 0.5)
        lifted = chunk_lift(RngStream(39, t), t, 9001)
        assert not lifted.flags.c_contiguous
        packed = np.ascontiguousarray(lifted)
        for got, want in zip(book.lifted_stats(lifted), book.lifted_stats(packed)):
            assert np.array_equal(got, want)


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
