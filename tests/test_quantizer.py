"""Quantizer decisions as the sweep computes them, against brute force.

Every decision rule is checked through the estimators' ``snr_bits``, fed
each channel's ||h||^2 and the lifted stats of its direction by the
``snr_bits`` fixture.  The reference correlation is the direct complex
product |<x_i, h>|^2, which does not share code with the lifted kernel.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqsim.channel import RngStream, sample_channels
from vlqsim.codebook import build_covering_codebook
from vlqsim.estimate import (
    FeedbackFree,
    FixedLengthBeamforming,
    FullCsitBeamforming,
    FullCsitPrecoding,
    OpenLoopPrecoding,
    VariableLengthBeamforming,
    VariableLengthPrecoding,
)
from vlqsim.numerics import bpsk_mrc_ser
from vlqsim.quantizer import PrefixCode, index_bits, kraft_check, vlq_prefix_code


def brute_corr(book, H):
    """|<x_i, h>|^2 for every row h of H and codeword x_i, shape (n, |B|)."""
    return np.abs(H.conj() @ book.vectors.T) ** 2


@pytest.fixture(scope="module")
def book():
    return build_covering_codebook(2, 0.2, RngStream(42, 7), stop_streak=400)


@pytest.fixture(scope="module")
def bf_vlq(book):
    return VariableLengthBeamforming(book)


@pytest.fixture(scope="module")
def pc_vlq(book):
    return VariableLengthPrecoding(book)


class TestPrefixCode:
    def test_rejects_invalid_words(self):
        with pytest.raises(ValueError):
            PrefixCode(["0", ""])
        with pytest.raises(ValueError):
            PrefixCode(["0", "1x"])

    def test_kraft_examples(self):
        ok, total = kraft_check(PrefixCode(["0", "10", "11"]))
        assert ok and total == pytest.approx(1.0)
        ok, total = kraft_check(PrefixCode(["0", "01"]))
        assert not ok
        ok, total = kraft_check(PrefixCode(["00", "01", "10", "11"]))
        assert ok and total == pytest.approx(1.0)

    def test_vlq_codes_are_prefix_free(self, bf_vlq, pc_vlq):
        # both schemes send "0", or "1" and an index into the same book
        for scheme in (bf_vlq, pc_vlq):
            code = vlq_prefix_code(len(scheme.codebook))
            ok, total = kraft_check(code)
            assert ok
            assert total <= 1.0 + 1e-12
            assert min(code.lengths) == 1
            assert max(code.lengths) == 1 + scheme.bits

    def test_index_bits(self):
        assert index_bits(1) == 0
        assert index_bits(2) == 1
        assert index_bits(14) == 4
        assert index_bits(16) == 4
        assert index_bits(17) == 5
        with pytest.raises(ValueError):
            index_bits(0)


class TestFullCsit:
    def test_beamformer_achieves_channel_norm(self, snr_bits):
        H = sample_channels(RngStream(0), 3, 100)
        x = H / np.linalg.norm(H, axis=1, keepdims=True)
        achieved = np.abs(np.sum(x.conj() * H, axis=1)) ** 2 * 7.0
        snr, bits = snr_bits(FullCsitBeamforming(3), H, 7.0)
        assert np.allclose(snr, achieved, rtol=1e-12, atol=0.0)
        assert np.all(bits == 0.0)

    def test_precoder_is_rank_one_projector(self, snr_bits):
        # full CSIT sends the projector h h^dagger / ||h||^2, open loop the
        # identity I / sqrt(t); each spends rate r over the space-time code
        H = sample_channels(RngStream(1), 3, 100)
        r = Fraction(3, 4)
        for h, full, open_ in zip(
            H,
            snr_bits(FullCsitPrecoding(3, r), H, 7.0)[0],
            snr_bits(OpenLoopPrecoding(3, r), H, 7.0)[0],
        ):
            W = np.outer(h, h.conj()) / np.vdot(h, h).real
            assert full == pytest.approx(np.linalg.norm(W @ h) ** 2 * 7.0 / 0.75, rel=1e-12)
            ident = np.eye(3) / math.sqrt(3.0)
            assert open_ == pytest.approx(np.linalg.norm(ident @ h) ** 2 * 7.0 / 0.75, rel=1e-12)

    def test_feedback_free_divisors(self):
        r = Fraction(3, 4)
        schemes = {
            "bf-full": (FullCsitBeamforming(4), 1.0),
            "pc-full": (FullCsitPrecoding(4, r), 0.75),
            "open-loop": (OpenLoopPrecoding(4, r), 3.0),
        }
        Hbar = sample_channels(RngStream(2), 4, 5)
        for qid, (spec, divisor) in schemes.items():
            assert isinstance(spec, FeedbackFree)
            assert spec.quantizer_id == qid and spec.codebook is None
            assert spec.divisor == divisor
            ser, rate, hw = spec.conditioned(len(Hbar), None, 30.0, spec.prepare(30.0))
            assert ser.shape == (len(Hbar),)
            assert np.all(ser == bpsk_mrc_ser(4, 30.0 / divisor))
            assert np.all(rate == 0.0) and hw == 0.0


class TestFlqEncode:
    def test_picks_best_codeword(self, book, snr_bits):
        H = sample_channels(RngStream(1), 2, 200)
        snr, bits = snr_bits(FixedLengthBeamforming(book), H, 2.0)
        corr = brute_corr(book, H)
        assert np.allclose(snr, 2.0 * np.max(corr, axis=1), rtol=1e-12, atol=0.0)
        assert np.all(bits == index_bits(len(book)))

    @given(st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_phase_invariance(self, book, snr_bits, theta):
        H = np.array([[0.6 + 0.2j, -0.5 + 0.9j]])
        flq = FixedLengthBeamforming(book)
        vlq = VariableLengthBeamforming(book)
        base = snr_bits(flq, H, 5.0)
        rotated = snr_bits(flq, np.exp(1j * theta) * H, 5.0)
        assert rotated[0] == pytest.approx(base[0], rel=1e-12)
        assert np.array_equal(rotated[1], base[1])
        assert np.array_equal(
            snr_bits(vlq, np.exp(1j * theta) * H, 5.0)[1], snr_bits(vlq, H, 5.0)[1]
        )


class TestVlqBeamforming:
    def test_short_branch_requires_all_codewords_strong(self, bf_vlq, snr_bits):
        P = 50.0
        beta = bf_vlq.beta(P)
        H = sample_channels(RngStream(2), 2, 2000)
        snr, bits = snr_bits(bf_vlq, H, P)
        snrs = brute_corr(bf_vlq.codebook, H) * P
        short = bits == 1.0
        assert np.any(short) and not np.all(short)
        assert np.all(np.min(snrs[short], axis=1) >= beta)
        assert np.allclose(snr[short], snrs[short, 0], rtol=1e-12, atol=0.0)
        assert np.all(np.min(snrs[~short], axis=1) < beta)
        assert np.all(bits[~short] == 1.0 + bf_vlq.bits)
        assert np.allclose(snr[~short], np.max(snrs[~short], axis=1), rtol=1e-12, atol=0.0)

    def test_threshold_boundary_goes_short(self, bf_vlq):
        # the weakest codeword sits exactly on the threshold: the >=
        # comparison must choose the short branch.  P is a power of two, so
        # (beta / P) * P == beta holds exactly.
        P = 64.0
        c_min = bf_vlq.beta(P) / P
        assert c_min * P == bf_vlq.beta(P)
        vlq = bf_vlq
        norm2 = np.ones(1)
        at = SimpleNamespace(c_max=np.array([0.9]), c_min=np.array([c_min]), c_first=np.array([0.5]))
        below = SimpleNamespace(
            c_max=at.c_max, c_min=np.nextafter(at.c_min, 0.0), c_first=at.c_first
        )
        snr, bits = vlq.snr_bits(norm2, at, P, vlq.prepare(P))
        assert bits[0] == 1.0 and snr[0] == 0.5 * P
        snr, bits = vlq.snr_bits(norm2, below, P, vlq.prepare(P))
        assert bits[0] == 1.0 + bf_vlq.bits and snr[0] == 0.9 * P

    def test_rejects_unit_power(self, bf_vlq):
        # both modes read beta from prepare, which a sweep calls before any draw
        for P in (1.0, 0.5):
            with pytest.raises(ValueError, match="P must be > 1"):
                bf_vlq.prepare(P)
            with pytest.raises(ValueError, match="P must be > 1"):
                bf_vlq.beta(P)

    def test_short_branch_probability_union_bound(self, bf_vlq, snr_bits):
        # Pr[long] <= |B| (1 - exp(-beta/P)) for the all-codewords threshold
        P = 2000.0
        n = 20000
        H = sample_channels(RngStream(4), 2, n)
        _, bits = snr_bits(bf_vlq, H, P)
        p_hat = np.count_nonzero(bits != 1.0) / n
        bound = len(bf_vlq.codebook) * (1.0 - math.exp(-bf_vlq.beta(P) / P))
        assert p_hat <= bound + 3.0 * math.sqrt(p_hat * (1 - p_hat) / n + 1e-9)


class TestVlqPrecoding:
    def test_branches(self, pc_vlq, snr_bits):
        P = 20.0
        H = sample_channels(RngStream(5), 2, 2000)
        snr, bits = snr_bits(pc_vlq, H, P)
        n2 = np.sum(np.abs(H) ** 2, axis=1)
        short = n2 * P >= pc_vlq.threshold
        assert 0 < np.count_nonzero(short) < len(H)
        assert np.all(bits[short] == 1.0)
        assert np.allclose(snr[short], n2[short] * P / 2.0, rtol=1e-12, atol=0.0)
        corr = brute_corr(pc_vlq.codebook, H[~short])
        assert np.all(bits[~short] == 1.0 + pc_vlq.bits)
        assert np.allclose(snr[~short], np.max(corr, axis=1) * P, rtol=1e-12, atol=0.0)

    def test_threshold_boundary_goes_short(self, pc_vlq, snr_bits):
        # ||h||^2 P == t / delta exactly: ||h||^2 = 2, P = 5, threshold 10
        assert pc_vlq.threshold == 10.0
        vlq = pc_vlq
        H = np.ones((1, 2), dtype=complex)
        snr, bits = snr_bits(vlq, H, 5.0)
        assert bits[0] == 1.0 and snr[0] == 5.0
        _, bits = snr_bits(vlq, H, np.nextafter(5.0, 0.0))
        assert bits[0] == 1.0 + pc_vlq.bits

    def test_rate_fraction_scales_snr(self, book, snr_bits):
        H = sample_channels(RngStream(6), 2, 400)
        P = 5.0
        snr1, bits1 = snr_bits(VariableLengthPrecoding(book), H, P)
        snr34, bits34 = snr_bits(VariableLengthPrecoding(book, r=Fraction(3, 4)), H, P)
        assert np.array_equal(bits1, bits34)
        assert np.allclose(snr34, snr1 / 0.75, rtol=1e-12, atol=0.0)
        n2 = np.sum(np.abs(H) ** 2, axis=1)
        short = bits34 == 1.0
        assert 0 < np.count_nonzero(short) < len(H)
        assert np.allclose(snr34[short], n2[short] * P / (2 * 0.75), rtol=1e-12, atol=0.0)
        long_max = np.max(brute_corr(book, H[~short]), axis=1)
        assert np.allclose(snr34[~short], long_max * P / 0.75, rtol=1e-12, atol=0.0)

    def test_invalid_rate_rejected(self, book):
        for r in (Fraction(5, 4), Fraction(0)):
            with pytest.raises(ValueError, match=r"space-time rate must be in \(0, 1\]"):
                VariableLengthPrecoding(book, r=r)
