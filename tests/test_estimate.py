"""Semi-analytic estimator: unbiasedness, bounds, determinism, comparisons."""

import math

import numpy as np
import pytest

from vlqsim import estimate
from vlqsim.channel import RngStream, sample_channels
from vlqsim.codebook import BeamformingCodebook, build_covering_codebook, precoding_codebook
from vlqsim.estimate import (
    _CHUNK,
    FixedLengthBeamforming,
    FullCsitBeamforming,
    FullCsitPrecoding,
    GainEstimate,
    OpenLoopPrecoding,
    SweepRecord,
    VariableLengthBeamforming,
    VariableLengthPrecoding,
    estimate_gains,
    paired_compare,
    ser_full_analytic,
    ser_rate_sweep,
    write_records_csv,
)
from vlqsim.numerics import bpsk_mrc_ser, gamma_weighted_q_tail, q_function
from vlqsim.quantizer import VlqBeamformingSpec, VlqPrecodingSpec


@pytest.fixture(scope="module")
def book():
    return build_covering_codebook(2, 0.2, RngStream(42, 7), stop_streak=400)


@pytest.fixture(scope="module")
def all_specs(book):
    return [
        FullCsitBeamforming(2),
        FixedLengthBeamforming(book),
        VariableLengthBeamforming(VlqBeamformingSpec(book)),
        FullCsitPrecoding(2),
        OpenLoopPrecoding(2),
        VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(book))),
    ]


class TestAnalyticSer:
    def test_single_antenna_closed_form(self):
        want = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
        assert ser_full_analytic(1, 10.0) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(0.023269, abs=1e-6)

    def test_two_antennas_reference(self):
        assert ser_full_analytic(2, 10.0) == pytest.approx(1.599e-3, rel=1e-3)

    def test_zero_snr_limit(self):
        # approaches 1/2 like O(sqrt(P)) from below
        assert ser_full_analytic(2, 1e-12) == pytest.approx(0.5, abs=1e-5)
        assert ser_full_analytic(2, 1e-12) < 0.5

    def test_rate_fraction(self):
        # r < 1 boosts the per-symbol SNR by 1/r
        a = ser_full_analytic(2, 7.5, 0.75)
        b = ser_full_analytic(2, 10.0, 1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ser_full_analytic(0, 1.0)
        with pytest.raises(ValueError):
            ser_full_analytic(2, 1.0, 1.5)


class TestSweepUnbiasedness:
    def test_full_csit_plain_mode(self):
        spec = FullCsitBeamforming(2)
        for P in (1.0, 10.0):
            (rec,) = ser_rate_sweep([spec], [P], 300000, RngStream(31), conditioning="none")
            want = ser_full_analytic(2, P)
            assert abs(rec.ser - want) <= 3.0 * rec.ser_stderr
            assert rec.rate == 0.0

    def test_full_csit_radial_mode_is_exact(self):
        spec = FullCsitBeamforming(3)
        (rec,) = ser_rate_sweep([spec], [25.0], 1000, RngStream(32))
        assert rec.ser == pytest.approx(ser_full_analytic(3, 25.0), rel=1e-8)
        assert rec.ser_stderr < 1e-15

    def test_constant_draws_have_rounding_sized_stderr(self):
        # radial full-CSIT and open-loop values do not depend on the draw;
        # a one-pass variance reads cancellation noise of ~1e-11 relative
        specs = [FullCsitBeamforming(4), OpenLoopPrecoding(4)]
        grid = [3.0, 10.0, 100.0, 1e3, 1e4]
        for rec in ser_rate_sweep(specs, grid, 2 * _CHUNK + 7, RngStream(39)):
            assert rec.ser_stderr <= 1e-14 * rec.ser

    def test_open_loop_radial_matches_quadrature(self):
        spec = OpenLoopPrecoding(2)
        (rec,) = ser_rate_sweep([spec], [40.0], 1000, RngStream(33))
        assert rec.ser == pytest.approx(ser_full_analytic(2, 20.0), rel=1e-8)
        assert rec.rate == 0.0

    def test_radial_and_plain_agree(self, all_specs):
        P = 10.0
        plain = ser_rate_sweep(all_specs, [P], 400000, RngStream(34), conditioning="none")
        radial = ser_rate_sweep(all_specs, [P], 100000, RngStream(35))
        for a, b in zip(plain, radial):
            assert a.quantizer_id == b.quantizer_id
            tol = 4.0 * math.sqrt(a.ser_stderr**2 + b.ser_stderr**2) + 1e-12
            assert abs(a.ser - b.ser) <= tol, a.quantizer_id
            rtol = 4.0 * math.sqrt(a.rate_stderr**2 + b.rate_stderr**2) + 1e-9
            assert abs(a.rate - b.rate) <= rtol, a.quantizer_id

    def test_precoding_radial_deep_snr_sandwich(self, book):
        # per-draw SNR is at most the full-CSIT value and at least the
        # open-loop value on both branches, so the average is sandwiched;
        # the error floor also keeps the full diversity order
        spec = VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(book)))
        recs = ser_rate_sweep([spec], [1e4, 1e5], 50000, RngStream(36))
        for rec in recs:
            assert ser_full_analytic(2, rec.P) <= rec.ser <= ser_full_analytic(2, rec.P / 2.0)
        assert recs[0].ser / recs[1].ser == pytest.approx(100.0, rel=0.1)


class TestSweepInvariants:
    def test_vlq_rate_bounds(self, all_specs):
        recs = ser_rate_sweep(all_specs, [5.0, 50.0, 500.0], 20000, RngStream(37))
        for rec in recs:
            assert 0.0 <= rec.ser <= 0.5
            if rec.quantizer_id in ("bf-vlq", "pc-vlq"):
                assert 1.0 - 1e-12 <= rec.rate <= 1.0 + 5.0
            assert rec.ser_stderr >= 0.0 and rec.rate_stderr >= 0.0

    def test_monotone_in_power(self, all_specs):
        # bf-vlq's threshold (t+1) ln P needs P > 1, so its grid starts above
        # 1; the draws do not depend on which specs share a sweep
        others = [s for s in all_specs if s.quantizer_id != "bf-vlq"]
        (vlq,) = [s for s in all_specs if s.quantizer_id == "bf-vlq"]
        recs = ser_rate_sweep(others, [1.0, 10.0, 100.0], 20000, RngStream(38))
        recs += ser_rate_sweep([vlq], [2.0, 10.0, 100.0], 20000, RngStream(38))
        by_q = {}
        for r in recs:
            by_q.setdefault(r.quantizer_id, []).append(r)
        for rs in by_q.values():
            sers = [r.ser for r in sorted(rs, key=lambda r: r.P)]
            assert sers[0] > sers[1] > sers[2]

    def test_rejects_bad_arguments(self, all_specs):
        with pytest.raises(ValueError):
            ser_rate_sweep(all_specs, [], 10, RngStream(1))
        with pytest.raises(ValueError):
            ser_rate_sweep(all_specs, [1.0], 0, RngStream(1))
        with pytest.raises(ValueError):
            ser_rate_sweep(all_specs, [1.0], 10, RngStream(1), conditioning="x")
        with pytest.raises(ValueError):
            ser_rate_sweep(
                [FullCsitBeamforming(2), FullCsitBeamforming(3)], [1.0], 10, RngStream(1)
            )

    def test_bf_vlq_needs_power_above_one(self, book):
        vlq = VariableLengthBeamforming(VlqBeamformingSpec(book))
        for conditioning in ("radial", "none"):
            for P in (0.5, 1.0):
                with pytest.raises(ValueError, match="P must be > 1"):
                    ser_rate_sweep([vlq], [P], 10, RngStream(1), conditioning=conditioning)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord("x", 1.0, 0.7, 0.0, 0.0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            SweepRecord("x", 1.0, 0.1, -1.0, 0.0, 0.0, 1, 0)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self, all_specs):
        base = ser_rate_sweep(all_specs, [3.0, 30.0], 150000, RngStream(40), workers=1)
        for workers in (4, 16):
            again = ser_rate_sweep(all_specs, [3.0, 30.0], 150000, RngStream(40), workers=workers)
            assert again == base

    def test_csv_bytes_stable(self, tmp_path, all_specs):
        recs = ser_rate_sweep(all_specs, [3.0], 50000, RngStream(41), workers=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(recs, p1)
        write_records_csv(
            ser_rate_sweep(all_specs, [3.0], 50000, RngStream(41), workers=8), p2
        )
        assert p1.read_bytes() == p2.read_bytes()


class TestSharedCorrelation:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = BeamformingCodebook.correlation_stats

        def counted(book, h):
            calls.append(len(h))
            return original(book, h)

        monkeypatch.setattr(BeamformingCodebook, "correlation_stats", counted)
        return calls

    @staticmethod
    def coded_specs(book):
        return [
            FixedLengthBeamforming(book),
            VariableLengthBeamforming(VlqBeamformingSpec(book)),
            VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(book))),
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_once_per_chunk_and_power(self, book, calls, workers):
        samples = 2 * _CHUNK + 5  # three chunks, the last one short
        P_grid = [10.0, 100.0]
        ser_rate_sweep(self.coded_specs(book), P_grid, samples, RngStream(48), workers=workers)
        assert len(calls) == 3 * len(P_grid)
        assert sorted(calls) == sorted([_CHUNK, _CHUNK, 5] * len(P_grid))

    def test_paired_compare_shares_too(self, book, calls):
        flq, vlq, _ = self.coded_specs(book)
        paired_compare(vlq, flq, 100.0, _CHUNK + 1, RngStream(49), conditioning="radial")
        assert len(calls) == 2

    def test_sharing_does_not_change_records(self, book):
        specs = [FullCsitBeamforming(2)] + self.coded_specs(book)
        for conditioning in ("radial", "none"):
            together = ser_rate_sweep(specs, [10.0], 20000, RngStream(50), conditioning=conditioning)
            alone = [
                ser_rate_sweep([spec], [10.0], 20000, RngStream(50), conditioning=conditioning)[0]
                for spec in specs
            ]
            assert together == alone


class TestPrecodingKernel:
    def test_sweep_runs_no_adaptive_quadrature(self, book, monkeypatch):
        calls = []
        original = estimate.integrate_gamma_weighted

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimate, "integrate_gamma_weighted", counted)
        specs = TestSharedCorrelation.coded_specs(book)
        recs = ser_rate_sweep(specs, [10.0, 1e3, 1e5], 5000, RngStream(60), workers=2)
        assert len(recs) == 9
        assert calls == []

    def test_table_matches_kernel_on_covered_draws(self):
        for t, delta in ((2, 0.2), (2, 0.9), (4, 0.3)):
            book = build_covering_codebook(t, delta, RngStream(42, 7), stop_streak=400)
            spec = VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(book)))
            H = sample_channels(RngStream(61), t, 4000)
            Hbar = H / np.linalg.norm(H, axis=1, keepdims=True)
            for P in (10.0, 1e3, 1e5, 1e7):
                ser, _, _ = spec.conditioned(Hbar, P)
                s = book.correlation_stats(Hbar)[0] * P
                x0 = spec.spec.threshold / P
                want = np.maximum(bpsk_mrc_ser(t, s) - gamma_weighted_q_tail(t, s, x0), 0.0)
                want += gamma_weighted_q_tail(t, P / t, x0)
                # 24-node Chebyshev interpolant of log I: measured <= 1.1e-14
                assert np.max(np.abs(ser / want - 1.0)) <= 1e-11

    def test_uncovered_draws_are_exact_not_clipped(self, book):
        # a delta-cover with codewords removed leaves directions whose best
        # correlation is below 1 - delta; clipping it up would be optimistic
        holed = BeamformingCodebook(vectors=book.vectors[:3], delta=book.delta)
        spec = VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(holed)))
        H = sample_channels(RngStream(62), 2, 4000)
        Hbar = H / np.linalg.norm(H, axis=1, keepdims=True)
        c_max = holed.correlation_stats(Hbar)[0]
        low = c_max < 1.0 - holed.delta
        assert 100 <= np.count_nonzero(low) < len(Hbar)
        P = 100.0
        x0 = spec.spec.threshold / P
        ser, _, _ = spec.conditioned(Hbar, P)
        short = gamma_weighted_q_tail(2, P / 2.0, x0)
        s = c_max[low] * P
        exact = bpsk_mrc_ser(2, s) - gamma_weighted_q_tail(2, s, x0) + short
        assert np.max(np.abs(ser[low] / exact - 1.0)) <= 1e-14
        s_clip = (1.0 - holed.delta) * P
        clipped = bpsk_mrc_ser(2, s_clip) - gamma_weighted_q_tail(2, s_clip, x0) + short
        assert np.all(ser[low] > clipped)


class TestSingletonCodebook:
    def test_flq_charges_no_bits(self):
        book = BeamformingCodebook(vectors=np.array([[1.0 + 0.0j]]), delta=0.5)
        spec = FixedLengthBeamforming(book)
        assert spec.bits == 0
        H = sample_channels(RngStream(63), 1, 50)
        _, bits = spec.snr_bits(H, 10.0)
        assert np.all(bits == 0.0)
        for conditioning in ("radial", "none"):
            (rec,) = ser_rate_sweep([spec], [10.0], 1000, RngStream(64), conditioning=conditioning)
            assert rec.rate == 0.0 and rec.rate_stderr == 0.0


class TestPairedCompare:
    def test_self_comparison(self, book):
        spec = FixedLengthBeamforming(book)
        gap, se, frac, worst = paired_compare(spec, spec, 10.0, 20000, RngStream(42))
        assert gap == 0.0 and frac == 1.0 and worst == 0.0

    def test_nothing_beats_full_csit(self, all_specs):
        full = all_specs[0]
        for spec in all_specs[1:]:
            _, _, frac, worst = paired_compare(spec, full, 10.0, 50000, RngStream(43))
            assert frac == 1.0
            assert worst == 0.0

    def test_vlq_flq_gap_within_power_slack(self, book):
        # the variable-length scheme only loses on the branch where every
        # codeword is already strong, so the mean penalty is below P^-(t+1)
        P = 100.0
        flq = FixedLengthBeamforming(book)
        vlq = VariableLengthBeamforming(VlqBeamformingSpec(book))
        gap, se, frac, worst = paired_compare(vlq, flq, P, 400000, RngStream(44))
        assert gap >= -3.0 * se
        assert gap <= P ** (-3) + 3.0 * se

    def test_mismatched_antennas_rejected(self, book):
        with pytest.raises(ValueError):
            paired_compare(FullCsitBeamforming(2), FullCsitBeamforming(3), 1.0, 10, RngStream(1))


class TestCoveredLossBounds:
    def test_pathwise_covered_ser_bound(self, book):
        # conditional SER of the quantized beamformer never exceeds the
        # (1-delta)-degraded full-CSIT error on any draw
        P = 10.0
        H = sample_channels(RngStream(45), 2, 100000)
        spec = FixedLengthBeamforming(book)
        snr, _ = spec.snr_bits(H, P)
        degraded = (1.0 - book.delta) * np.sum(np.abs(H) ** 2, axis=1) * P
        assert np.all(q_function(np.sqrt(2.0 * snr)) <= q_function(np.sqrt(2.0 * degraded)) + 1e-18)

    def test_average_ratio_bound(self, book):
        for P in (10.0, 100.0):
            (rec,) = ser_rate_sweep([FixedLengthBeamforming(book)], [P], 200000, RngStream(46))
            full = ser_full_analytic(2, P)
            limit = 1.0 + 2.0 * 2 * book.delta
            assert rec.ser / full <= limit + 3.0 * rec.ser_stderr / full

    def test_precoded_ser_and_rate_bounds(self, book):
        # achievable-region check: degraded-full SER plus the outage term,
        # and the 1/P^t rate overhead
        delta = book.delta
        spec = VariableLengthPrecoding(VlqPrecodingSpec(precoding_codebook(book)))
        for P in (10.0, 100.0):
            (rec,) = ser_rate_sweep([spec], [P], 200000, RngStream(47))
            full = ser_full_analytic(2, P)
            bound = full * (1.0 + 2.0 * 2 * delta) + delta / P**2
            assert rec.ser <= bound + 3.0 * rec.ser_stderr


class TestGains:
    def test_exact_power_law(self):
        recs = [
            SweepRecord("x", P, min(4.0 / P**2, 0.5), 0.0, 0.0, 0.0, 1, 0)
            for P in (100.0, 1000.0, 1e4, 1e5)
        ]
        g = estimate_gains(recs, top_decades=3)
        assert g.diversity == pytest.approx(2.0, abs=1e-9)
        assert g.array_gain == pytest.approx(0.25, rel=1e-9)

    def test_quadrature_diversity(self):
        recs = [
            SweepRecord("bf-full", P, ser_full_analytic(2, P), 0.0, 0.0, 0.0, 1, 0)
            for P in np.geomspace(1e3, 1e5, 5)
        ]
        g = estimate_gains(recs, top_decades=2)
        assert abs(g.diversity - 2.0) <= 0.1

    def test_open_loop_gain_below_full(self):
        grid = np.geomspace(1e3, 1e5, 5)
        full = [SweepRecord("bf-full", P, ser_full_analytic(2, P), 0, 0, 0, 1, 0) for P in grid]
        openl = [
            SweepRecord("open-loop", P, ser_full_analytic(2, P / 2.0), 0, 0, 0, 1, 0)
            for P in grid
        ]
        gf = estimate_gains(full, top_decades=2)
        go = estimate_gains(openl, top_decades=2)
        assert abs(go.diversity - 2.0) <= 0.1
        assert go.array_gain < gf.array_gain

    def test_insufficient_span_rejected(self):
        recs = [SweepRecord("x", P, 0.1 / P, 0, 0, 0, 1, 0) for P in (1.0, 2.0, 4.0)]
        with pytest.raises(ValueError):
            estimate_gains(recs, top_decades=2)
