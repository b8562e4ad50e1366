"""Semi-analytic estimator: unbiasedness, bounds, determinism, comparisons."""

import hashlib
import math
import os
import pickle
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vlqsim import codebook, estimate
from vlqsim.channel import RngStream, _block_width, sample_channels, sample_directions
from vlqsim.codebook import BeamformingCodebook, _lift, build_covering_codebook
from vlqsim.estimate import (
    _BookStats,
    _CHUNK,
    FixedLengthBeamforming,
    FullCsitBeamforming,
    FullCsitPrecoding,
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
from vlqsim.numerics import bpsk_mrc_ser, gamma_tail, gamma_weighted_q_tail, q_function


def random_book(t, size, delta):
    """``size`` random unit-norm codewords in C^t, seeded by t."""
    gen = np.random.default_rng(t)
    v = gen.standard_normal((size, t)) + 1j * gen.standard_normal((size, t))
    return BeamformingCodebook(v / np.linalg.norm(v, axis=1, keepdims=True), delta)


@pytest.fixture(scope="module")
def book():
    return build_covering_codebook(2, 0.2, RngStream(42, 7), stop_streak=400)


@pytest.fixture(scope="module")
def all_specs(book):
    return [
        FullCsitBeamforming(2),
        FixedLengthBeamforming(book),
        VariableLengthBeamforming(book),
        FullCsitPrecoding(2),
        OpenLoopPrecoding(2),
        VariableLengthPrecoding(book),
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

    def test_constant_rates_have_zero_stderr(self, all_specs):
        # every radial rate but bf-vlq's is exact and constant per direction,
        # so its moments are taken in closed form, with no rounding noise
        grid = [3.0, 1e2, 1e4]
        recs = ser_rate_sweep(all_specs, grid, 2 * _CHUNK + 7, RngStream(40), workers=2)
        constant = [rec for rec in recs if rec.quantizer_id != "bf-vlq"]
        assert len(constant) == 5 * len(grid)
        assert all(rec.rate_stderr == 0.0 for rec in constant)
        pc = all_specs[-1]
        for rec in constant:
            if rec.quantizer_id == "pc-vlq":
                want = 1.0 + pc.bits * (1.0 - gamma_tail(2, 2 / (pc.codebook.delta * rec.P)))
                assert abs(rec.rate - want) <= math.ulp(want), rec

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
        spec = VariableLengthPrecoding(book)
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

    def test_rejects_bad_arguments(self, all_specs, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started")

        # every check runs before any prepare, thread pool or draw
        monkeypatch.setattr(estimate, "_pool", refuse)
        monkeypatch.setattr(estimate, "direction_blocks", refuse)
        with pytest.raises(ValueError):
            ser_rate_sweep(all_specs, [], 10, RngStream(1))
        for samples in (0, 10**10 + 1):
            with pytest.raises(ValueError, match=r"samples must be in \[1, 10\^10\]"):
                ser_rate_sweep(all_specs, [1.0], samples, RngStream(1))
        with pytest.raises(ValueError):
            ser_rate_sweep(all_specs, [1.0], 10, RngStream(1), conditioning="x")
        with pytest.raises(ValueError):
            ser_rate_sweep(
                [FullCsitBeamforming(2), FullCsitBeamforming(3)], [1.0], 10, RngStream(1)
            )
        for workers in (0, -3, 1025):
            with pytest.raises(ValueError, match=r"workers must be in \[1, 1024\]"):
                ser_rate_sweep(all_specs, [1.0], 10, RngStream(1), workers=workers)

    def test_bf_vlq_needs_power_above_one(self, book, monkeypatch):
        # beta needs P > 1 in both modes; a sweep or compare says so before
        # it draws, not from a worker thread mid-sweep
        def refuse(*args):
            raise AssertionError("drew before the grid was checked")

        monkeypatch.setattr(estimate, "direction_blocks", refuse)
        vlq = VariableLengthBeamforming(book)
        flq = FixedLengthBeamforming(book)
        for conditioning in ("radial", "none"):
            for P in (0.5, 1.0):
                with pytest.raises(ValueError, match="P must be > 1"):
                    ser_rate_sweep([vlq], [P], 10, RngStream(1), conditioning=conditioning)
                with pytest.raises(ValueError, match="P must be > 1"):
                    paired_compare(vlq, flq, [10.0, P], 10, RngStream(1), conditioning=conditioning)

    @pytest.mark.parametrize("grid", [[math.nan], [math.inf], [1.0, math.nan]])
    def test_rejects_non_finite_power(self, all_specs, monkeypatch, grid):
        # a NaN passes a bare min(grid) <= 0 check, and neither NaN nor inf
        # may reach a spec's prepare or a draw
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(estimate, "direction_blocks", refuse)
        for spec in all_specs:
            monkeypatch.setattr(type(spec), "prepare", refuse)
        full, flq, vlq, _, _, pc = all_specs
        message = "P grid must be nonempty, finite and positive"
        with pytest.raises(ValueError, match=message):
            ser_rate_sweep(all_specs, grid, 10**6, RngStream(1))
        for a, b in ((vlq, flq), (pc, full)):
            with pytest.raises(ValueError, match=message):
                paired_compare(a, b, grid, 10**6, RngStream(1))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord("x", 1.0, 0.7, 0.0, 0.0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            SweepRecord("x", 1.0, 0.1, -1.0, 0.0, 0.0, 1, 0)

    @pytest.mark.parametrize("P", [0.0, -5.0, math.nan, math.inf])
    def test_record_rejects_power_not_finite_and_positive(self, P):
        with pytest.raises(ValueError, match="P .* must be finite and > 0"):
            SweepRecord("x", P, 0.1, 0.0, 1.0, 0.0, 1, 0)

    @pytest.mark.parametrize("field", [3, 4, 5])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_record_rejects_non_finite_stderr_and_rate(self, field, value):
        # NaN passes an "is negative" test, so finiteness is checked apart
        args = ["x", 1.0, 0.1, 0.0, 1.0, 0.0, 1, 0]
        args[field] = value
        with pytest.raises(ValueError, match="must be finite"):
            SweepRecord(*args)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self, all_specs):
        base = ser_rate_sweep(all_specs, [3.0, 30.0], 150000, RngStream(40), workers=1)
        for workers in (4, 16, None):
            again = ser_rate_sweep(all_specs, [3.0, 30.0], 150000, RngStream(40), workers=workers)
            assert again == base

    def test_default_workers_are_the_usable_cpus_up_to_the_chunks(self, all_specs, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert estimate._usable_cpus() == len(os.sched_getaffinity(0))
        pools = []
        pool = estimate._pool
        monkeypatch.setattr(estimate, "_pool", lambda workers: pools.append(workers) or pool(workers))
        monkeypatch.setattr(estimate, "_usable_cpus", lambda: 5)
        for chunks in (3, 8):
            ser_rate_sweep(all_specs[:1], [3.0], (chunks - 1) * _CHUNK + 1, RngStream(42))
        assert pools == [3, 5]

    def test_sweeps_reuse_their_threads(self, all_specs, monkeypatch):
        # new threads per sweep took new malloc arenas and made peak RSS vary
        threads = []
        sample = estimate.direction_blocks

        def recorded(stream, t, n):
            threads.append(threading.current_thread().name)
            return sample(stream, t, n)

        monkeypatch.setattr(estimate, "direction_blocks", recorded)
        ser_rate_sweep(all_specs, [3.0], 4 * _CHUNK, RngStream(43), workers=2)
        first = set(threads)
        threads.clear()
        ser_rate_sweep(all_specs, [3.0], 4 * _CHUNK, RngStream(43), workers=2)
        assert set(threads) <= first and threading.current_thread().name not in first

    def test_one_worker_runs_off_the_main_thread(self, all_specs, monkeypatch):
        # on the main thread glibc trims the heap top after every chunk, and
        # the next chunk faults those pages back in
        threads = []
        sample = estimate.direction_blocks

        def recorded(stream, t, n):
            threads.append(threading.current_thread())
            return sample(stream, t, n)

        monkeypatch.setattr(estimate, "direction_blocks", recorded)
        grid, samples = [3.0, 300.0], 2 * _CHUNK + 7  # three chunks
        pooled = ser_rate_sweep(all_specs, grid, samples, RngStream(44), workers=1)
        assert len(threads) == 3 and len(set(threads)) == 1
        assert threads[0] is not threading.main_thread()

        class InTurn:  # the chunks one after another on the calling thread
            map = staticmethod(map)

        threads.clear()
        monkeypatch.setattr(estimate, "_pool", lambda workers: InTurn)
        in_turn = ser_rate_sweep(all_specs, grid, samples, RngStream(44), workers=1)
        assert set(threads) == {threading.main_thread()}
        assert pooled == in_turn

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
        # draws per run of the one GEMM-and-reduce loop, which
        # max_correlation_sq (complex rows), lifted_stats (lifts) and the
        # greedy build's filter call
        calls = []
        original = codebook._reduce

        def counted(weights, n, *args):
            calls.append(n)
            return original(weights, n, *args)

        monkeypatch.setattr(codebook, "_reduce", counted)
        return calls

    @staticmethod
    def coded_specs(book):
        return [
            FixedLengthBeamforming(book),
            VariableLengthBeamforming(book),
            VariableLengthPrecoding(book),
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_once_per_chunk(self, book, calls, monkeypatch, workers):
        # the draws and their correlation do not depend on P, so a chunk is
        # sampled and correlated once for the whole grid, in either mode by
        # the one direction sampler
        samples = 2 * _CHUNK + 5  # three chunks, the last one short
        P_grid = [10.0, 100.0]
        original = estimate.direction_blocks
        for conditioning in ("radial", "none"):
            sampled = []

            def counted(stream, t, n, sampled=sampled):
                sampled.append(n)
                return original(stream, t, n)

            monkeypatch.setattr(estimate, "direction_blocks", counted)
            calls.clear()
            ser_rate_sweep(
                self.coded_specs(book), P_grid, samples, RngStream(48),
                workers=workers, conditioning=conditioning,
            )
            assert sorted(calls) == sorted(sampled) == [5, _CHUNK, _CHUNK]

    def test_paired_compare_shares_too(self, book, calls):
        # one correlation per chunk for the whole grid
        flq, vlq, _ = self.coded_specs(book)
        paired_compare(
            vlq, flq, [100.0, 1e3, 1e4], _CHUNK + 1, RngStream(49), conditioning="radial"
        )
        assert len(calls) == 2

    def test_build_and_certificate_read_the_max_alone(self, monkeypatch):
        # the build's filter, the certificate and its refinement ask the
        # kernel for no min and no column 0; a radial sweep asks for the min
        stats = []
        original = codebook._reduce

        def spied(weights, n, block, c_max, c_min=None, c_first=None):
            stats.append((c_min, c_first))
            return original(weights, n, block, c_max, c_min, c_first)

        monkeypatch.setattr(codebook, "_reduce", spied)
        book = build_covering_codebook(2, 0.3, RngStream(7), stop_streak=200)
        assert len(stats) > 2
        assert all(c_min is None and c_first is None for c_min, c_first in stats)
        stats.clear()
        ser_rate_sweep(self.coded_specs(book), [10.0], 1000, RngStream(7), conditioning="radial")
        assert stats and all(isinstance(c_min, np.ndarray) for c_min, _ in stats)

    def test_sharing_does_not_change_records(self, book):
        specs = [FullCsitBeamforming(2)] + self.coded_specs(book)
        for conditioning in ("radial", "none"):
            together = ser_rate_sweep(specs, [10.0], 20000, RngStream(50), conditioning=conditioning)
            alone = [
                ser_rate_sweep([spec], [10.0], 20000, RngStream(50), conditioning=conditioning)[0]
                for spec in specs
            ]
            assert together == alone

    def test_feedback_free_sweeps_draw_no_direction(self, all_specs, monkeypatch):
        # full CSIT and open loop read no codeword correlation: alone, they
        # draw no direction and keep the records they have next to coded specs
        free = [spec for spec in all_specs if spec.codebook is None]
        ids = {spec.quantizer_id for spec in free}
        grid, samples = [10.0, 1e3], _CHUNK + 5
        together = {
            conditioning: [
                rec for rec in ser_rate_sweep(
                    all_specs, grid, samples, RngStream(55), conditioning=conditioning
                ) if rec.quantizer_id in ids
            ] for conditioning in ("radial", "none")
        }

        def refuse(*args):
            raise AssertionError("drew directions")

        monkeypatch.setattr(estimate, "direction_blocks", refuse)
        for conditioning, want in together.items():
            alone = ser_rate_sweep(free, grid, samples, RngStream(55), conditioning=conditioning)
            assert len(alone) == len(free) * len(grid) and alone == want


class TestGridSharing:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("conditioning", ["radial", "none"])
    def test_point_does_not_depend_on_the_grid(self, book, conditioning, workers):
        specs = [FullCsitBeamforming(2)] + TestSharedCorrelation.coded_specs(book)
        grid = [3.0, 30.0, 300.0]
        samples = _CHUNK + 3
        swept = ser_rate_sweep(
            specs, grid, samples, RngStream(51), workers=workers, conditioning=conditioning
        )
        for i, P in enumerate(grid):
            alone = ser_rate_sweep(
                specs, [P], samples, RngStream(51), workers=workers, conditioning=conditioning
            )
            assert swept[i * len(specs) : (i + 1) * len(specs)] == alone

    def test_peak_memory_does_not_grow_with_the_grid(self, book):
        # one grid point's per-draw arrays are live at a time
        specs = TestSharedCorrelation.coded_specs(book)
        samples = _CHUNK + 1000

        def peak(grid):
            tracemalloc.start()
            try:
                ser_rate_sweep(specs, grid, samples, RngStream(52), workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak([10.0])
        many = peak(list(np.geomspace(10.0, 1e6, 9)))
        assert many <= 1.1 * one

    @staticmethod
    def sweep_peak(specs, samples, seed):
        """The tracemalloc peak of a radial sweep on two workers."""
        tracemalloc.start()
        try:
            ser_rate_sweep(specs, [1e2, 1e3, 1e4], samples, RngStream(seed), workers=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_a_lifted_sweep(self):
        # the benchmark's t=4 book (|B| = 239) on two workers: each holds one
        # 8 192-draw block of its chunk's lift (1 MiB), the chunk's max and
        # min (no column 0 in radial mode) and a cache-sized GEMM block,
        # about 4.3 MB in all; with 2 MiB blocks and column 0 the sweep
        # peaked at about 6.8 MB, with whole-chunk lifts at about 11 MB
        book = build_covering_codebook(4, 0.3, RngStream(0, 101), stop_streak=400)
        specs = TestSharedCorrelation.coded_specs(book)
        assert self.sweep_peak(specs, 4 * _CHUNK, 53) < 5.5e6

    def test_peak_memory_of_a_t8_sweep(self):
        # at t = 8 a whole chunk's lift is 16.8 MB, and two workers held
        # about 35 MB; blocks of 4 096 draws are 2 MiB each
        specs = TestSharedCorrelation.coded_specs(random_book(8, 8, 0.9))
        assert self.sweep_peak(specs, 2 * _CHUNK, 54) < 8e6


class TestDirectionSampler:
    """Radial sweeps draw directions with ``channel.direction_blocks`` and
    share the MRC SER of c_max P / r across specs."""

    @staticmethod
    def normalised_channels(stream, t, n):
        # the whole chunk as one block
        H = sample_channels(stream, t, n)
        yield 0, _lift(H / np.linalg.norm(H, axis=1, keepdims=True))

    @pytest.mark.parametrize("t, delta, samples", [(2, 0.2, 1 << 18), (4, 0.3, 1 << 17)])
    def test_agrees_with_normalised_channels(self, monkeypatch, t, delta, samples):
        # the books the benchmark sweeps (|B| = 12 and 239); independent
        # seeds, so the two estimates differ by sampling noise only
        book = build_covering_codebook(t, delta, RngStream(0, 101), stop_streak=400)
        specs = TestSharedCorrelation.coded_specs(book)
        grid = [1e2, 1e3, 1e4]
        new = ser_rate_sweep(specs, grid, samples, RngStream(70))
        drawn = []

        def normalised(stream, t, n):
            drawn.append(n)
            return self.normalised_channels(stream, t, n)

        monkeypatch.setattr(estimate, "direction_blocks", normalised)
        old = ser_rate_sweep(specs, grid, samples, RngStream(71))
        assert sum(drawn) == samples
        for a, b in zip(new, old):
            assert (a.quantizer_id, a.P) == (b.quantizer_id, b.P)
            assert abs(a.ser - b.ser) <= 5.0 * math.hypot(a.ser_stderr, b.ser_stderr), (a, b)
            assert abs(a.rate - b.rate) <= 5.0 * math.hypot(a.rate_stderr, b.rate_stderr), (a, b)

    @pytest.mark.parametrize("t, size", [(2, 12), (3, 51), (4, 239)])
    def test_blocks_change_no_bit(self, t, size):
        # a chunk correlated one block at a time has the stats of its whole
        # lift, and sample_directions is that lift; column 0 is read, and
        # so kept, in plain mode only
        book = random_book(t, size, 0.5)
        n = 2 * _block_width(t) + 5
        stream = RngStream(78)
        want = book.lifted_stats(sample_directions(stream.child(0, 3), t, n))
        for conditioning in ("radial", "none"):
            _, stats = estimate._draws([FixedLengthBeamforming(book)], stream, 3, n, conditioning)
            got = stats[id(book)]
            assert np.array_equal(got.c_max, want[0]) and np.array_equal(got.c_min, want[1])
            if conditioning == "radial":
                assert got.c_first is None
            else:
                assert np.array_equal(got.c_first, want[2])

    def test_t2_sweep_bytes_are_pinned(self, book, tmp_path):
        # at t = 2 a chunk is one block, drawn in the order of the
        # whole-chunk lift that blocks replaced: that sampler's bytes
        recs = ser_rate_sweep(
            TestSharedCorrelation.coded_specs(book), [10.0, 1e3], 2 * _CHUNK + 5, RngStream(80)
        )
        write_records_csv(recs, tmp_path / "t2.csv")
        digest = hashlib.sha256((tmp_path / "t2.csv").read_bytes()).hexdigest()
        assert digest == "dd66f771ad60f3516e8cc1f99f8fa4d246cb6fd0cb29f3ef652b8fdec355373c"

    def test_csv_bytes_do_not_depend_on_workers(self, tmp_path, all_specs):
        samples = 2 * _CHUNK + 11  # three chunks
        paths = []
        for workers in (1, 3):
            recs = ser_rate_sweep(all_specs, [3.0, 300.0], samples, RngStream(72), workers=workers)
            paths.append(tmp_path / f"w{workers}.csv")
            write_records_csv(recs, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_shared_stats_change_no_bit(self, book, monkeypatch):
        half = Fraction(1, 2)
        specs = TestSharedCorrelation.coded_specs(book) + [
            VariableLengthPrecoding(book, r=half)
        ]
        n = 5000
        _, stats = estimate._draws(specs, RngStream(73), 0, n, "radial")
        lifted = sample_directions(RngStream(73).child(0, 0), 2, n)
        calls = []
        original = estimate.bpsk_mrc_ser

        def counted(t, snr):
            calls.append(np.size(snr))
            return original(t, snr)

        grid = [10.0, 1e3]
        for P in grid:
            prepared = [spec.prepare(P) for spec in specs]
            alone = [
                spec.conditioned(n, _BookStats(book, book.lifted_stats(lifted)), P, values)
                for spec, values in zip(specs, prepared)
            ]
            monkeypatch.setattr(estimate, "bpsk_mrc_ser", counted)
            shared = [
                spec.conditioned(n, stats[id(book)], P, values)
                for spec, values in zip(specs, prepared)
            ]
            monkeypatch.setattr(estimate, "bpsk_mrc_ser", original)
            for (ser_a, rate_a, hw_a), (ser_s, rate_s, hw_s) in zip(alone, shared):
                assert np.array_equal(ser_a, ser_s) and np.array_equal(rate_a, rate_s)
                assert hw_a == hw_s
            # r = 1/2 reads its own value, not the r = 1 one
            assert not np.array_equal(shared[2][0], shared[3][0])
        # one array per (P, r): r = 1 for bf-flq, bf-vlq and pc-vlq, and r = 1/2
        assert calls == [n] * 2 * len(grid)


class TestChunkState:
    """What a chunk computes once, and how: per P for the whole sweep, per
    t for every chunk, and per stats object without a lock."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_bf_vlq_gap_once_per_power(self, book, monkeypatch, workers):
        # beta and Q(sqrt(2 beta)) depend on P alone; three chunks would
        # evaluate the gap three times per P
        calls = []
        original = estimate.q_function

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(estimate, "q_function", counted)
        grid = [10.0, 1e3, 1e5]
        vlq = VariableLengthBeamforming(book)
        ser_rate_sweep([vlq], grid, 2 * _CHUNK + 9, RngStream(67), workers=workers)
        assert sorted(calls) == sorted(math.sqrt(2.0 * vlq.beta(P)) for P in grid)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_feedback_free_ser_once_per_power(self, monkeypatch, workers):
        # the full-CSIT and open-loop SER depends on P alone; three chunks
        # would evaluate it three times per (spec, P)
        calls = []
        original = estimate.bpsk_mrc_ser

        def counted(t, snr):
            calls.append(snr)
            return original(t, snr)

        monkeypatch.setattr(estimate, "bpsk_mrc_ser", counted)
        specs = [FullCsitBeamforming(2), FullCsitPrecoding(2), OpenLoopPrecoding(2)]
        grid = [10.0, 1e3, 1e5]
        ser_rate_sweep(specs, grid, 2 * _CHUNK + 5, RngStream(68), workers=workers)
        assert sorted(calls) == sorted(P / spec.divisor for spec in specs for P in grid)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_scheme_is_prepared_once_before_any_draw(
        self, all_specs, monkeypatch, workers
    ):
        events = []
        for cls in {type(spec) for spec in all_specs}:

            def counted(spec, P, original=cls.prepare):
                events.append((id(spec), P))
                return original(spec, P)

            monkeypatch.setattr(cls, "prepare", counted)
        draw = estimate.direction_blocks
        monkeypatch.setattr(
            estimate, "direction_blocks", lambda *args: events.append("draw") or draw(*args)
        )
        grid = [10.0, 1e3]
        runs = [
            (all_specs, lambda: ser_rate_sweep(
                all_specs, grid, 2 * _CHUNK + 5, RngStream(76), workers=workers)),
            (all_specs[1:3], lambda: paired_compare(
                *all_specs[1:3], grid, 2 * _CHUNK + 5, RngStream(76))),
        ]
        for specs, run in runs:
            events.clear()
            run()
            # one per (spec, P), then the three chunks' draws
            prepared = events[: len(specs) * len(grid)]
            assert sorted(prepared) == sorted((id(spec), P) for spec in specs for P in grid)
            assert events[len(prepared):] == ["draw"] * 3

    @pytest.mark.parametrize("conditioning", ["radial", "none"])
    def test_sweep_leaves_the_schemes_unchanged(self, all_specs, conditioning):
        # a scheme holds no per-P state: no attribute is added, rebound or
        # changed in place by a sweep on several threads
        before = [(dict(vars(spec)), pickle.dumps(vars(spec))) for spec in all_specs]
        ser_rate_sweep(
            all_specs, [3.0, 300.0], 2 * _CHUNK + 5, RngStream(78), workers=3,
            conditioning=conditioning,
        )
        for spec, (attrs, state) in zip(all_specs, before):
            assert vars(spec).keys() == attrs.keys(), spec.quantizer_id
            assert all(vars(spec)[key] is value for key, value in attrs.items())
            assert pickle.dumps(vars(spec)) == state, spec.quantizer_id

    def test_stats_compute_their_abscissae_concurrently(self, book):
        # up to Python 3.11 a functools.cached_property holds one lock per
        # class while it computes, so two workers' chunks would take turns:
        # the first would wait at the barrier for a second that cannot enter
        barrier = threading.Barrier(2, timeout=5.0)

        class Meeting(float):
            # 1 - delta is formed inside the computation of cheb_x
            def __rsub__(self, other):
                barrier.wait()
                return float(other) - float(self)

        lifted = sample_directions(RngStream(74), 2, 100)
        stats = [_BookStats(book, book.lifted_stats(lifted)) for _ in range(2)]
        for one in stats:
            one.delta = Meeting(book.delta)
        results, errors = [None, None], []

        def compute(i):
            try:
                results[i] = stats[i].cheb_x
            except threading.BrokenBarrierError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=compute, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        expected = _BookStats(book, book.lifted_stats(lifted)).cheb_x
        assert all(np.array_equal(x, expected) for x in results)

    def test_moments_bit_for_bit(self):
        # the ufunc's reduce and an in-place square keep the arithmetic of
        # the allocating formula below
        def formula(v):
            total = float(np.sum(v))
            return len(v), total, float(np.sum((v - total / len(v)) ** 2))

        gen = np.random.default_rng(82)
        for n in (1, 2, 7, 64, 129, 4097, _CHUNK):
            for v in (
                gen.uniform(size=n),
                10.0 ** gen.uniform(-300.0, 0.0, n),
                np.full(n, 0.1),
                gen.normal(size=n) * 1e-3,
            ):
                assert estimate._moments(v) == formula(v)


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
            spec = VariableLengthPrecoding(book)
            H = sample_channels(RngStream(61), t, 4000)
            Hbar = H / np.linalg.norm(H, axis=1, keepdims=True)
            stats = _BookStats(book, book.lifted_stats(_lift(Hbar)))
            for P in (10.0, 1e3, 1e5, 1e7):
                ser, _, _ = spec.conditioned(len(Hbar), stats, P, spec.prepare(P))
                s = book.max_correlation_sq(Hbar) * P
                x0 = spec.threshold / P
                want = np.maximum(bpsk_mrc_ser(t, s) - gamma_weighted_q_tail(t, s, x0), 0.0)
                want += gamma_weighted_q_tail(t, P / t, x0)
                # 24-node Chebyshev interpolant of log I: measured <= 1.1e-14
                assert np.max(np.abs(ser / want - 1.0)) <= 1e-11

    def test_table_is_built_once_per_spec_and_power(self, book, monkeypatch, tmp_path):
        calls = []
        original = VariableLengthPrecoding.prepare

        def counted(spec, P):
            calls.append((id(spec), P))
            return original(spec, P)

        monkeypatch.setattr(VariableLengthPrecoding, "prepare", counted)
        grid = [10.0, 1e3, 1e5]
        paths = []
        for workers in (1, 3):
            pc = [
                VariableLengthPrecoding(book, r=r)
                for r in (Fraction(1), Fraction(1, 2))
            ]
            specs = TestSharedCorrelation.coded_specs(book)[:2] + pc
            calls.clear()
            # three chunks, so a table per chunk would be three per (spec, P)
            recs = ser_rate_sweep(specs, grid, 2 * _CHUNK + 9, RngStream(63), workers=workers)
            assert sorted(calls) == sorted((id(spec), P) for spec in pc for P in grid)
            paths.append(tmp_path / f"w{workers}.csv")
            write_records_csv(recs, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "t, delta, seed, kept",
        [(2, 0.9, (42, 7), range(24, 25)), (2, 0.2, (0, 101), range(2, 12)),
         (4, 0.3, (0, 101), range(2, 12))],
    )
    def test_series_is_cut_where_the_ser_stops_changing(self, monkeypatch, t, delta, seed, kept):
        # delta = 0.9 leaves I ~ F, so SER << I and every coefficient counts;
        # at the benchmark's books the trailing ones are below what the SER sees
        book = build_covering_codebook(t, delta, RngStream(*seed), stop_streak=400)
        spec = VariableLengthPrecoding(book)
        fits = []
        fit = estimate.chebfit

        def recorded(*args):
            fits.append(fit(*args))
            return fits[-1]

        monkeypatch.setattr(estimate, "chebfit", recorded)
        _, stats = estimate._draws([spec], RngStream(64), 0, 20000, "radial")
        corr = stats[id(book)]
        for P in (1e2, 1e3, 1e4):
            cut, short, rate = spec.prepare(P)
            full = fits[-1]
            assert len(full) == 24 and np.array_equal(cut, full[: len(cut)])
            assert len(cut) in kept
            ser_cut, _, _ = spec.conditioned(20000, corr, P, (cut, short, rate))
            ser_full, _, _ = spec.conditioned(20000, corr, P, (full, short, rate))
            assert np.max(np.abs(ser_cut / ser_full - 1.0)) <= 4.0 * np.finfo(float).eps

    def test_uncovered_draws_are_exact_not_clipped(self, book):
        # a delta-cover with codewords removed leaves directions whose best
        # correlation is below 1 - delta; clipping it up would be optimistic
        holed = BeamformingCodebook(vectors=book.vectors[:3], delta=book.delta)
        spec = VariableLengthPrecoding(holed)
        H = sample_channels(RngStream(62), 2, 4000)
        Hbar = H / np.linalg.norm(H, axis=1, keepdims=True)
        c_max = holed.max_correlation_sq(Hbar)
        low = c_max < 1.0 - holed.delta
        assert 100 <= np.count_nonzero(low) < len(Hbar)
        P = 100.0
        x0 = spec.threshold / P
        stats = _BookStats(holed, holed.lifted_stats(_lift(Hbar)))
        ser, _, _ = spec.conditioned(len(Hbar), stats, P, spec.prepare(P))
        short = gamma_weighted_q_tail(2, P / 2.0, x0)
        s = c_max[low] * P
        exact = bpsk_mrc_ser(2, s) - gamma_weighted_q_tail(2, s, x0) + short
        assert np.max(np.abs(ser[low] / exact - 1.0)) <= 1e-14
        s_clip = (1.0 - holed.delta) * P
        clipped = bpsk_mrc_ser(2, s_clip) - gamma_weighted_q_tail(2, s_clip, x0) + short
        assert np.all(ser[low] > clipped)


class TestSingletonCodebook:
    def test_flq_charges_no_bits(self, snr_bits):
        book = BeamformingCodebook(vectors=np.array([[1.0 + 0.0j]]), delta=0.5)
        spec = FixedLengthBeamforming(book)
        assert spec.bits == 0
        H = sample_channels(RngStream(63), 1, 50)
        _, bits = snr_bits(spec, H, 10.0)
        assert np.all(bits == 0.0)
        for conditioning in ("radial", "none"):
            (rec,) = ser_rate_sweep([spec], [10.0], 1000, RngStream(64), conditioning=conditioning)
            assert rec.rate == 0.0 and rec.rate_stderr == 0.0


class TestPairedCompare:
    def test_self_comparison(self, book):
        spec = FixedLengthBeamforming(book)
        ((gap, se, frac, worst),) = paired_compare(spec, spec, [10.0], 20000, RngStream(42))
        assert gap == 0.0 and frac == 1.0 and worst == 0.0

    def test_nothing_beats_full_csit(self, all_specs):
        full = all_specs[0]
        for spec in all_specs[1:]:
            ((_, _, frac, worst),) = paired_compare(spec, full, [10.0], 50000, RngStream(43))
            assert frac == 1.0
            assert worst == 0.0

    def test_vlq_flq_gap_within_power_slack(self, book):
        # the variable-length scheme only loses on the branch where every
        # codeword is already strong, so the mean penalty is below P^-(t+1)
        P = 100.0
        flq = FixedLengthBeamforming(book)
        vlq = VariableLengthBeamforming(book)
        ((gap, se, frac, worst),) = paired_compare(vlq, flq, [P], 400000, RngStream(44))
        assert gap >= -3.0 * se
        assert gap <= P ** (-3) + 3.0 * se

    def test_mismatched_antennas_rejected(self, book):
        with pytest.raises(ValueError):
            paired_compare(FullCsitBeamforming(2), FullCsitBeamforming(3), [1.0], 10, RngStream(1))

    @pytest.mark.parametrize(
        "grid, samples, conditioning, match",
        [
            ([10.0], 10, "radail", "conditioning"),
            ([10.0], 0, "none", "samples"),
            ([-1.0], 10, "none", "P grid"),
            ([10.0, -1.0], 10, "radial", "P grid"),
            ([], 10, "none", "P grid"),
            ([10.0], 10**10 + 1, "radial", "samples"),
        ],
    )
    def test_rejects_bad_arguments(
        self, book, monkeypatch, grid, samples, conditioning, match
    ):
        # the sweep's checks, before any prepare, thread pool or draw: a
        # misspelt mode no longer runs plain mode, and no zero division or
        # sqrt warning gets through
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(estimate, "_pool", refuse)
        monkeypatch.setattr(estimate, "direction_blocks", refuse)
        flq = FixedLengthBeamforming(book)
        with pytest.raises(ValueError, match=match):
            paired_compare(
                flq, FullCsitBeamforming(2), grid, samples, RngStream(1), conditioning=conditioning
            )

    @pytest.mark.parametrize("conditioning", ["radial", "none"])
    def test_grid_point_equals_one_point_call(self, all_specs, conditioning):
        full, flq, vlq, _, _, pc = all_specs
        grid = [3.0, 30.0, 300.0]
        for a, b in ((vlq, flq), (pc, full)):
            def compare(grid, a=a, b=b):
                return paired_compare(
                    a, b, grid, _CHUNK + 3, RngStream(77), conditioning=conditioning
                )

            swept = compare(grid)
            assert len(swept) == len(grid)
            for P, point in zip(grid, swept):
                assert compare([P]) == [point]

    @pytest.mark.parametrize("conditioning", ["radial", "none"])
    def test_runs_on_the_sweep_threads(self, all_specs, monkeypatch, conditioning):
        # three chunks on the default threads: the same result on 1 and 3
        full, flq, vlq, _, _, pc = all_specs
        pools = []
        pool = estimate._pool
        monkeypatch.setattr(estimate, "_pool", lambda workers: pools.append(workers) or pool(workers))
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(estimate, "_usable_cpus", lambda cpus=cpus: cpus)
            results.append(
                [
                    paired_compare(
                        a, b, [3.0, 300.0], 2 * _CHUNK + 11, RngStream(78),
                        conditioning=conditioning,
                    )
                    for a, b in ((vlq, flq), (pc, full))
                ]
            )
        # one CPU runs its one worker on the pool as well
        assert pools == [1, 1, 3, 3]
        assert results[0] == results[1]


class TestPlainDraws:
    """Plain mode draws the radial directions plus an independent
    ||h||^2 ~ Gamma(t, 1) per draw."""

    def test_radial_mode_never_draws_magnitudes(self, all_specs, monkeypatch):
        grid = [3.0, 300.0]
        samples = _CHUNK + 7
        base = ser_rate_sweep(all_specs, grid, samples, RngStream(74))
        compared = paired_compare(
            all_specs[2], all_specs[1], grid, samples, RngStream(74), conditioning="radial"
        )

        def refuse(stream, t, n):
            raise AssertionError("radial mode drew magnitudes")

        monkeypatch.setattr(estimate, "sample_magnitudes", refuse)
        assert ser_rate_sweep(all_specs, grid, samples, RngStream(74)) == base
        again = paired_compare(
            all_specs[2], all_specs[1], grid, samples, RngStream(74), conditioning="radial"
        )
        assert again == compared

    def test_magnitudes_have_their_own_substreams(self, all_specs, monkeypatch):
        streams = {"direction_blocks": [], "sample_magnitudes": []}
        for name, record in streams.items():
            original = getattr(estimate, name)

            def recorded(stream, t, n, original=original, record=record):
                record.append(stream)
                return original(stream, t, n)

            monkeypatch.setattr(estimate, name, recorded)
        ser_rate_sweep(all_specs, [10.0], 2 * _CHUNK + 5, RngStream(75), conditioning="none")
        directions, magnitudes = streams["direction_blocks"], streams["sample_magnitudes"]
        assert len(directions) == len(magnitudes) == 3
        assert len(set(magnitudes)) == 3 and not set(magnitudes) & set(directions)
        first = [s.generator().random(4) for s in directions]
        for stream in magnitudes:
            u = stream.generator().random(4)
            assert not any(np.array_equal(u, v) for v in first)

    def test_plain_sweep_matches_channel_reference(self, all_specs, snr_bits):
        # a per-draw evaluation on CN(0, I) channels; independent seeds, so
        # the two estimates differ by sampling noise only
        grid = [10.0, 100.0]
        n = 200000
        recs = ser_rate_sweep(all_specs, grid, n, RngStream(76), conditioning="none")
        H = sample_channels(RngStream(77), 2, n)
        for rec in recs:
            (spec,) = [s for s in all_specs if s.quantizer_id == rec.quantizer_id]
            snr, bits = snr_bits(spec, H, rec.P)
            ser = q_function(np.sqrt(2.0 * snr))
            ser_tol = 5.0 * math.hypot(rec.ser_stderr, np.std(ser) / math.sqrt(n)) + 1e-12
            rate_tol = 5.0 * math.hypot(rec.rate_stderr, np.std(bits) / math.sqrt(n)) + 1e-9
            assert abs(rec.ser - np.mean(ser)) <= ser_tol, rec
            assert abs(rec.rate - np.mean(bits)) <= rate_tol, rec


class TestCoveredLossBounds:
    def test_pathwise_covered_ser_bound(self, book, snr_bits):
        # conditional SER of the quantized beamformer never exceeds the
        # (1-delta)-degraded full-CSIT error on any draw
        P = 10.0
        H = sample_channels(RngStream(45), 2, 100000)
        spec = FixedLengthBeamforming(book)
        snr, _ = snr_bits(spec, H, P)
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
        spec = VariableLengthPrecoding(book)
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

    def test_steep_top_decades_do_not_overflow(self):
        # a plain-mode bf-full sweep whose top SERs collapse: P^d alone
        # overflows (d ~ 64 at P = 1e6), 1 / (SER P^d) does not
        sers = {1e4: 4.971464802092799e-08, 10**4.5: 4.989887870983963e-11,
                1e5: 4.592310654346096e-20, 1e6: 2.20923417823238e-136}
        recs = [SweepRecord("bf-full", P, ser, 0, 0, 0, 1, 0) for P, ser in sers.items()]
        g = estimate_gains(recs, top_decades=2)
        assert g.diversity > 60.0
        want = math.exp(-(math.log(sers[1e6]) + g.diversity * math.log(1e6)))
        assert 0.0 < g.array_gain == pytest.approx(want, rel=1e-12)

    def test_unfittable_top_decades_rejected(self):
        grid = (1e4, 1e5, 1e6)
        # no error seen at the top point
        recs = [SweepRecord("x", P, ser, 0, 0, 0, 1, 0) for P, ser in zip(grid, (1e-9, 1e-12, 0.0))]
        with pytest.raises(ValueError, match="SER is 0"):
            estimate_gains(recs, top_decades=2)
        # a flat fit through a subnormal SER: 1 / SER exceeds the float range
        recs = [
            SweepRecord("x", P, ser, 0, 0, 0, 1, 0) for P, ser in zip(grid, (1e-310, 1e-200, 1e-310))
        ]
        with pytest.raises(ValueError, match="float range"):
            estimate_gains(recs, top_decades=2)

    def test_top_decades_below_one_rejected(self):
        # 10^-400 once underflowed to 0 and divided by it
        recs = [SweepRecord("x", P, 0.1 / P, 0, 0, 0, 1, 0) for P in (1.0, 10.0, 100.0, 1e3)]
        for top_decades in (0, -1, -400):
            with pytest.raises(ValueError, match="top decades must be >= 1"):
                estimate_gains(recs, top_decades=top_decades)

    def test_top_decades_beyond_the_float_exponent(self):
        # 10^309 overflows a float; the cut is p_max 10^-309 = 1e-299
        grid = (1e-300, 1e-200, 1e-100, 1.0, 1e10)
        recs = [SweepRecord("x", P, 0.1, 0, 0, 0, 1, 0) for P in grid]
        g = estimate_gains(recs, top_decades=309)
        assert g.fit.p_range == (1e-200, 1e10)
        assert g.diversity == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_span_rejected(self):
        recs = [SweepRecord("x", P, 0.1 / P, 0, 0, 0, 1, 0) for P in (1.0, 2.0, 4.0)]
        with pytest.raises(ValueError):
            estimate_gains(recs, top_decades=2)
