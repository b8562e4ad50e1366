"""End-to-end acceptance suite.

Each test prints a PASS line with the measured quantities and enforces its
runtime budget.  Criteria 5-7 stash their sweep records in a module-level
store that the converse-consistency criterion re-checks.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from vlqsim.bounds import (
    converse_check,
    delta_schedule,
    derive_c1,
    prop1_bounds,
)
from vlqsim.channel import RngStream, sample_channels
from vlqsim.cli import SimulationConfig, run_config
from vlqsim.codebook import BeamformingCodebook, build_covering_codebook
from vlqsim.estimate import (
    FixedLengthBeamforming,
    FullCsitBeamforming,
    OpenLoopPrecoding,
    VariableLengthBeamforming,
    VariableLengthPrecoding,
    estimate_gains,
    paired_compare,
    ser_full_analytic,
    ser_rate_sweep,
)
from vlqsim.numerics import bpsk_mrc_ser, fit_loglog, q_function
from vlqsim.stbc import ostbc_generator, simulate_symbol_mc

MEASURED_RECORDS = []  # populated by criteria 5-7, consumed by criterion 8


@pytest.fixture(scope="module")
def book02():
    return build_covering_codebook(2, 0.2, RngStream(42, 7), stop_streak=400)


@pytest.fixture(scope="module")
def book01():
    return build_covering_codebook(2, 0.1, RngStream(42, 8), stop_streak=400)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


class TestCriterion1QFunction:
    def test_accuracy_and_sandwich(self):
        t0 = time.time()
        mpmath.mp.dps = 30
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.01)
        got = q_function(xs)
        want = np.array([float(0.5 * mpmath.erfc(x / mpmath.sqrt(2))) for x in xs])
        worst = float(np.max(np.abs(got - want)))
        assert worst <= 1e-12
        c1, _ = derive_c1()
        assert np.all(got >= c1 * np.exp(-(xs**2)) - 1e-15)
        pos = xs >= 0.0
        assert np.all(got[pos] <= 0.5 * np.exp(-(xs[pos] ** 2) / 2.0) + 1e-15)
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(1, f"max abs error {worst:.2e}, sandwich holds, {elapsed:.2f}s")


class TestCriterion2AnalyticSer:
    def test_quadrature_matches_closed_form(self):
        t0 = time.time()
        worst = 0.0
        for t in (1, 2, 3, 4):
            for P in (1.0, 10.0, 100.0, 1000.0):
                got = ser_full_analytic(t, P)
                want = float(bpsk_mrc_ser(t, P))
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-8
        elapsed = time.time() - t0
        assert elapsed < 5.0
        report(2, f"worst relative error {worst:.2e} over 16 cases, {elapsed:.2f}s")


class TestCriterion3PathwiseDominance:
    def test_nothing_beats_full_csit_on_any_draw(self, book02):
        t0 = time.time()
        full = FullCsitBeamforming(2)
        challengers = [
            FixedLengthBeamforming(book02),
            VariableLengthBeamforming(book02),
            VariableLengthPrecoding(book02),
            OpenLoopPrecoding(2),
        ]
        for spec in challengers:
            ((_, _, frac, worst),) = paired_compare(
                spec, full, [10.0], 100000, RngStream(50), conditioning="none"
            )
            assert frac == 1.0, spec.quantizer_id
            assert worst == 0.0, spec.quantizer_id
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(3, f"4 quantizers x 1e5 draws, dominance on 100% of draws, {elapsed:.1f}s")


class TestCriterion4CoveredLoss:
    def test_per_draw_and_average_bounds(self, book02, book01, snr_bits):
        t0 = time.time()
        for book in (book01, book02):
            spec = FixedLengthBeamforming(book)
            for P in (10.0, 100.0):
                H = sample_channels(RngStream(51), 2, 100000)
                snr, _ = snr_bits(spec, H, P)
                degraded = (1.0 - book.delta) * np.sum(np.abs(H) ** 2, axis=1) * P
                assert np.all(snr >= degraded - 1e-12)
                (rec,) = ser_rate_sweep([spec], [P], 100000, RngStream(52))
                full = ser_full_analytic(2, P)
                ratio = rec.ser / full
                assert ratio <= 1.0 + 2.0 * 2 * book.delta + 3.0 * rec.ser_stderr / full
        elapsed = time.time() - t0
        assert elapsed < 30.0
        report(4, f"pathwise and averaged loss bounds at delta in {{0.1, 0.2}}, {elapsed:.1f}s")


class TestCriterion5VariableLengthPenalties:
    def test_ser_gap_and_rate_bound(self, book02):
        t0 = time.time()
        flq = FixedLengthBeamforming(book02)
        vlq = VariableLengthBeamforming(book02)
        grid = [1e2, 1e3, 1e4]
        recs = ser_rate_sweep([flq, vlq], grid, 10**6, RngStream(53), workers=4)
        MEASURED_RECORDS.extend(recs)
        gaps = []
        compared = paired_compare(vlq, flq, grid, 10**6, RngStream(54), conditioning="radial")
        for P, (gap, se, _, _) in zip(grid, compared):
            assert -3.0 * se <= gap <= P ** (-3) + 3.0 * se
            gaps.append(gap)
            (rate_rec,) = [r for r in recs if r.quantizer_id == "bf-vlq" and r.P == P]
            _, rate_bound = prop1_bounds(len(book02), 2, P)
            assert rate_rec.rate <= rate_bound + 3.0 * rate_rec.rate_stderr
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(5, f"gaps {['%.1e' % g for g in gaps]} within power slack, rates bounded, {elapsed:.1f}s")


class TestCriterion6RateDecayLaws:
    def test_fitted_slopes(self, book02):
        t0 = time.time()
        # the two-codeword orthonormal cover keeps the beamforming scheme in
        # its asymptotic regime across the whole window
        ortho = BeamformingCodebook(vectors=np.eye(2, dtype=complex), delta=0.51)
        bf = VariableLengthBeamforming(ortho)
        pc = VariableLengthPrecoding(book02)
        grid = list(np.geomspace(1e2, 1e5, 7))
        recs = ser_rate_sweep([bf, pc], grid, 10**6, RngStream(55), workers=4)
        MEASURED_RECORDS.extend(recs)
        slopes = {}
        for qid, want in (("bf-vlq", -1.0), ("pc-vlq", -2.0)):
            rs = sorted((r for r in recs if r.quantizer_id == qid), key=lambda r: r.P)
            fit = fit_loglog([(r.P, r.rate - 1.0) for r in rs])
            slopes[qid] = fit.slope
            assert abs(fit.slope - want) <= 0.15 * abs(want), qid
            assert rs[-1].rate <= 1.05, qid
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(
            6,
            f"slopes bf {slopes['bf-vlq']:.3f} (target -1), "
            f"pc {slopes['pc-vlq']:.3f} (target -2), {elapsed:.1f}s",
        )


class TestCriterion7Diversity:
    def test_baseline_and_scheduled_quantizer(self, book02, book01):
        t0 = time.time()
        from vlqsim.codebook import fit_c0

        grid = list(np.geomspace(1e3, 1e5, 5))
        # quadrature baselines
        for scale, label in ((1.0, "full"), (0.5, "open")):
            fit = fit_loglog([(P, ser_full_analytic(2, scale * P)) for P in grid])
            assert abs(-fit.slope - 2.0) <= 0.05 * 2.0, label
        g_full = 1.0 / (ser_full_analytic(2, grid[-1]) * grid[-1] ** 2)
        # scheduled variable-length scheme with per-point codebooks
        c0 = fit_c0([book02, book01])
        recs = []
        for i, P in enumerate(grid):
            d = delta_schedule(math.log(P), 2, c0)
            b = build_covering_codebook(2, d, RngStream(42, 20).child(i), stop_streak=400)
            recs += ser_rate_sweep(
                [VariableLengthBeamforming(b)],
                [P], 10**6, RngStream(56), workers=4,
            )
        MEASURED_RECORDS.extend(recs)
        gains = estimate_gains(recs, top_decades=2)
        assert abs(gains.diversity - 2.0) <= 0.1 * 2.0
        ratio = g_full / gains.array_gain
        assert ratio <= 1.5
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(
            7,
            f"diversity {gains.diversity:.3f}, array-gain ratio x{ratio:.2f} "
            f"vs full, {elapsed:.1f}s",
        )


class TestCriterion8ConverseConsistency:
    def test_all_measured_points_respect_lower_bounds(self):
        t0 = time.time()
        assert MEASURED_RECORDS, "criteria 5-7 must run first"
        c1, _ = derive_c1()
        violations = converse_check(MEASURED_RECORDS, 2, c1)
        assert violations == []
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(8, f"{len(MEASURED_RECORDS)} measured points, 0 violations, {elapsed:.1f}s")


class TestCriterion9StbcOracle:
    def test_symbol_mc_and_orthogonality(self):
        t0 = time.time()
        gen = np.random.default_rng(1)
        for t in (2, 3, 4):
            code = ostbc_generator(t)
            for _ in range(200):
                s = gen.standard_normal(code.k) + 1j * gen.standard_normal(code.k)
                S = code.generator(s)
                defect = np.max(np.abs(S.conj().T @ S - np.sum(np.abs(s) ** 2) * np.eye(t)))
                assert defect < 1e-12
        code = ostbc_generator(2)
        h = sample_channels(RngStream(57), 2, 1)[0]
        P = 10.0  # 10 dB
        X = np.eye(2) / math.sqrt(2.0)
        snr = np.linalg.norm(X @ h) ** 2 * P / float(code.r)
        want = q_function(math.sqrt(2.0 * snr))
        ser, se = simulate_symbol_mc(X, h, P, code, 500000, RngStream(58))
        z = abs(ser - want) / se
        assert z <= 3.0
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(9, f"MC z-score {z:.2f} at 1e6 symbols, orthogonality exact, {elapsed:.1f}s")


class TestCriterion10Determinism:
    def test_sweep_bytes_stable_across_workers(self, tmp_path):
        t0 = time.time()
        out = tmp_path / "det.csv"
        cfg = SimulationConfig.from_dict(
            {
                "t": 2,
                "strategy": "bf-vlq",
                "delta": 0.3,
                "P-grid-dB": [10.0, 20.0],
                "samples": 200000,
                "seed": 99,
                "output-path": str(out),
            }
        )
        run_config(cfg, workers=1)
        first = out.read_bytes()
        for workers in (4, 16):
            run_config(cfg, workers=workers)
            assert out.read_bytes() == first
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(10, f"byte-identical CSV at workers 1/4/16, {elapsed:.1f}s")
