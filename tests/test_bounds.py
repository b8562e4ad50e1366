"""Bound constants, the rate bound and the delta schedule, and converse
consistency checks."""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from vlqsim import cli, estimate, numerics
from vlqsim.bounds import (
    constants_table,
    converse_check,
    derive_c1,
    prop1_bounds,
    prop4_bounds,
    thm3_converse_lb,
    thm6_constants,
    vlq_rate_bound,
    vlq_rate_excess,
)
from vlqsim.channel import RngStream
from vlqsim.cli import ConfigError, SimulationConfig, main, run_config
from vlqsim.codebook import load_codebook
from vlqsim.estimate import SweepRecord, VariableLengthBeamforming, ser_full_analytic
from vlqsim.numerics import q_function
from vlqsim.quantizer import index_bits

REFERENCE_BOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


class TestC1:
    def test_definitional_sandwich(self):
        c1, _ = derive_c1()
        xs = np.arange(-5.0, 8.0, 0.001)
        assert np.all(q_function(xs) >= c1 * np.exp(-(xs**2)) - 1e-15)

    def test_upper_bound_at_origin(self):
        c1, _ = derive_c1()
        assert c1 <= 0.5

    def test_frozen_values(self):
        # dense mpmath grid scan oracle, computed independently
        mpmath.mp.dps = 30
        grid = [mpmath.mpf(k) / 1000 for k in range(0, 3001)]
        vals = [0.5 * mpmath.erfc(x / mpmath.sqrt(2)) * mpmath.e ** (x * x) for x in grid]
        k = min(range(len(vals)), key=lambda i: vals[i])
        c1, x_star = derive_c1()
        assert c1 == pytest.approx(float(vals[k]), rel=1e-6)
        assert c1 == pytest.approx(0.393, abs=5e-4)
        assert x_star == pytest.approx(0.62, abs=0.01)

    def test_root_and_infimum_against_mpmath(self):
        # x* solves 2x Q(x) = phi(x); c1 = Q(x*) e^{x*^2}, at 50 digits
        with mpmath.workdps(50):
            def q(x):
                return mpmath.erfc(x / mpmath.sqrt(2)) / 2

            root = mpmath.findroot(lambda x: 2 * x * q(x) - mpmath.npdf(x), 0.6)
            infimum = q(root) * mpmath.exp(root**2)
            assert mpmath.nstr(root, 17) == "0.61200318096248076"
            assert mpmath.nstr(infimum, 20) == "0.39305962220348074652"
            c1, x_star = derive_c1()
            assert abs(x_star - float(root)) <= 1e-12
            assert abs(mpmath.mpf(c1) - infimum) <= np.spacing(c1)
            # read exactly, c1 must not exceed the infimum it bounds
            assert mpmath.mpf(c1) <= infimum


class TestProp1:
    def test_reference_arithmetic(self):
        slack, rate = prop1_bounds(4, 2, 100.0)
        assert slack == pytest.approx(1e-6)
        assert rate == pytest.approx(1.0 + 48.0 * math.log(100.0) / 100.0)
        assert rate == pytest.approx(3.2105, abs=1e-4)

    def test_limit_to_one(self):
        _, rate = prop1_bounds(4, 2, 1e12)
        assert rate == pytest.approx(1.0, abs=1e-8)

    def test_singleton_codebook(self):
        _, rate = prop1_bounds(1, 3, 50.0)
        assert rate == pytest.approx(1.0 + 4 * 2.0 * math.log(50.0) / 50.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prop1_bounds(0, 2, 10.0)
        with pytest.raises(ValueError):
            prop1_bounds(4, 2, 1.0)


def rate_mean_oracle(t, P):
    """E[P(t, beta / (c P))] for c ~ Beta(1, t-1) and beta = (t+1) ln P, in
    mpmath: the exact head below ln(beta / P) - 40 and adaptive quadrature
    in ln c above it, split every 4 units around ln(beta / P)."""
    with mpmath.workdps(20):
        k = (t + 1) * mpmath.log(P) / P
        lo = mpmath.log(k) - 40

        def g(u):
            c = mpmath.exp(u)
            return (t - 1) * (1 - c) ** (t - 2) * c * mpmath.gammainc(t, 0, k / c, regularized=True)

        cuts = [mpmath.log(k) + j for j in range(-28, 30, 4) if mpmath.log(k) + j < 0]
        return 1 - (1 - mpmath.exp(lo)) ** (t - 1) + mpmath.quad(g, [lo, *cuts, 0])


class TestVlqRateBound:
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_against_mpmath(self, t):
        for P in np.geomspace(1e2, 1e12, 6):
            mean = rate_mean_oracle(t, P)
            for size in (2, 12, 239):
                bits = index_bits(size)
                want = min(bits, bits * size * mean)
                got = vlq_rate_excess(t, size, P)
                assert abs(got - want) <= 1e-12 * want, (t, P, size)
                rate = vlq_rate_bound(t, size, P)
                assert rate == 1.0 + got and abs(rate - (1 + want)) <= 1e-12 * (1 + want)

    def test_one_antenna_and_one_codeword(self):
        # at t = 1, c = 1; a book of one codeword never sends an index
        for P in (2.0, 1e3, 1e9):
            want = min(1.0, 2.0 * numerics.gamma_lower(1, 2.0 * math.log(P) / P))
            assert vlq_rate_excess(1, 2, P) == want
            for t in (1, 2, 4):
                assert vlq_rate_excess(t, 1, P) == 0.0 and vlq_rate_bound(t, 1, P) == 1.0

    def test_capped_at_the_index_bits(self):
        # the long branch costs bits at most, whatever the union sum
        assert vlq_rate_excess(4, 239, 10.0) == 8.0
        assert vlq_rate_excess(4, 239, 1e12) < 8.0

    def test_never_above_prop1(self):
        sizes = sorted({1, 2, 3, 7, 12, 239, 1000, 2**14} | {2**k + 1 for k in range(1, 14)})
        for t in (1, 2, 3, 4, 8):
            for P in np.geomspace(1e2, 1e12, 21):
                for size in sizes:
                    assert vlq_rate_bound(t, size, P) <= prop1_bounds(size, t, P)[1], (t, P, size)

    def test_rejects_bad_arguments(self):
        for args in ((0, 2, 10.0), (1.5, 2, 10.0), (2, 0, 10.0), (2, 2, 1.0), (2, 2, math.nan)):
            with pytest.raises(ValueError):
                vlq_rate_excess(*args)

    @pytest.mark.parametrize("name", ["book-t2.json", "book-t4.json"])
    def test_bounds_the_radial_rate_of_the_stored_books(self, name):
        # the exact radial rate excess of bf-vlq, per direction, less 3
        # sigma, never exceeds the bound that reads |B| alone
        book = load_codebook(REFERENCE_BOOKS / name)
        grid = [1e2, 1e3, 1e4]
        records = estimate.ser_rate_sweep(
            [VariableLengthBeamforming(book)], grid, 1 << 17, RngStream(5), workers=1
        )
        for rec in records:
            bound = vlq_rate_excess(book.t, len(book), rec.P)
            assert rec.rate - 1.0 - 3.0 * rec.rate_stderr <= bound, (rec, bound)


def _scheduled_config(t, f, grid_dB, seed=7):
    return SimulationConfig.from_dict({
        "t": t, "strategy": "bf-vlq", "schedule": {"f": f}, "P-grid-dB": grid_dB,
        "samples": 1000, "seed": seed, "output-path": "o.csv",
    })


class TestDeltaSchedule:
    """``cli._schedule`` walks the delta ladder from coarse to fine and
    gives each power the finest rung whose rate bound fits its budget."""

    def test_monotone(self):
        # a larger power affords the same or a finer rung
        for t, grid in ((2, [30.0, 35.0, 40.0, 50.0, 60.0]), (3, [40.0, 50.0, 60.0])):
            picks = cli._schedule(_scheduled_config(t, "sqrtP", grid))
            deltas = [book.delta for book, _, _ in picks]
            assert all(a >= b for a, b in zip(deltas, deltas[1:])), deltas
            for P, (book, bound, budget) in zip(_scheduled_config(t, "sqrtP", grid).P_grid, picks):
                assert bound == vlq_rate_excess(t, len(book), P) <= budget
                assert budget == math.sqrt(P) * math.log(P) / P

    def test_vanishes_with_power(self):
        picks = cli._schedule(_scheduled_config(2, "sqrtP", [30.0, 40.0, 50.0, 60.0]))
        deltas = [book.delta for book, _, _ in picks]
        assert all(a > b for a, b in zip(deltas, deltas[1:])) and deltas[0] < 1.0
        assert all(d in cli._LADDER for d in deltas)

    def test_out_of_range_rejected(self):
        # with this bf-vlq rule no rung fits (ln P)^2 / P below 80 dB at t = 2
        with pytest.raises(ConfigError, match=r"P = 1000 \(30 dB\).*budget.*0\.04772.*delta 0\.9"):
            cli._schedule(_scheduled_config(2, "logP", [30.0, 80.0]))
        ((book, bound, budget),) = cli._schedule(_scheduled_config(2, "logP", [80.0]))
        assert book.delta == 0.9 and bound <= budget == math.log(1e8) ** 2 / 1e8

    def test_finest_fitting_rung(self, monkeypatch):
        # each point takes the last rung that fits before its first that
        # does not; a rung is built once for all points, and the walk ends
        # at the rung where every point has stopped
        built = []
        original = cli._codebook
        monkeypatch.setattr(
            cli, "_codebook", lambda config, delta: built.append(delta) or original(config, delta)
        )
        config = _scheduled_config(2, "sqrtP", [30.0, 40.0, 50.0])
        picks = cli._schedule(config)
        assert built == list(cli._LADDER[: len(built)]) and len(set(built)) == len(built)
        for P, (book, _, budget) in zip(config.P_grid, picks):
            k = cli._LADDER.index(book.delta)
            assert k + 1 < len(built)
            finer = original(config, cli._LADDER[k + 1])
            assert vlq_rate_excess(2, len(finer), P) > budget
        finest = max(cli._LADDER.index(book.delta) for book, _, _ in picks)
        assert len(built) == finest + 2


class TestThm3:
    def test_reference_value(self):
        c1, _ = derive_c1()
        R = 2.0 * math.log(100.0) / 1300.0
        got = thm3_converse_lb(100.0, R, c1)
        assert got == pytest.approx(c1 * math.exp(-6.0 * 100.0 * R) / 300.0, rel=1e-12)
        assert got == pytest.approx(1.87e-5, rel=0.01)

    def test_zero_budget_corner(self):
        c1, _ = derive_c1()
        assert thm3_converse_lb(50.0, 0.0, c1) == pytest.approx(c1 / 150.0)

    def test_monotone_in_both_arguments(self):
        c1, _ = derive_c1()
        assert thm3_converse_lb(10.0, 0.01, c1) > thm3_converse_lb(20.0, 0.01, c1)
        assert thm3_converse_lb(10.0, 0.01, c1) > thm3_converse_lb(10.0, 0.02, c1)

    def test_deep_exponent_underflows_to_zero(self):
        c1, _ = derive_c1()
        assert thm3_converse_lb(1e6, 1.0, c1) == 0.0


_RATES = (Fraction(1), Fraction(3, 4))


class TestThm6:
    def test_gain_ratio_is_t_to_the_t(self):
        for t in (2, 3, 4):
            for r in _RATES:
                g_open, g_full, c3 = thm6_constants(t, r)
                assert g_full / g_open == pytest.approx(float(t**t), rel=1e-15)
                assert c3 > 0.0
                assert c3 == pytest.approx(0.5 * (1.0 / g_open - 1.0 / g_full), rel=1e-12)

    @pytest.mark.parametrize("r", _RATES, ids=str)
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_c3_closed_form(self, t, r):
        want = math.comb(2 * t - 1, t) * float(r / 4) ** t * (t**t - 1) / 2
        assert thm6_constants(t, r)[2] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("r", _RATES, ids=str)
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_full_csit_gain_against_quadrature(self, t, r):
        # SER (P/r)^t approaches C(2t-1, t)/4^t from below, at rate O(1/P)
        _, g_full, _ = thm6_constants(t, r)
        for P in (1e3, 1e4, 1e5, 1e6):
            gap = 1.0 - ser_full_analytic(t, P, r) * P**t * g_full
            assert 0.0 < gap <= t * t / P, (P, gap)

    def test_rejects_unsupported_t(self):
        with pytest.raises(ValueError):
            thm6_constants(1)

    @pytest.mark.parametrize("r", [0, Fraction(5, 4), -1, math.nan])
    def test_rejects_r_outside_unit_interval(self, r):
        with pytest.raises(ValueError, match="r must be"):
            thm6_constants(2, r)


class TestC2AndProp4:
    def test_c2_formula(self):
        # prop4's rate is 1 + C2 delta^-t ln(1/delta) / P^t with the
        # precoding rate constant C2 of the book's own size
        for t, delta, size, P in ((2, 0.35, 8, 100.0), (3, 0.2, 51, 1e3), (4, 0.5, 10, 30.0)):
            c2 = (size + 2) * t**t / (math.gamma(t + 1) * math.log(1.0 / delta))
            want = 1.0 + c2 * delta ** (-t) * math.log(1.0 / delta) / P**t
            _, rate = prop4_bounds(t, delta, P, Fraction(1), size)
            assert rate == pytest.approx(want, rel=1e-14)

    def test_prop4_reduces_to_pieces(self):
        ser_b, rate_b = prop4_bounds(2, 0.2, 100.0, Fraction(1), 14)
        assert ser_b == pytest.approx(
            ser_full_analytic(2, 100.0) * 1.8 + 0.2 / 1e4, rel=1e-9
        )
        assert rate_b == pytest.approx(1.0 + 16 * 4 / (2 * 20.0**2), rel=1e-14)
        for delta, size in ((0.0, 14), (1.0, 14), (0.2, 0)):
            with pytest.raises(ValueError):
                prop4_bounds(2, delta, 100.0, Fraction(1), size)


class TestConverseCheck:
    def _rec(self, qid, P, ser, rate):
        return SweepRecord(qid, P, ser, 0.0, rate, 0.0, 1000, 0)

    def test_clean_records_pass(self):
        c1, _ = derive_c1()
        records = [
            self._rec("bf-flq", 100.0, 2e-5, 4.0),
            self._rec("bf-vlq", 100.0, 2e-5, 1.5),
            self._rec("pc-vlq", 100.0, 2.1e-5, 2.0),
            self._rec("bf-full", 100.0, 1.8e-5, 0.0),
        ]
        assert converse_check(records, 2, c1) == []

    def test_detects_fabricated_violation(self):
        c1, _ = derive_c1()
        # a quantizer with essentially no feedback but full-CSIT-like SER at
        # low power contradicts the exponential lower bound
        bad = self._rec("bf-vlq", 2.0, 1e-9, 1.0)
        out = converse_check([bad], 2, c1)
        assert len(out) == 1
        assert out[0]["quantizer"] == "bf-vlq"

    def test_detects_precoding_violation(self):
        c1, _ = derive_c1()
        bad = self._rec("pc-vlq", 10.0, 1e-9, 1.0)
        out = converse_check([bad], 2, c1)
        assert len(out) == 1

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_precoding_bound_matches_quadrature(self, t):
        c1, _ = derive_c1()
        for P in (1.0, 1e2, 1e4, 1e6):
            open_loop = ser_full_analytic(t, P / t)
            rec = self._rec("pc-vlq", P, 0.0, 1.0 + open_loop / 2)
            (out,) = converse_check([rec], t, c1)
            want = open_loop - (rec.rate - 1.0)
            assert out["bound"] == pytest.approx(want, rel=1e-9)

    def test_beamforming_below_unit_power_is_out_of_scope(self):
        # Theorem 3's bound is stated for P >= 1; below it the check skips
        # the record instead of raising, and still flags the same record at P = 1
        c1, _ = derive_c1()
        assert converse_check([self._rec("bf-flq", 10.0**-0.5, 1e-9, 1.0)], 2, c1) == []
        (out,) = converse_check([self._rec("bf-flq", 1.0, 1e-9, 1.0)], 2, c1)
        assert out["P"] == 1.0

    def test_baselines_are_out_of_scope(self):
        c1, _ = derive_c1()
        # feedback-free baselines carry rate 0 and are not covered by the
        # quantizer converse; they must never be flagged
        records = [self._rec("bf-full", 2.0, 1e-9, 0.0), self._rec("open-loop", 2.0, 1e-9, 0.0)]
        assert converse_check(records, 2, c1) == []


class TestConstantsTable:
    def test_renders_all_rows(self):
        # the derived constants alone: nothing in the table is fitted
        text = constants_table(2, Fraction(3, 4))
        assert text.splitlines()[0] == "bound constants (t=2, r=3/4)"
        assert "empirical" not in text and "C0" not in text and "C2" not in text
        values = {line.split()[0]: float(line.split()[1]) for line in text.splitlines()[1:]}
        assert sorted(values) == ["C1", "C3"]
        assert all(line.split()[2] == "derived" for line in text.splitlines()[1:])
        assert values["C1"] == pytest.approx(derive_c1()[0], rel=1e-5)
        assert values["C3"] == pytest.approx(thm6_constants(2, Fraction(3, 4))[2], rel=1e-5)

    def test_validation(self):
        # t in {2, 3, 4} and r in (0, 1], as thm6_constants takes them
        bad = [(t, Fraction(1)) for t in (1, 5, 8)]
        bad += [(2, r) for r in (Fraction(0), Fraction(-1, 2), Fraction(5, 4))]
        for t, r in bad:
            with pytest.raises(ValueError):
                constants_table(t, r)

    def test_rejects_bad_t_and_r(self):
        with pytest.raises(ValueError):
            constants_table(5, Fraction(1))
        with pytest.raises(ValueError):
            constants_table(2, Fraction(3, 2))


class TestNoQuadratureInProduction:
    """Adaptive quadrature is the oracle only: with it patched to raise,
    `bounds` and a sweep's summary, converse check included, still run."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_gamma_weighted called")

        for module in (numerics, estimate):
            monkeypatch.setattr(module, "integrate_gamma_weighted", refuse)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_bounds_subcommand(self, t, capsys):
        assert main(["bounds", "--t", str(t)]) == 0
        assert "C3" in capsys.readouterr().out

    @pytest.mark.parametrize("conditioning", ["radial", "none"])
    def test_sweep_summary(self, tmp_path, conditioning):
        out = tmp_path / "o.csv"
        config = SimulationConfig.from_dict({
            "t": 2, "strategy": "pc-vlq", "delta": 0.3, "P-grid-dB": [5.0, 15.0, 25.0],
            "samples": 2000, "seed": 7, "output-path": str(out), "conditioning": conditioning,
        })
        assert len(run_config(config, workers=1)) == 3
        summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
        assert isinstance(summary["converse-violations"], list)
