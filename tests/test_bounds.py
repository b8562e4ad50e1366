"""Bound constants, the delta schedule, and converse consistency checks."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from vlqsim import estimate, numerics
from vlqsim.bounds import (
    c2_hat,
    constants_table,
    converse_check,
    delta_schedule,
    derive_c1,
    phi_schedule,
    prop1_bounds,
    prop4_bounds,
    thm3_converse_lb,
    thm6_constants,
)
from vlqsim.cli import SimulationConfig, main, run_config
from vlqsim.estimate import SweepRecord, ser_full_analytic
from vlqsim.numerics import q_function


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


class TestDeltaSchedule:
    def test_round_trip(self):
        f = phi_schedule(0.1, 1, 1.0)
        assert f == pytest.approx(200.0 * math.log2(400.0), rel=1e-12)
        assert delta_schedule(f, 1, 1.0) == pytest.approx(0.1, abs=1e-6)

    def test_monotone(self):
        d1 = delta_schedule(50.0, 2, 0.0224)
        d2 = delta_schedule(500.0, 2, 0.0224)
        assert d1 > d2

    def test_phi_strictly_decreasing_on_bracket(self):
        for t in (1, 2, 3, 4):
            hi = min(0.99, (4.0 * 0.5 / math.e) ** (1.0 / (2 * t)))
            deltas = np.linspace(1e-3, hi, 400)
            vals = [phi_schedule(d, t, 0.5) for d in deltas]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vanishes_with_power(self):
        deltas = [delta_schedule(math.log(P), 2, 0.0224) for P in np.geomspace(1e2, 1e6, 9)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < deltas[0] < 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            delta_schedule(1e-12, 2, 0.0224)

    @pytest.mark.parametrize("c0, delta", [(1e308, 0.35), (0.0224, 1e-300), (math.inf, 0.35)])
    def test_overflowing_cover_size_rejected(self, c0, delta):
        # C0 delta^-2t must be finite; 1e-300 ** -4 raises OverflowError
        with pytest.raises(ValueError, match="C0 delta"):
            phi_schedule(delta, 2, c0)
        with pytest.raises(ValueError, match="C0 delta"):
            c2_hat(c0, 2, delta)


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
        t, delta, c0 = 2, 0.35, 0.0224
        count = 2 + math.ceil(c0 * delta ** (-2 * t))
        want = count * t**t / (math.gamma(t + 1) * math.log(1.0 / delta))
        assert c2_hat(c0, t, delta) == pytest.approx(want, rel=1e-12)

    def test_prop4_reduces_to_pieces(self):
        ser_b, rate_b = prop4_bounds(2, 0.2, 100.0, Fraction(1), 0.0224)
        assert ser_b == pytest.approx(
            ser_full_analytic(2, 100.0) * 1.8 + 0.2 / 1e4, rel=1e-9
        )
        assert rate_b > 1.0


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
        text = constants_table(2, Fraction(3, 4), 0.0224, 0.35)
        assert text.splitlines()[0] == "bound constants (t=2, r=3/4)"
        for token in ("C0-hat", "C1", "C2-hat", "C3", "empirical", "derived"):
            assert token in text
        values = {line.split()[0]: float(line.split()[1]) for line in text.splitlines()[1:]}
        assert values["C0-hat"] == 0.0224
        assert values["C1"] == pytest.approx(derive_c1()[0], rel=1e-5)
        assert values["C2-hat"] == pytest.approx(c2_hat(0.0224, 2, 0.35), rel=1e-5)
        assert values["C3"] == pytest.approx(thm6_constants(2, Fraction(3, 4))[2], rel=1e-5)

    def test_validation(self):
        # c0 must be finite and > 0, delta in (0, 1), C0 delta^-2t finite
        bad = [(c0, 0.35) for c0 in (0.0, -0.1, math.nan, math.inf, 1e308)]
        bad += [(0.0224, delta) for delta in (0.0, 1.0, -0.5, math.nan, 1e-300)]
        for c0, delta in bad:
            with pytest.raises(ValueError):
                constants_table(2, Fraction(1), c0, delta)

    def test_rejects_bad_t_and_r(self):
        with pytest.raises(ValueError):
            constants_table(5, Fraction(1), 0.0224, 0.35)
        with pytest.raises(ValueError):
            constants_table(2, Fraction(3, 2), 0.0224, 0.35)


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
