"""Numerics kernel tests against independent high-precision oracles."""

import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqsim import numerics
from vlqsim.numerics import (
    QuadratureError,
    bpsk_mrc_ser,
    fit_loglog,
    gamma_lower,
    gamma_tail,
    gamma_weighted_q_tail,
    integrate_gamma_weighted,
    q_function,
)

mpmath.mp.dps = 40


def q_oracle(x: float) -> float:
    return float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))


class TestQFunction:
    def test_accuracy_against_mpmath(self):
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.01)
        got = q_function(xs)
        want = np.array([q_oracle(x) for x in xs])
        assert np.max(np.abs(got - want)) <= 5e-16

    def test_relative_accuracy_against_mpmath(self):
        # relative, so the deep tail counts; what is left there is the
        # rounding of x / sqrt(2) read through Q's slope, which grows like x^2
        xs = np.arange(0.0, 37.5 + 1e-9, 0.01)
        want = np.array([q_oracle(x) for x in xs])
        rel = np.abs(q_function(xs) / want - 1.0)
        assert np.max(rel[xs <= 15.0]) <= 5e-14
        assert np.max(rel) <= 5e-13

    def test_scalar_path_matches_vector_path(self):
        # a Python float, an np.float64 and a 0-d array come back as a
        # float with the bits of a 1-element array, over the whole range
        xs = np.random.default_rng(20261018).uniform(-40.0, 40.0, 10000)
        xs = np.concatenate(
            [xs, [-7.3, -1.0, 0.0, 0.5, 1.79, 1.81, 2.49, 2.51, 2.545, 2.546, 6.0, 37.5]]
        )
        for x in xs:
            want = q_function(np.array([x]))[0].tobytes()
            for form in (float(x), np.float64(x), np.array(x)):
                got = q_function(form)
                assert np.float64(got).tobytes() == want, (form, got)
                assert type(got) is float

    def test_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        # classic table value
        assert q_function(1.0) == pytest.approx(0.15865525393145705, abs=1e-13)

    def test_symmetry(self):
        xs = np.linspace(0.0, 8.0, 500)
        assert np.max(np.abs(q_function(-xs) + q_function(xs) - 1.0)) < 1e-13

    def test_monotone_decreasing(self):
        # strictly decreasing where float resolution allows; near Q ~ 1 the
        # values plateau at the 1-ulp level so we test the central range
        xs = np.arange(-6.0, 6.0, 0.01)
        q = q_function(xs)
        assert np.all(np.diff(q) < 0.0)

    def test_deep_tail_underflow_is_graceful(self):
        # Q(37.5) ~ 4.6e-308 is still a normal double
        assert q_function(37.5) == pytest.approx(q_oracle(37.5), rel=1e-12, abs=0.0)
        assert q_function(50.0) >= 0.0
        assert q_function(1e6) == 0.0

    @pytest.mark.parametrize("x, want", [(1e200, 0.0), (-1e200, 1.0), (1.7e308, 0.0)])
    def test_huge_arguments_do_not_overflow(self, x, want):
        # z * z and 2 z overflow inside erfc; the suite turns warnings into
        # errors, so an overflow warning would raise here
        assert q_function(x) == want
        assert np.array_equal(q_function(np.array([x])), [want])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            q_function(float("nan"))
        with pytest.raises(ValueError):
            q_function(np.array([1.0, float("inf")]))

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, x):
        q = q_function(x)
        assert 0.0 < q < 1.0


class TestErfcSeries:
    def test_coefficients_regenerate(self):
        # S(y) = (1 + 2z) exp(z^2) erfc(z), z = K (1 + y)/(1 - y), projected
        # on 80 first-kind Chebyshev nodes at 50 digits, each coefficient
        # rounded once; the stored series stops where the dropped tail's
        # absolute sum is below eps/64
        n, k = 80, mpmath.mpf(numerics._ERFC_K)
        with mpmath.workdps(50):
            theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
            z = [k * (1 + mpmath.cos(a)) / (1 - mpmath.cos(a)) for a in theta]
            f = [(1 + 2 * v) * mpmath.exp(v * v) * mpmath.erfc(v) for v in z]
            dct = [mpmath.fsum(fj * mpmath.cos(m * a) for fj, a in zip(f, theta)) for m in range(n)]
            coef = [c * (1 if m == 0 else 2) / n for m, c in enumerate(dct)]
            stored = numerics._ERFC_CHEB
            assert np.array_equal(stored, [float(c) for c in coef[: len(stored)]])
            assert len(stored) == 26
            assert mpmath.fsum(abs(c) for c in coef[len(stored) :]) < np.finfo(float).eps / 64


class TestChebval:
    def test_clenshaw_is_chebval_bit_for_bit(self):
        gen = np.random.default_rng(65)
        x = np.append(gen.uniform(-1.0, 1.0, 5000), [-1.0, 0.0, 1.0])
        for _ in range(50):
            coef = gen.normal(size=24) * 10.0 ** gen.uniform(-12.0, 2.0, size=24)
            assert np.array_equal(numerics._chebval(x, coef), chebval(x, coef))
        # the Gaussian tail's longer series, with magnitudes down to 1e-18
        y = x[x < 1.0]
        assert np.array_equal(
            numerics._chebval(y, numerics._ERFC_CHEB), chebval(y, numerics._ERFC_CHEB)
        )


class TestGammaTail:
    def test_against_mpmath(self):
        # from x = 700 on the tail is a normal double while exp(-x) is not
        # (from 745 on): up to about x = 745 + (t-1) ln x
        deep = (699.0, 700.0, 701.0, 705.0, 707.0)
        cases = [(t, x) for t in (1, 2, 3, 4, 6, 8) for x in (0.01, 0.5, 1.0, 3.0, 10.0, 50.0)]
        cases += [(t, x) for t in (1, 2, 3, 4, 8) for x in deep]
        cases += [(2, 712.0), (4, 720.0), (8, 720.0), (8, 735.0)]
        for t, x in cases:
            want = float(mpmath.gammainc(t, x, mpmath.inf, regularized=True))
            assert want > 2.2e-308, (t, x)
            assert gamma_tail(t, x) == pytest.approx(want, rel=1e-13, abs=0.0), (t, x)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_deep_band_against_mpmath(self, t):
        # from x = 700 to where the product rounds to 0, with no second
        # formula: relative error <= 1e-15 while the tail is a normal double,
        # within 2 subnormal ulps below it, and 0 from x_hi on
        x_hi = math.log(t) + (t - 1) * math.log(1e4) + 1076.0 * math.log(2.0)
        xs = np.random.default_rng(t).uniform(700.0, x_hi, 400)
        got = gamma_tail(t, xs)
        want = np.array([float(mpmath.gammainc(t, x, mpmath.inf, regularized=True)) for x in xs])
        normal = want >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= 10
        assert np.max(np.abs(got - want)[normal] / want[normal]) <= 1e-15
        assert np.max(np.abs(got - want)[~normal]) <= 2.0 * np.spacing(0.0)
        assert np.all(gamma_tail(t, np.array([x_hi, np.nextafter(x_hi, math.inf), 2e3])) == 0.0)

    def test_non_finite_on_a_craig_grid(self):
        # the (n, 64) shape gamma_weighted_q_tail passes
        xs = np.random.default_rng(3).uniform(0.0, 900.0, (6, 64))
        xs[1, 5], xs[2, 60], xs[4, 0] = math.inf, -math.inf, math.nan
        for t in range(1, 9):
            got = gamma_tail(t, xs)
            assert got.shape == (6, 64)
            assert got[1, 5] == 0.0 and got[2, 60] == 1.0 and math.isnan(got[4, 0])
            assert np.count_nonzero(np.isnan(got)) == 1

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 0.5, 2.0, 800.0, 1e4, 2e4, 1e300, math.inf])
        for t in (1, 2, 8):
            got = gamma_tail(t, xs)
            assert got[0] == 1.0 and got[1] == 1.0 and np.all(got[4:] == 0.0)
            assert got[2] == pytest.approx(gamma_tail(t, 0.5))

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            gamma_tail(0, 1.0)


class TestGammaLower:
    # x from 1e-12 to 1e3, dense around the switch at t + 1
    XS = np.concatenate((np.geomspace(1e-12, 1e3, 400), np.linspace(0.05, 10.0, 200)))

    @pytest.mark.parametrize("t", range(1, 9))
    def test_against_mpmath(self, t):
        got = gamma_lower(t, self.XS)
        want = np.array([float(mpmath.gammainc(t, 0, x, regularized=True)) for x in self.XS])
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("t", range(1, 9))
    def test_complements_the_tail(self, t):
        # the series side carries no 1 - tail cancellation; what is left of
        # P + tail - 1 is the tail's own rounding, up to 2.5 ulp of 1 at
        # t = 8 at x = 0.0331..., where the series is within 1 ulp of mpmath
        ints = np.append(np.arange(1.0, 10.0), 0.03313295190348606)
        for x in (self.XS, self.XS + np.spacing(self.XS), ints):
            total = gamma_lower(t, x) + gamma_tail(t, x)
            assert np.max(np.abs(total - 1.0)) <= 3.0 * np.spacing(1.0)

    def test_vectorized_and_edges(self):
        xs = np.array([-1.0, 0.0, 1e-300, 0.5, 3.0, 800.0, math.inf])
        for t in (1, 2, 8):
            got = gamma_lower(t, xs)
            assert got[0] == got[1] == 0.0 and got[-2] == got[-1] == 1.0
            assert 0.0 <= got[2] <= 1e-300
            for x, g in zip(xs, got):
                assert gamma_lower(t, float(x)) == g
        assert math.isnan(gamma_lower(2, math.nan))

    def test_rejects_bad_t(self):
        for t in (0, 1.5):
            with pytest.raises(ValueError):
                gamma_lower(t, 1.0)


class TestGammaWeightedQuadrature:
    def test_constant_integrand(self):
        for t in (1, 2, 4):
            assert integrate_gamma_weighted(np.ones_like, t) == pytest.approx(1.0, rel=1e-10)

    def test_mean_of_gamma(self):
        for t in (1, 2, 3):
            assert integrate_gamma_weighted(lambda x: x, t) == pytest.approx(float(t), rel=1e-9)

    def test_matches_closed_form_mrc(self):
        # dual route: the quadrature and the combinatorial closed form are
        # independent derivations of the same average
        worst = 0.0
        for t in (1, 2, 3, 4, 8):
            for P in (1e-12, 1.0, 10.0, 100.0, 1000.0, 1e5, 1e8, 1e10, 1e12):
                got = integrate_gamma_weighted(lambda x: q_function(np.sqrt(2.0 * x * P)), t)
                want = float(bpsk_mrc_ser(t, P))
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12

    def test_partial_range_against_mpmath(self):
        # integral of e^{-s x} over the gamma tail has a closed form; the
        # deep partial ranges are where a cutoff set by the whole gamma
        # mass (37.1 at t=1) once lost 2.3e-5 at lower=30
        rows = [(1.5, (0.2, 1.0, 4.0), (1, 2, 3)), (0.5, (10.0, 30.0, 100.0, 300.0), (1, 3, 8))]
        for s, lowers, ts in rows:
            for t in ts:
                for lower in lowers:
                    got = integrate_gamma_weighted(lambda x: np.exp(-s * x), t, lower=lower)
                    want = float(
                        (1 + s) ** -t
                        * mpmath.gammainc(t, lower * (1 + s), mpmath.inf, regularized=True)
                    )
                    assert got == pytest.approx(want, rel=1e-10, abs=0.0), (t, lower)

    def test_kinked_integrand_raises(self):
        # the rule's fast convergence needs a g that is smooth on
        # (lower, infinity); a kink is caught, not silently misintegrated
        with pytest.raises(QuadratureError):
            integrate_gamma_weighted(lambda x: np.minimum(x, 2.0), 2, rtol=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_gamma_weighted(np.ones_like, 0)
        with pytest.raises(ValueError):
            integrate_gamma_weighted(np.ones_like, 1, rtol=0.0)


def q_tail_oracle(t: int, s: float, x0: float) -> float:
    """I(s, x0) in closed form by parts, at 120 digits so the cancellation
    between its two terms costs nothing:
    Q(sqrt(2 s x0)) Gbar(t, x0)
      - sqrt(s / pi) / 2 sum_k Gamma(k + 1/2, (1+s) x0) / (k! (1+s)^(k+1/2))."""
    with mpmath.workdps(120):
        s, x0 = mpmath.mpf(s), mpmath.mpf(x0)
        head = mpmath.erfc(mpmath.sqrt(s * x0)) / 2 * mpmath.gammainc(
            t, x0, mpmath.inf, regularized=True
        )
        half = mpmath.mpf(1) / 2
        acc = mpmath.fsum(
            mpmath.gammainc(k + half, (1 + s) * x0, mpmath.inf)
            / (mpmath.factorial(k) * (1 + s) ** (k + half))
            for k in range(t)
        )
        return float(head - mpmath.sqrt(s / mpmath.pi) / 2 * acc)


class TestGammaWeightedQTail:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 8])
    def test_against_mpmath(self, t):
        worst = 0.0
        for s in np.geomspace(1.0, 1e6, 7):
            for sx0 in (1.0, 10.0, 50.0, 300.0):
                want = q_tail_oracle(t, s, sx0 / s)
                got = gamma_weighted_q_tail(t, s, sx0 / s)
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12

    def test_zero_threshold_is_mrc_average(self):
        s = np.geomspace(1e-2, 1e6, 41)
        for t in (1, 2, 3, 4, 8):
            want = bpsk_mrc_ser(t, s)
            assert np.max(np.abs(gamma_weighted_q_tail(t, s, 0.0) / want - 1.0)) <= 1e-13

    def test_vector_matches_scalar_calls(self):
        s = np.geomspace(0.5, 2e4, 37)
        for t in (1, 3):
            got = gamma_weighted_q_tail(t, s, 0.01)
            want = np.array([gamma_weighted_q_tail(t, float(v), 0.01) for v in s])
            assert got.shape == s.shape
            assert np.max(np.abs(got / want - 1.0)) <= 1e-15

    def test_agrees_with_adaptive_quadrature(self):
        # the independent route used by ser_full_analytic
        t, s, x0 = 2, 40.0, 0.3
        want = integrate_gamma_weighted(
            lambda x: q_function(np.sqrt(2.0 * s * x)), t, lower=x0, rtol=1e-11
        )
        assert gamma_weighted_q_tail(t, s, x0) == pytest.approx(want, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_weighted_q_tail(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gamma_weighted_q_tail(2, -1.0, 0.0)
        with pytest.raises(ValueError):
            gamma_weighted_q_tail(2, 1.0, -0.1)
        with pytest.raises(ValueError):
            gamma_weighted_q_tail(2, 1.0, math.nan)

    @pytest.mark.parametrize("x0", [0.0, 0.3])
    def test_infinite_snr_is_zero(self, x0):
        # Q(sqrt(2 s X)) -> 0 as s -> inf at any threshold; the finite
        # entries keep the bits they have beside a finite neighbour
        for t in (1, 2, 4):
            got = gamma_weighted_q_tail(t, [1.0, math.inf, 40.0], x0)
            assert got[1] == 0.0
            assert np.array_equal(got[::2], gamma_weighted_q_tail(t, [1.0, 7.0, 40.0], x0)[::2])
            assert gamma_weighted_q_tail(t, math.inf, x0) == 0.0


class TestFitLogLog:
    def test_exact_power_law(self):
        P = [10.0, 100.0, 1000.0, 1e4]
        fit = fit_loglog([(p, 4.0 / p**2) for p in P])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(4.0, rel=1e-12)
        assert fit.max_abs_residual < 1e-12

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_loglog([(1.0, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog([(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            fit_loglog([(1.0, 1.0), (2.0, -1.0)])

    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovers_slope_and_gain(self, d, g):
        P = [10.0, 50.0, 250.0, 1250.0]
        fit = fit_loglog([(p, 1.0 / (g * p**d)) for p in P])
        assert fit.slope == pytest.approx(-d, abs=1e-9)


class TestBpskMrcSer:
    def test_single_branch_closed_form(self):
        for P in (0.5, 1.0, 10.0, 100.0):
            want = 0.5 * (1.0 - math.sqrt(P / (1.0 + P)))
            assert float(bpsk_mrc_ser(1, P)) == pytest.approx(want, rel=1e-13)

    def test_zero_snr_limit(self):
        for t in (1, 2, 3):
            assert float(bpsk_mrc_ser(t, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_reference_value(self):
        # t = 2, P = 10: mu = sqrt(10/11), [0.5(1-mu)]^2 [1 + 2*0.5(1+mu)]
        mu = math.sqrt(10.0 / 11.0)
        want = (0.5 * (1 - mu)) ** 2 * (1.0 + 2.0 * 0.5 * (1 + mu))
        assert float(bpsk_mrc_ser(2, 10.0)) == pytest.approx(want, rel=1e-13)
        assert float(bpsk_mrc_ser(2, 10.0)) == pytest.approx(1.599101e-3, rel=1e-6)

    def test_vectorized_and_monotone(self):
        snr = np.geomspace(0.01, 1e4, 50)
        ser = bpsk_mrc_ser(3, snr)
        assert ser.shape == snr.shape
        assert np.all(np.diff(ser) < 0.0)

    def test_against_mpmath_without_cancellation(self):
        # 0.5 (1 - mu) cancels at high SNR; the closed form must not
        def oracle(t, snr):
            a = mpmath.mpf(snr)
            mu = mpmath.sqrt(a / (1 + a))
            lo, hi = (1 - mu) / 2, (1 + mu) / 2
            return float(lo**t * mpmath.fsum(mpmath.binomial(t - 1 + k, k) * hi**k for k in range(t)))

        snr = np.geomspace(1e-3, 1e9, 49)
        for t in (1, 2, 4, 8):
            want = np.array([oracle(t, x) for x in snr])
            assert np.max(np.abs(bpsk_mrc_ser(t, snr) / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("t", range(1, 9))
    def test_relative_error_against_mpmath(self, t):
        # Horner's sum in 1 + mu has positive terms, and lo^t is t - 1
        # products: a few ulp at every SNR, with no cancellation
        def oracle(snr):
            a = mpmath.mpf(snr)
            mu = mpmath.sqrt(a / (1 + a))
            lo, hi = (1 - mu) / 2, (1 + mu) / 2
            return float(lo**t * mpmath.fsum(mpmath.binomial(t - 1 + k, k) * hi**k for k in range(t)))

        snr = np.geomspace(1e-3, 1e12, 301)
        want = np.array([oracle(x) for x in snr])
        assert np.max(np.abs(bpsk_mrc_ser(t, snr) / want - 1.0)) <= 2.5e-15

    def test_mrc_bytes_are_pinned(self):
        # exact inputs (integers times 2^-30) through +, *, / and sqrt only,
        # which IEEE rounds the same on every SIMD path: these bytes hold
        # under any CPU dispatch, so CI runs this pin under every setting
        k = np.arange(1 << 17, dtype=np.int64)
        snr = (k * k * k).astype(float) * 2.0**-30
        digest = hashlib.sha256()
        for t in range(1, 9):
            digest.update(bpsk_mrc_ser(t, snr).tobytes())
        assert digest.hexdigest() == (
            "71d61ff03c1511871c2ed5d2ca301a136bf674cb76da4779130416b5478601f6"
        )

    def test_diversity_slope(self):
        for t in (1, 2, 4):
            lo = float(bpsk_mrc_ser(t, 1e4))
            hi = float(bpsk_mrc_ser(t, 1e5))
            assert math.log10(lo / hi) == pytest.approx(t, abs=0.02)


class TestBufferedKernels:
    """``gamma_tail`` and ``bpsk_mrc_ser`` work in place but keep the
    arithmetic of the allocating formulas below, in the same order: a Horner
    sum with exact rational coefficients, each rounded once to a double."""

    @staticmethod
    def horner(x, coefs):
        acc = np.full_like(x, coefs[-1])
        for c in coefs[-2::-1]:
            acc = acc * x + c
        return acc

    @classmethod
    def gamma_tail_formula(cls, t, x):
        # on x clipped to [0, x_hi], from where the product rounds to 0
        x_hi = math.log(t) + (t - 1) * math.log(1e4) + 1076.0 * math.log(2.0)
        pos = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), 0.0, x_hi)
        h = np.exp(-0.5 * pos)
        coefs = [float(Fraction(1, math.factorial(k))) for k in range(t)]
        with np.errstate(under="ignore"):
            return cls.horner(pos, coefs) * h * h

    @classmethod
    def mrc_formula(cls, t, snr):
        a = np.atleast_1d(np.asarray(snr, dtype=float))
        mu = np.sqrt(a / (1.0 + a))
        lo = 0.5 / ((1.0 + a) * (1.0 + mu))
        lo_t = lo
        for _ in range(t - 1):
            lo_t = lo_t * lo
        coefs = [float(Fraction(math.comb(t - 1 + k, k), 2**k)) for k in range(t)]
        return cls.horner(1.0 + mu, coefs) * lo_t

    def test_gamma_tail_bit_for_bit(self):
        gen = np.random.default_rng(80)
        x = np.concatenate([
            10.0 ** gen.uniform(-12.0, 3.0, 4000),
            gen.uniform(0.0, 60.0, 4000),
            [-5.0, -0.0, 0.0, 5e-324, 1e-300, 699.999, 700.0, 701.0, 1e300],
        ])
        # a dense band about 700, where exp(-x) nears underflow
        band = gen.uniform(690.0, 730.0, 4096)
        shapes = (band, band[:512].reshape(8, 64), np.concatenate([x, band]),
                  np.concatenate([x[:448], band[:64]]).reshape(8, 64))
        for t in range(1, 9):
            assert np.array_equal(gamma_tail(t, x), self.gamma_tail_formula(t, x))
            assert np.array_equal(gamma_tail(t, x[:4000]), self.gamma_tail_formula(t, x[:4000]))
            grid = x[:512].reshape(8, 64)  # the 2-D shape the Craig kernel passes
            assert np.array_equal(gamma_tail(t, grid), self.gamma_tail_formula(t, grid))
            for y in shapes:
                assert np.array_equal(gamma_tail(t, y), self.gamma_tail_formula(t, y)), y.shape
            for xs in (-1.0, 0.0, 0.3, 12.5, 700.0, 900.0):
                got = gamma_tail(t, xs)
                assert isinstance(got, float)
                assert got == float(self.gamma_tail_formula(t, xs)[0])

    def test_mrc_bit_for_bit(self):
        gen = np.random.default_rng(81)
        snr = np.concatenate([
            10.0 ** gen.uniform(-8.0, 12.0, 8000), [0.0, 5e-324, 1e-300, 1.0, 1e300],
        ])
        for t in range(1, 9):
            assert np.array_equal(bpsk_mrc_ser(t, snr), self.mrc_formula(t, snr))
            for s in (0.0, 0.1, 10.0, 1e4, 1e9):
                got = bpsk_mrc_ser(t, s)
                assert isinstance(got, float)
                assert got == float(self.mrc_formula(t, s)[0])
            # an infinite SNR gives the limit 0.0, with no warning, and
            # leaves the finite entries' bits
            got = bpsk_mrc_ser(t, np.append(snr, math.inf))
            assert got[-1] == 0.0 and np.array_equal(got[:-1], self.mrc_formula(t, snr))
            assert bpsk_mrc_ser(t, math.inf) == 0.0
