"""Special-function checks: closed-form anchors, cross-branch consistency,
recurrence and symmetry properties, and honesty of the error estimates
against high-precision re-evaluation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhgas import memo
from anhgas import specfun as sf
from anhgas.oracles import integrate_semi_infinite

mpmath.mp.dps = 40


def mp_besselk(nu, x):
    return float(mpmath.besselk(nu, x))


class TestBesselK:
    def test_half_integer_closed_form(self):
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        got = sf.bessel_k(0.5, 1.0)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_large_x_asymptotic_leading_order(self):
        # e^x K_0(x) ~ sqrt(pi/2x) and K_1/K_0 - 1 ~ 1/(2x) (DLMF 10.40.2)
        x = 600.0
        lead = math.sqrt(math.pi / (2.0 * x))
        lks, t = sf.bessel_k_pair(0.0, x)
        assert math.exp(lks.value) / lead == pytest.approx(1.0, rel=1e-3)
        assert 2.0 * x * t == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.25, 7.3, 50.0])
    def test_pass_against_high_precision(self, nu):
        # the one pass, on both branches and across x_c = 2: ln(e^x K) within
        # its estimate and t = K_{nu+1}/K_nu - 1 within 1e-13, against mpmath
        # with working digits enough to hold x + ln K
        for x in (0.03, 0.5, 1.0, 1.5, 2.0, 2.01, 2.5, 3.9, 4.1, 10.0, 33.0, 1e3, 1e10,
                  1e17, 1e300):
            lks, t = sf.bessel_k_pair(nu, x)
            assert lks.method == ("continued_fraction" if x > sf._SERIES_X_MAX else
                                  "series" if nu < 1.0 else "recurrence")
            with mpmath.workdps(40 + max(0, int(math.log10(x)))):
                k = mpmath.besselk(nu, x)
                ref_t = mpmath.besselk(nu + 1, x) / k - 1
                assert abs(lks.value - (mpmath.log(k) + x)) <= lks.abs_error_estimate, x
                assert abs(t - ref_t) <= 1e-13 * ref_t, x

    def test_quarter_order_against_integral_representation(self):
        # independent oracle: int_0^inf exp(-x cosh t) cosh(nu t) dt
        nu, x = 0.25, 2.0

        def integrand(t):
            if t > 350.0:
                return 0.0
            e = -x * math.cosh(t)
            return math.exp(e) * math.cosh(nu * t) if e > -700.0 else 0.0

        oracle = integrate_semi_infinite(integrand, 0.0, rel_tol=1e-12)
        got = sf.bessel_k(nu, x)
        assert got.method == "series"
        assert got.value == pytest.approx(oracle.value, rel=1e-8)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 1.25, 5.3, 17.6])
    @pytest.mark.parametrize("x", [1e-5, 0.3, 2.0, 4.5, 12.0, 30.0, 90.0])
    def test_against_high_precision(self, nu, x):
        try:
            got = sf.bessel_k(nu, x)
        except sf.SpecialFunctionRangeError:
            assert abs(float(mpmath.log(mpmath.besselk(nu, x)))) > 690.0
            return
        assert got.value == pytest.approx(mp_besselk(nu, x), rel=1e-10)

    @pytest.mark.parametrize("x", [sf._SERIES_X_MAX - 0.01, sf._SERIES_X_MAX + 0.01])
    def test_cross_branch_boundaries(self, x):
        # values straddling the switch from the series to CF2 must agree
        # with the reference
        got = sf.bessel_k(0.25, x)
        assert got.value == pytest.approx(mp_besselk(0.25, x), rel=1e-11)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.999, 1.0, 1.25, 2.25, 7.5, 9.7, 30.0])
    def test_continued_fraction_within_its_estimate(self, nu):
        # from just above x_c to the largest double: a finite ln K whose
        # true error, against 30 digits, is within the reported estimate
        xc = sf._SERIES_X_MAX
        xs = [xc * (1.0 + 1e-12), xc + 0.01, 4.5, 5.0, 6.5, 8.0, 10.0, 13.0, 16.0, 20.0,
              31.9, 50.0, 100.0, 135.0, 270.0, 400.0, 700.0,
              1e3, 1e8, 1e154, 1e205, 1e300, 1.7e308]
        with mpmath.workdps(30):
            for x in xs:
                got = sf.log_bessel_k(nu, x)
                assert got.method == "continued_fraction" and math.isfinite(got.value)
                ref = mpmath.log(mpmath.besselk(nu, x))
                assert abs(mpmath.mpf(got.value) - ref) <= got.abs_error_estimate, x

    def test_values_beyond_double_range_are_named(self):
        # the log route answers; the value form raises the named overflow
        for nu, x in ((0.0, 1e3), (1.0, 1e300), (2.25, 1.7e308)):
            assert math.isfinite(sf.log_bessel_k(nu, x).value)
            with pytest.raises(sf.SpecialFunctionOverflow, match=r"bessel_k\("):
                sf.bessel_k(nu, x)
        with pytest.raises(sf.SpecialFunctionDomainError, match="finite"):
            sf.log_bessel_k(0.0, math.inf)

    def test_near_integer_band_above_x_c(self):
        # refused at x <= x_c (test_every_k_form_reads_the_one_pass),
        # evaluated above it
        got = sf.log_bessel_k(1.0005, 5.0)
        assert got.method == "continued_fraction"
        assert got.value == pytest.approx(float(mpmath.log(mpmath.besselk(1.0005, 5.0))),
                                          rel=1e-14)

    def test_specfun_loads_no_oracle(self):
        # the printed closed forms run on specfun, their oracles on the
        # quadrature engine: a fresh interpreter that imports specfun and
        # evaluates K on both sides of x_c has not loaded the engine
        src = Path(sf.__file__).resolve().parents[1]
        probe = ("import sys, anhgas.specfun as sf\n"
                 "for x in (1.0, 4.05, 10.0, 20.0): sf.bessel_k(0.0, x), sf.bessel_k(1.25, x)\n"
                 "print('anhgas.oracles' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert out.stdout.strip() == "False"

    def test_symmetry_in_order(self):
        for nu in (0.25, 1.25, 7.4):
            for x in (0.5, 3.0, 20.0):
                a = sf.bessel_k(nu, x).value
                b = sf.bessel_k(-nu, x).value
                assert a == pytest.approx(b, rel=1e-12)

    @given(
        nu=st.sampled_from([0.25, 0.5, 1.0, 1.25]),
        logx=st.floats(min_value=math.log(0.1), max_value=math.log(50.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, nu, logx):
        x = math.exp(logx)
        lhs = sf.bessel_k(nu + 1.0, x).value
        rhs = sf.bessel_k(nu - 1.0, x).value + (2.0 * nu / x) * sf.bessel_k(nu, x).value
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positive_and_decreasing(self):
        xs = [0.05 * 1.35**k for k in range(20)]
        for nu in (0.0, 0.25, 1.0, 2.5):
            vals = [sf.bessel_k(nu, x).value for x in xs]
            assert all(v > 0.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_and_range_errors(self):
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.bessel_k(0.25, 0.0)
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.bessel_k(0.25, -1.0)
        with pytest.raises(sf.SpecialFunctionRangeError):
            sf.bessel_k(51.0, 1.0)
        with pytest.raises(sf.SpecialFunctionRangeError):
            sf.bessel_k(50.0, 1e-6)   # value beyond double range
        # the log variant covers that region instead
        got = sf.log_bessel_k(50.0, 1e-6)
        assert got.value == pytest.approx(
            float(mpmath.log(mpmath.besselk(50, mpmath.mpf(1) / 10**6))), rel=1e-12
        )

    def test_error_estimates_are_honest(self):
        # refined evaluation must sit within 10x the reported estimate,
        # including the cancellation-limited series edge at x_c = 2
        for nu in (0.0, 0.25, 1.25, 9.7):
            for x in (0.2, 2.0, 3.999, 8.0, 40.0):
                got = sf.bessel_k(nu, x)
                ref = mp_besselk(nu, x)
                assert abs(got.value - ref) <= 10.0 * got.abs_error_estimate

    def test_every_k_form_reads_the_one_pass(self):
        # bessel_k_pair is the one route: ln K is its log minus x, K the
        # exponential of that, bit for bit, and K' = K (nu/x - 1 - t), on
        # every branch
        methods = {}
        for nu, x in ((0.25, 0.7), (1.0, 0.7), (3.5, 0.7), (3.5, 1.9), (0.25, 2.5),
                      (1.0, 5.0), (3.5, 12.0), (0.25, 120.0), (1.0, 120.0),
                      (3.5, 120.0)):
            lks, t = sf.bessel_k_pair(nu, x)
            lk = sf.log_bessel_k(nu, x)
            k = sf.bessel_k(nu, x)
            kp = sf.bessel_k_derivative(nu, x)
            assert lk.value == lks.value - x
            assert k.value == math.exp(lk.value)
            assert kp.value == pytest.approx(k.value * (nu / x - 1.0 - t), rel=1e-15)
            assert k.method == kp.method == lk.method == lks.method
            methods[(nu, x)] = lk.method
        assert set(methods.values()) == {"series", "recurrence", "continued_fraction"}
        # the near-integer orders at small x, where the series cancels, are
        # refused by name
        for nu, x in ((1.0005, 2.0), (2.9995, 0.5)):
            for f in (sf.bessel_k_pair, sf.log_bessel_k, sf.bessel_k, sf.bessel_k_derivative):
                with pytest.raises(sf.SpecialFunctionRangeError, match="near-integer band"):
                    f(nu, x)


class TestBesselKDerivative:
    def test_zero_order_reduces_to_k1(self):
        got = sf.bessel_k_derivative(0.0, 1.0)
        assert got.value == pytest.approx(-sf.bessel_k(1.0, 1.0).value, rel=1e-12)

    def test_first_order_recurrence_form(self):
        # K_1' = -(K_0 + K_2)/2 with K_2 = K_0 + 2 K_1 / x
        x = 2.0
        k0 = sf.bessel_k(0.0, x).value
        k1 = sf.bessel_k(1.0, x).value
        want = -(k0 + (k0 + 2.0 * k1 / x)) / 2.0
        assert sf.bessel_k_derivative(1.0, x).value == pytest.approx(want, rel=1e-12)

    def test_quarter_order_against_finite_difference(self):
        h = 1e-5
        fd = (sf.bessel_k(0.25, 1.0 + h).value - sf.bessel_k(0.25, 1.0 - h).value) / (2 * h)
        got = sf.bessel_k_derivative(0.25, 1.0)
        assert got.value == pytest.approx(fd, rel=1e-6)

    def test_always_negative(self):
        for nu in (0.0, 0.25, 1.5):
            for x in (0.3, 1.0, 10.0):
                assert sf.bessel_k_derivative(nu, x).value < 0.0


class TestUpperIncompleteGamma:
    def test_integer_values(self):
        assert sf.upper_incomplete_gamma(4.0, 0.0).value == pytest.approx(6.0, rel=1e-14)
        assert sf.upper_incomplete_gamma(4.0, 1.0).value == pytest.approx(
            16.0 / math.e, rel=1e-12
        )

    def test_against_quadrature(self):
        a, x = 5.5, 2.3

        def integrand(t):
            return t ** (a - 1.0) * math.exp(-t) if t < 700.0 else 0.0

        oracle = integrate_semi_infinite(integrand, x, rel_tol=1e-12)
        got = sf.upper_incomplete_gamma(a, x)
        assert got.value == pytest.approx(oracle.value, rel=1e-10)

    @given(
        a=st.floats(min_value=0.1, max_value=40.0),
        x=st.floats(min_value=0.0, max_value=60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_high_precision(self, a, x):
        got = sf.upper_incomplete_gamma(a, x)
        ref = float(mpmath.gammainc(a, x))
        assert got.value == pytest.approx(ref, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.upper_incomplete_gamma(0.0, 1.0)
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.upper_incomplete_gamma(-1.0, 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, -2.5, -7.0, -13.0, -19.0])
    @pytest.mark.parametrize("x", [3e-4, 0.04, 0.9, 1.49, 1.51, 7.0, 35.0])
    def test_extension_to_nonpositive_orders(self, a, x):
        assert sf.log_upper_incomplete_gamma(a, x).value == pytest.approx(
            float(mpmath.log(mpmath.gammainc(a, x))), rel=1e-12, abs=1e-12
        )

    def test_zero_argument_and_range(self):
        # Gamma(a, 0) = Gamma(a) needs a > 0; beyond double range only the
        # log route answers
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.log_upper_incomplete_gamma(-1.0, 0.0)
        with pytest.raises(sf.SpecialFunctionOverflow):
            sf.upper_incomplete_gamma(180.0, 0.0)
        assert sf.log_upper_incomplete_gamma(180.0, 0.0).value == pytest.approx(
            math.lgamma(180.0), rel=1e-15)

    def test_log_variant_matches(self):
        for a, x in ((0.7, 0.1), (4.0, 1.0), (12.0, 30.0), (3.0, 200.0), (2.5, 0.0)):
            lg = sf.log_upper_incomplete_gamma(a, x)
            ref = float(mpmath.log(mpmath.gammainc(a, x)))
            assert lg.value == pytest.approx(ref, rel=1e-12, abs=1e-12)
            # the value form is the exponential of the one log route
            g = sf.upper_incomplete_gamma(a, x)
            assert g.value == math.exp(lg.value)
            assert g.method == lg.method

    def test_branch_labels(self):
        # the Lentz continued fraction and the a <= 0 downward recurrence
        # are told apart
        assert sf.log_upper_incomplete_gamma(3.0, 200.0).method == "continued_fraction"
        assert sf.log_upper_incomplete_gamma(-2.5, 0.5).method == "recurrence"

    def test_order_floor(self):
        # the downward recurrence takes about -a steps: an order below -120
        # (2|mu| at W's |mu| <= 60) is refused before the first one, and so
        # is an order that is not a number or infinite
        for a in (-1e300, -math.inf, -120.5, math.nan, math.inf):
            with memo.memo_scope():
                with pytest.raises(sf.SpecialFunctionRangeError, match="outside the supported"):
                    sf.log_upper_incomplete_gamma(a, 0.5)
                assert memo.current() == {}
        assert sf.log_upper_incomplete_gamma(-120.0, 0.5).value == pytest.approx(
            float(mpmath.log(mpmath.gammainc(-120, 0.5))), rel=1e-12)

    def test_exp1(self):
        for x in (0.05, 0.8, 1.0, 3.0, 25.0):
            assert sf.exp1(x) == pytest.approx(float(mpmath.e1(x)), rel=1e-12)

    # where a route cancels, the series' 1 - P at small a or the ladder's first step
    # from a top near 1, an order is refused by name or its estimate holds the error
    REFUSED = {(1e-13, 0.1), (1e-13, 1.0), (1e-8, 0.1), (1e-8, 1.0),
               (-1e-16, 0.1), (-1e-16, 1.0), (-1e-16, 3.9), (-1e-10, 0.1), (-1e-10, 1.0),
               (-1e-10, 3.9), (-1.0 + 1e-12, 0.1), (-1.0 + 1e-12, 1.0)}

    @pytest.mark.parametrize("a", [1e-13, 1e-8, 1e-3, -1e-16, -1e-10, -1.0 + 1e-12])
    @pytest.mark.parametrize("x", [0.1, 1.0, 3.9])
    def test_cancelling_routes_are_refused_or_within_their_estimate(self, a, x):
        # a GammaLadder read refuses what the scalar function refuses, with the same
        # message and no math domain error from log1p (at (-1e-16, 1) the step's
        # ratio rounds to 1), and elsewhere gives its value bit for bit
        routes = [sf.log_upper_incomplete_gamma] + [sf.upper_incomplete_gamma] * (a > 0.0)
        ladder = sf.GammaLadder(x, (a + math.ceil(-a)) % 1.0 if a <= 0.0 else 0.0)
        if (a, x) in self.REFUSED:
            for route in routes:
                with pytest.raises(sf.SpecialFunctionRangeError, match="amplifies rounding"):
                    route(a, x)
            with pytest.raises(sf.SpecialFunctionRangeError) as refused:
                ladder(a)
            assert str(refused.value) == str(pytest.raises(
                sf.SpecialFunctionRangeError, sf.log_upper_incomplete_gamma, a, x).value)
            return
        want = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x))
        for route, ref in zip(routes, (mpmath.log(want), want)):
            got = route(a, x)
            assert abs(mpmath.mpf(got.value) - ref) <= got.abs_error_estimate, route
        lg = sf.log_upper_incomplete_gamma(a, x)
        assert ladder(a).hex() == lg.value.hex()
        if a <= 0.0 and x < 4.0:    # the estimate is the walk's amplification
            assert lg.abs_error_estimate == 1e-14 * ladder.amps[-1] * max(1.0, abs(lg.value))

    def test_error_estimates_are_honest(self):
        for a in (0.2, 4.0, 17.3, 35.0, 80.0):
            for x in (1e-4, 2.3, 30.0, 80.0, 200.0):
                got = sf.upper_incomplete_gamma(a, x)
                ref = float(mpmath.gammainc(a, x))
                assert abs(got.value - ref) <= 10.0 * got.abs_error_estimate


def _parent_log_gamma_recurrence(a, x):
    # the downward recurrence as it stood before the series memo: seeded at
    # the first order in (0, 1] (at 1 for an integer a, which then crosses
    # E_1 at 0), one loop per call
    n_steps = int(math.ceil(-a)) + (1 if a == math.floor(a) else 0)
    cur = a + n_steps
    lg = sf.log_upper_incomplete_gamma(cur, x).value
    lx = math.log(x)
    for _ in range(n_steps):
        cur -= 1.0
        if cur == 0.0:
            lg = math.log(sf.exp1(x))
            continue
        l_pow = cur * lx - x
        if l_pow >= lg:
            lg = l_pow + math.log1p(-math.exp(lg - l_pow)) - math.log(-cur)
        else:
            lg = math.log((math.exp(lg) - math.exp(l_pow)) / cur)
    return lg


class TestIncompleteGammaSeriesMemo:
    # x on the series (x < a + 1), continued-fraction (x >= x_c = 4) and E_1
    # (x <= 1, and 1 < x < x_c through the fraction) sides of the ladder
    XS = (0.03, 0.2, 0.7, 1.0, 1.2, 1.49, 1.5, 2.0, 3.99, 4.0, 7.0, 40.0)
    ORDERS = [float(a) for a in range(4, -26, -1)]

    @staticmethod
    def _scoped(queries):
        with memo.memo_scope():
            return {q: sf.log_upper_incomplete_gamma(*q) for q in queries}

    @pytest.mark.parametrize("deepest_first", [False, True])
    def test_ladder_is_bit_identical_to_the_scalar_function(self, deepest_first):
        # whatever order is asked first, a ladder's entries are the scalar
        # function's, and below x_c its orders a <= 0 are the old recurrence's
        orders = self.ORDERS[::-1] if deepest_first else self.ORDERS
        for x in self.XS:
            ladder = sf.GammaLadder(x)
            for a in orders:
                got = ladder(a)
                assert got.hex() == sf.log_upper_incomplete_gamma(a, x).value.hex(), (a, x)
                if a <= 0.0 and x < 4.0:
                    assert got.hex() == _parent_log_gamma_recurrence(a, x).hex(), (a, x)

    @pytest.mark.parametrize("a", [-0.4, -2.5, -7.3, -19.75, -1e-17])
    def test_non_integer_orders_keep_their_start(self, a):
        # a non-integer order still starts at a + ceil(-a), scoped or not
        for x in (0.03, 0.7, 1.2, 1.49):
            want = _parent_log_gamma_recurrence(a, x).hex()
            assert sf.log_upper_incomplete_gamma(a, x).value.hex() == want
            assert self._scoped([(a, x)])[(a, x)].value.hex() == want
            assert sf.GammaLadder(x, (a + math.ceil(-a)) % 1.0)(a).hex() == want

    def test_each_ladder_walks_e1_once(self, monkeypatch):
        calls = []
        exp1 = sf.exp1
        monkeypatch.setattr(sf, "exp1", lambda x: calls.append(x) or exp1(x))
        for x in (0.2, 1.2, 3.9):
            ladder = sf.GammaLadder(x)
            for a in (-3.0, -19.0, 0.0, -7.0, -120.0, -1.0):
                ladder(a)
        assert calls == [0.2, 1.2, 3.9]
        # at and above x_c every order takes the continued fraction
        sf.GammaLadder(4.0)(-3.0)
        assert calls == [0.2, 1.2, 3.9]

    def test_ladder_refuses_orders_below_its_floor(self):
        ladder = sf.GammaLadder(0.5)
        for a in (-120.5, -1e300, -math.inf, math.nan):
            with pytest.raises(sf.SpecialFunctionRangeError, match="outside the supported"):
                ladder(a)
        assert ladder(-120.0) == sf.log_upper_incomplete_gamma(-120.0, 0.5).value

    def test_ladder_refuses_orders_off_its_ladder(self):
        # a ladder holds the orders top - k only; rounding -2.5 onto the
        # integer ladder gave ln Gamma(-2, 0.5) = -0.1206 for ln Gamma(-2.5, 0.5)
        for top, a in ((0.0, -2.5), (0.5, -3.0), (0.0, -1e-6)):
            with pytest.raises(sf.SpecialFunctionRangeError, match="off the ladder"):
                sf.GammaLadder(0.5, top)(a)
        assert sf.GammaLadder(0.5, 0.5)(-2.5) == sf.log_upper_incomplete_gamma(-2.5, 0.5).value
        assert sf.GammaLadder(0.5, 0.5)(-2.5) == pytest.approx(0.0700, abs=1e-4)

    def test_integer_chains_start_at_e1(self, monkeypatch):
        # an integer order's chain is seeded at E_1(x), so no lnGamma(1, x)
        # from the lower series is formed, scoped or not
        calls = []
        series = sf._lower_p_series
        monkeypatch.setattr(sf, "_lower_p_series", lambda a, x: calls.append(x) or series(a, x))
        self._scoped([(a, x) for x in (0.2, 1.2) for a in (-3.0, -19.0, 0.0, -7.0)])
        sf.log_upper_incomplete_gamma(-4.0, 0.7)
        assert calls == []
        sf.log_upper_incomplete_gamma(-2.5, 0.7)     # seeded at Gamma(0.5, 0.7)
        assert calls == [0.7]


def test_the_walk_refuses_every_order_below_its_first_step_past_1e4():
    # from a start near 1 the first step cancels: it and every deeper order are
    # refused, on every later read too. Gamma(1e-6, 1e-4) by the series already
    # amplifies rounding 1.2e5-fold, so the orders below it are refused, though
    # the later steps would damp the start's error
    for x, top in ((0.1, 1.0 - 1e-10), (3.9, 1.0 - 1e-10), (1e-4, 1e-6)):
        ladder = sf.GammaLadder(x, top)
        for k in (1, 5, 1, 3):
            # the scalar function reads top - k from a ladder at this top as well
            assert (top - k + math.ceil(k - top)) % 1.0 == pytest.approx(top, abs=1e-15)
            with pytest.raises(sf.SpecialFunctionRangeError, match="amplifies rounding"):
                ladder(top - k)
            with pytest.raises(sf.SpecialFunctionRangeError, match="amplifies rounding"):
                sf.log_upper_incomplete_gamma(top - k, x)


@pytest.mark.parametrize("x", [1e-3, 0.04, 1.49, 1.5, 3.999, 4.001, 7.0, 35.0])
def test_ladder_truth_table(x):
    # integer orders 4 ... -120 on both sides of x_c = 4 against 30 digits; an
    # absolute error in ln Gamma of 5e-14, plus two ulps of the value, since at
    # x = 1e-3 |ln Gamma(-120, x)| is about 830, where one ulp is 1.1e-13
    ladder = sf.GammaLadder(x)
    with mpmath.workdps(30):
        for a in range(4, -121, -1):
            want = float(mpmath.log(mpmath.gammainc(a, x)))
            got = ladder(float(a))
            assert abs(got - want) <= 5e-14 + 2.0 * math.ulp(want), (a, x)
            assert got.hex() == sf.log_upper_incomplete_gamma(float(a), x).value.hex(), (a, x)


class TestWhittakerW:
    # W is evaluated on its incomplete-gamma family mu = +-(kappa + 1/2) only;
    # every other (kappa, mu) is refused with a message that names the family

    def test_incomplete_gamma_anchor(self):
        # Gamma(4, 1) = e^{-1/2} W_{3/2, 2}(1)
        got = math.exp(-0.5) * sf.whittaker_w(1.5, 2.0, 1.0).value
        assert got == pytest.approx(16.0 / math.e, rel=1e-12)

    def test_vanishing_first_parameter_is_elementary(self):
        # kappa = |mu| + 1/2 puts U at its unit value, an elementary W, but
        # off the family: refused
        for mu in (0.0, 0.5, 2.0, -1.5):
            for z in (0.3, 1.0, 6.0):
                with pytest.raises(sf.SpecialFunctionRangeError, match="family"):
                    sf.whittaker_w(abs(mu) + 0.5, mu, z)

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.5, 3.5, 5.0])
    @pytest.mark.parametrize("b", [-2.5, -0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("z", [0.4, 1.1, 3.0, 7.5, 16.0])
    def test_grid_against_u_integral_representation(self, a, b, z):
        # U(a,b,z) = (1/Gamma(a)) int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt;
        # W_{kappa,mu} with mu = (b-1)/2, kappa = mu + 1/2 - a is on the family
        # when a = 1, or when a = b (Kummer: U(a, a, z) = z^{1-a} U(1, 2-a, z))
        mu = 0.5 * (b - 1.0)
        kappa = mu + 0.5 - a
        if a != 1.0 and a != b:
            with pytest.raises(sf.SpecialFunctionRangeError, match="family"):
                sf.whittaker_w(kappa, mu, z)
            return

        def integrand(t):
            if t <= 0.0:
                return 0.0
            e = -z * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t)
            return math.exp(e) if e > -700.0 else 0.0

        u_oracle = integrate_semi_infinite(integrand, 0.0, rel_tol=1e-12).value \
            / math.gamma(a)
        got = sf.whittaker_w(kappa, mu, z).value
        want = math.exp(-0.5 * z) * z ** (mu + 0.5) * u_oracle
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("a,x", [(2.0, 0.5), (3.5, 1.2), (6.0, 4.0), (1.5, 9.0)])
    def test_gamma_identity_grid(self, a, x):
        # Gamma(a, x) = e^{-x/2} x^{(a-1)/2} W_{(a-1)/2, a/2}(x)
        w = sf.whittaker_w(0.5 * (a - 1.0), 0.5 * a, x).value
        lhs = sf.upper_incomplete_gamma(a, x).value
        rhs = math.exp(-0.5 * x) * x ** (0.5 * (a - 1.0)) * w
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_log_variant(self):
        # the value is the exponential of the one log route, and both name
        # the Gamma branch that ran: Gamma(-9, 0.04) and Gamma(4, 1)
        for (k, m, z), method in (((-5.0, -4.5, 0.04), "recurrence"),
                                  ((1.5, 2.0, 1.0), "series")):
            got = sf.whittaker_w(k, m, z)
            lg = sf.log_whittaker_w(k, m, z)
            assert got.value == math.exp(lg.value)
            assert got.method == lg.method == method

    def test_domain_error_and_overflow_signal(self):
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.whittaker_w(1.0, 1.0, 0.0)
        with pytest.raises(sf.SpecialFunctionOverflow):
            # huge mu at tiny z drives z^(-kappa) Gamma(2 kappa + 1, z) out of
            # double range
            sf.whittaker_w(54.5, 55.0, 1e-14)
        assert sf.log_whittaker_w(54.5, 55.0, 1e-14).value == pytest.approx(2162.49, abs=0.01)
        with pytest.raises(sf.SpecialFunctionRangeError, match="60"):
            sf.whittaker_w(60.5, 61.0, 1.0)

    def test_the_log_error_carries_the_gamma_branch(self):
        # W_{-5,-9/2}(0.04) = e^{0.02} 0.04^5 Gamma(-9, 0.04): the recurrence's
        # own estimate bounds W's from below; at x = 0.04 each ladder step damps
        # the error it inherits about 100-fold, so the walk carries about one
        # rounding unit, 1e-14 |ln Gamma| = 2.7e-13
        g = sf.log_upper_incomplete_gamma(-9.0, 0.04)
        lg = sf.log_whittaker_w(-5.0, -4.5, 0.04)
        assert 2e-13 < g.abs_error_estimate < 3e-13
        assert lg.abs_error_estimate >= g.abs_error_estimate

    def test_error_estimates_are_honest(self):
        for (k, m, z) in ((1.5, 2.0, 1.0), (-5.0, -4.5, 0.04), (0.5, -1.0, 3.0),
                          (-20.0, 19.5, 0.7), (54.5, 55.0, 20.0)):
            got = sf.whittaker_w(k, m, z)
            ref = float(mpmath.whitw(k, m, z))
            assert abs(got.value - ref) <= 10.0 * got.abs_error_estimate
