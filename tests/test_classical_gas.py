"""Classical-gas checks: printed formulas against their quadrature
oracles, limit behavior, and the documented FLAGGED deviations."""

import math
import re

import mpmath
import pytest

from anhgas import classical_gas as cg
from anhgas import cli, memo, oracles
from anhgas import specfun as sf
from anhgas.memo import memo_scope, shared_value
from anhgas.oracles import QuadratureResult, QuadratureResults, integrate_semi_infinite
from anhgas.params import OscillatorParams, ThermalState
from anhgas.reports import Status

# frozen golden values, computed from the defining integral at 20 digits
F_GOLDEN = {
    0.25: 0.16007854518007324399,
    0.5: 0.096598113157098369272,
    1.0: 0.046272862068145143083,
    2.0: 0.018555534471249118204,
    4.0: 0.0068252102727122858112,
}


def natural_state():
    return ThermalState.from_temperature(1.0)


# test-only cross-checks: Richardson-extrapolated central differences,
# the finite-difference route the exact integral forms replace

def richardson_derivative(g, x, h):
    d1 = (g(x + h) - g(x - h)) / (2.0 * h)
    d2 = (g(x + 0.5 * h) - g(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def richardson_f_derivative(x):
    return richardson_derivative(lambda y: cg.f_oracle(y).value, x, 1e-3 * max(x, 0.1))


def richardson_average_energy(p, t, log_extensive=0.0):
    """-d(ln Z)/d(beta) of the actual partition integrals; log_extensive
    is ln of a beta-independent factor such as a formal volume."""
    def log_z(b):
        state = ThermalState(T=1.0 / b, beta=b)
        return (log_extensive + math.log(4.0 * math.pi * p.m ** 3)
                + math.log(cg.kinetic_radial_integral(b * p.m, 1.0).value)
                + math.log(cg.position_radial_integral(p, state).value))

    return -richardson_derivative(log_z, t.beta, 1e-3 * t.beta)


def unscaled_sinh2_cosh(z):
    """int_0^inf sinh^2 s cosh s e^{-z cosh s} ds, quadrature of the unscaled integrand."""
    def f(s):
        if s <= 0.0 or s > 350.0:
            return 0.0
        e = 2.0 * cg._log_sinh(s) + cg._log_cosh(s) - z * math.cosh(s)
        return math.exp(e) if e > -745.0 else 0.0

    return integrate_semi_infinite(f, 0.0, rel_tol=1e-12).value


class TestHarmonicPartition:
    def test_natural_units_value(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        assert cg.harmonic_partition_z1(p, natural_state()) == pytest.approx(1.0)

    def test_cubic_temperature_homogeneity(self):
        p = OscillatorParams(m=1.3, omega=0.7)
        z1 = cg.harmonic_partition_z1(p, ThermalState.from_temperature(1.0))
        z2 = cg.harmonic_partition_z1(p, ThermalState.from_temperature(2.0))
        assert z2 / z1 == pytest.approx(8.0, rel=1e-14)

    def test_report_pairs_printed_formula_with_phase_space_quadrature(self):
        # the printed formula and the 6-D phase-space integral disagree by
        # construction (stray mass root, one phase-space power); the report
        # must carry that deviation openly rather than fail
        p = OscillatorParams(m=2.0, omega=3.0)
        t = ThermalState.from_temperature(1.5)
        rep = cg.harmonic_partition_z1_report(p, t)
        analytic_oracle = (2.0 * math.pi * 1.5 / 3.0) ** 3 / (2.0 * math.pi) ** 6
        assert rep.oracle == pytest.approx(analytic_oracle, rel=1e-8)
        assert rep.literal == pytest.approx(
            (2.0 * math.pi * 1.5 / (3.0 * math.sqrt(2.0))) ** 3 / (2.0 * math.pi) ** 3,
            rel=1e-14,
        )
        assert rep.status is Status.FLAGGED
        assert math.isfinite(rep.rel_dev)


class TestRelativisticHarmonicPartition:
    def test_dual_route_agreement_at_unit_rest_energy(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        rep = cg.relativistic_harmonic_partition_z2(p, natural_state())
        assert rep.status is Status.PASS
        assert rep.rel_dev <= 1e-7

    def test_low_temperature_reduction(self):
        # literal / [prefactor * sqrt(pi/2) z^(-3/2) e^(-z)] -> 1 as z grows
        p = OscillatorParams(m=1.0, omega=1.0)

        def ratio(temperature):
            t = ThermalState.from_temperature(temperature)
            z = cg.relativistic_z(p, t)
            rep = cg.relativistic_harmonic_partition_z2(p, t)
            pref = (4.0 * math.pi * (1.0 / (2.0 * math.pi) ** 2) ** 3
                    * (2.0 * math.pi * t.T) ** 1.5)
            asym = pref * math.sqrt(math.pi / 2.0) * z**-1.5 * math.exp(-z)
            return rep.literal / asym

        r80, r160 = ratio(1.0 / 80.0), ratio(1.0 / 160.0)
        assert r80 == pytest.approx(1.0, abs=0.05)
        assert abs(r160 - 1.0) < abs(r80 - 1.0)

    @pytest.mark.parametrize("m, T", [(1e-200, 1e308), (1e300, 1e-10)])
    def test_z_outside_double_range_is_named(self, m, T):
        # an underflowed z = 0 or an overflowed z = inf, not a Bessel domain error
        p = OscillatorParams(m=m, omega=1.0, lam=0.5)
        t = ThermalState.from_temperature(T)
        with pytest.raises(ArithmeticError, match=r"^z = m/T = (0\.0|inf) leaves double range"):
            cg.relativistic_z(p, t)

    def test_momentum_sphere_factor_is_extensive_only(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        t = natural_state()
        # the intensive <H> = -d(ln Z)/d(beta) does not see the factor Q:
        # with and without ln 2 in ln Z it is the moment ratio <H>
        want = cg._average_energy_moments(p, t)[0]
        for log_q in (0.0, math.log(2.0)):
            got = richardson_average_energy(p, t, log_extensive=log_q)
            assert got == pytest.approx(want, rel=1e-10)


class TestQuarticGaussianF:
    def test_pure_quartic_limit(self):
        assert cg.f_oracle(0.0).value == pytest.approx(math.gamma(0.75) / 4.0, rel=1e-9)

    @pytest.mark.parametrize("x", [-1.0, math.inf, math.nan])
    def test_f_oracle_refuses_x_off_its_domain(self, x):
        # x = inf (lam = 1e-320 at m = w = T = 1) has no finite support to
        # integrate over: refused by name, not a 0 or a NaN node
        with pytest.raises(ValueError, match="F requires a finite x >= 0"):
            cg.f_oracle(x)

    def test_f_oracle_at_huge_x(self):
        # F(x) = sqrt(pi) / (4 (4x)^{3/2}) (1 - 15/(64 x^2) + ...) as x -> inf; the
        # conditioning scale and the cut take hypot, so x = 1e160 has both finite
        res = cg.f_oracle(1e160)
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi) / 4.0 * 4e160 ** -1.5, rel=1e-12)

    @pytest.mark.parametrize("x,golden", sorted(F_GOLDEN.items()))
    def test_golden_values(self, x, golden):
        res = cg.f_oracle(x)
        assert res.converged
        assert res.value == pytest.approx(golden, rel=1e-10)

    def test_two_transforms_agree(self):
        # same integral through the engine's rational map and over the exp
        # coordinate u = -ln(1 - t), du = dt/(1 - t)
        x = 1.0

        def f(u):
            e = -4.0 * x * u * u - u**4
            return u * u * math.exp(e) if e > -745.0 else 0.0

        r1 = integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
        r2 = oracles.integrate_finite(lambda t: f(-math.log(1.0 - t)) / (1.0 - t),
                                      0.0, 1.0, rel_tol=1e-12)
        assert r1.value == pytest.approx(r2.value, rel=1e-9)

    def test_representative_independence(self):
        t = natural_state()
        x = 0.7
        values = []
        for (m, omega) in ((1.0, 1.0), (4.0, 0.5), (0.3, 2.0)):
            lam = m * m * omega**4 / (64.0 * x * x)
            p = OscillatorParams(m=m, omega=omega, lam=lam)
            # F through this (m, w, lam, T): the radial quadrature over (T/lam)^(3/4)
            values.append(cg.position_radial_integral(p, t).value / (t.T / lam) ** 0.75)
        spread = max(values) - min(values)
        assert spread <= 1e-9 * min(values)
        assert values[0] == pytest.approx(cg.f_oracle(x).value, rel=1e-9)

    def test_decreasing_in_x(self):
        # stiffer confinement shrinks the configuration integral
        xs = [0.2 * k for k in range(51)]
        vals = [cg.f_oracle(x).value for x in xs]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", sorted(F_GOLDEN))
    def test_printed_closed_form_deviates_by_constant_factor(self, x):
        # verbatim evaluation is positive but exactly 4x the integral; the
        # artifact records this as a FLAGGED deviation, never silently fixes
        closed = cg.f_closed_form(x)
        oracle = cg.f_oracle(x).value
        assert closed > 0.0
        assert closed / oracle == pytest.approx(4.0, rel=1e-9)

    def test_closed_form_survives_large_x(self):
        # e^{2x^2} overflow region handled through the pass's scaled log
        got = cg.f_closed_form(25.0)
        assert math.isfinite(got)
        assert got == pytest.approx(4.0 * cg.f_oracle(25.0).value, rel=1e-8)

    @pytest.mark.parametrize("x", [0.0625, 1.5, 30.0, 1e3, 1e4, 1e8])
    def test_printed_closed_form_against_high_precision(self, x):
        # the printed -(K/(4 sqrt x) + 2 x^{3/2} (K + K')) e^{2x^2}, K = K_{1/4}(2x^2),
        # with K' = -(K_{-3/4} + K_{5/4})/2 (DLMF 10.29.1), at digits enough for
        # K + K', which cancels by about 2x^2
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)
            w = 2 * xm * xm
            k = mpmath.besselk(0.25, w)
            kp = -(mpmath.besselk(-0.75, w) + mpmath.besselk(1.25, w)) / 2
            want = -(k / (4 * mpmath.sqrt(xm)) + 2 * xm ** 1.5 * (k + kp)) * mpmath.exp(w)
            assert abs(cg.f_closed_form(x) - want) <= 1e-14 * want

    @pytest.mark.parametrize("x", [1e-5, 1e-20])
    def test_printed_closed_form_refuses_its_cancellation(self, x):
        # 2wt - 1 amplifies rounding by about 0.75/x; at x = 1e-20 it is exactly 0
        with pytest.raises(ArithmeticError, match="cancels at x=.*more than 1e4-fold"):
            cg.f_closed_form(x)

    def test_printed_closed_form_is_four_times_f_at_x_1e4(self):
        # omega = 100 at T = 1/32 gives x = 1e4 (z = 32), where the parent's
        # K + K' cancelled to -4 times F; both rows that print F read 4
        cfg = cli.RunConfig.from_dict({"oscillator": {"omega": 100.0, "lam": 0.5, "mu": 0.1}})
        with memo_scope():
            rows, _ = cli._classical_point(cfg, 0.03125)
            reports = {name: cli._row({"T": 0.03125}, name, thunk) for name, thunk in rows}
        assert reports["f_function"].options_used["x"] == 1e4
        for name in ("f_function", "vibrational_partition"):
            assert reports[name].literal / reports[name].oracle == pytest.approx(4.0, rel=1e-12)

    def test_derivative_at_zero_is_minus_gamma_five_quarters(self):
        # F^(k+1)(0) = (-4)^(k+1) Gamma((5 + 2k)/4) / 4; a difference
        # clamped at x = 0 returns about half of F'(0) here
        # F'(x) is -4 times component 1 of the (F, F') pass
        fp = -4.0 * cg._quartic_gaussian(0.0)[1].value
        assert fp == pytest.approx(-math.gamma(1.25), rel=1e-12)
        x = 1e-6
        want = -math.gamma(1.25) + 4.0 * math.gamma(1.75) * x - 8.0 * math.gamma(2.25) * x * x
        assert -4.0 * cg._quartic_gaussian(x)[1].value == pytest.approx(want, rel=1e-12)

    def test_derivative_matches_richardson_difference(self):
        xs = [1e-3 * (4e5) ** (k / 24) for k in range(25)]     # 1e-3 ... 400
        for x in xs:
            fp = -4.0 * cg._quartic_gaussian(x)[1].value
            assert fp == pytest.approx(richardson_f_derivative(x), rel=1e-10)

    def test_derivative_matches_quartic_moment(self):
        # dF/dx = -4 int u^4 exp(-4x u^2 - u^4) du
        x = 0.8

        def f(u):
            e = -4.0 * x * u * u - u**4
            return u**4 * math.exp(e) if e > -745.0 else 0.0

        want = -4.0 * integrate_semi_infinite(f, 0.0, rel_tol=1e-12).value
        assert -4.0 * cg._quartic_gaussian(x)[1].value == pytest.approx(want, rel=1e-7)


class TestGFunction:
    def test_value_at_one(self):
        k0 = 0.42102443824070834
        k1 = 0.60190723019723458
        assert cg.g_function(1.0) == pytest.approx(k0 + 2.0 * k1, rel=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0])
    def test_defining_integral_pins_the_corrected_combination(self, z):
        quad = unscaled_sinh2_cosh(z)
        assert cg.g_function_corrected(z) / z**3 == pytest.approx(quad, rel=1e-8)
        if z != 1.0:
            # the printed power placement misses the same integral
            assert abs(cg.g_function(z) / z**3 - quad) > 1e-2 * quad
        else:
            assert cg.g_function(z) == pytest.approx(cg.g_function_corrected(z))

    def test_printed_large_x_normalization(self):
        # the printed combination is dominated by 2 x^2 K_1 ~ 2 x^2 sqrt(pi/2x) e^-x
        x = 200.0
        k1_scaled = 2.0 * x * x * math.sqrt(math.pi / (2.0 * x))
        assert cg.g_function(x) * math.exp(x) / k1_scaled == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("z", [1e6, 1e7, 1e8, 1e10, 1e14, 1e16])
    def test_the_kinetic_pass_resolves_large_z(self, z):
        # the weight is about 1/sqrt(z) wide: over its finite support, with
        # cosh t - 1 and ln sinh t formed without cancelling (1e14, 1e16: the
        # weight sits near t = 1e-7), each pass converges in 225 evaluations
        # on e^z (z^2 K_0 + 2z K_1)/z^3, read from specfun's K pass
        lks, t = sf.bessel_k_pair(0.0, z)
        want = math.exp(lks.value) * (z * z + 2.0 * z * (1.0 + t)) / z**3
        with memo_scope():
            res = cg._kinetic_scaled(z, 1.0)
        assert res.converged and res.evaluations == 225
        assert res[0].value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("z, value", [(1e200, r"1\.19\d*e-300"), (1e300, r"0\.0")],
                             ids=["1e200", "1e300"])
    def test_a_kinetic_pass_that_underflows_is_named(self, z, value):
        # e^z int sinh^2 t cosh t e^{-z cosh t} dt ~ sqrt(pi/2) z^{-3/2}: 1.25e-300
        # at z = 1e200, where the engine's absolute floor 1e-300, not rel_tol,
        # would end the pass as converged on 1.196e-300 (4.6% off), and 1.25e-450,
        # which underflows to 0, at 1e300
        tail = rf" falls to the quadrature's absolute floor at z={re.escape(repr(z))}$"
        with memo_scope():
            with pytest.raises(ArithmeticError, match=f"dt = {value}{tail}"):
                cg.kinetic_radial_integral(z, 1.0)

    @pytest.mark.parametrize("z", [0.01, 1.0, 30.0])
    @pytest.mark.parametrize("k", [-5.0, -3.0, -2.5, -1.0])
    def test_the_kinetic_cut_holds_for_a_negative_power(self, z, k):
        # below k = -2, (2 + k) t no longer bounds ln(sinh^2 t cosh^k t): the cut
        # uses 2t there, and the pass agrees with the map over t to rounding
        def weight(t):
            if not 0.0 < t < 350.0:
                return 0.0
            e = cg._log_sinh2_cosh(t, k) - z * (math.cosh(t) - 1.0)
            return math.exp(e) if e > -745.0 else 0.0

        want = integrate_semi_infinite(weight, 0.0, rel_tol=1e-11)
        with memo_scope():
            res = cg._kinetic_scaled(z, k)[0]
        assert res.converged and want.converged
        assert res.value == pytest.approx(want.value, rel=1e-14)

    @pytest.mark.parametrize("z", [0.5, 1.0, 10.0])
    def test_radial_integral_rescales_the_shared_quadrature(self, z):
        with memo_scope():
            res = cg.kinetic_radial_integral(z, 1.0)
            scaled = memo.current()[(cg._kinetic_scaled, z, 1.0)][0]   # of the (1, 2) pass
        s = math.exp(-z)
        assert res.value.hex() == (scaled.value * s).hex()
        assert res.abs_error_estimate.hex() == (scaled.abs_error_estimate * s).hex()
        assert (res.evaluations, res.converged) == (scaled.evaluations, scaled.converged)
        # the unscaled quadrature agrees to rounding
        assert res.value == pytest.approx(unscaled_sinh2_cosh(z), rel=1e-13)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("z", [math.nan, 0.0, -1.0])
    def test_kinetic_integral_refuses_a_nonpositive_z(self, z, k, monkeypatch):
        # no integral exists there: refused before any quadrature, not a
        # converged 0.0 (NaN) or an unconverged magnitude (z = 0)
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(cg, "integrate_finite", no_quadrature)
        with pytest.raises(ValueError, match=rf"requires z > 0, got z={z!r}$"):
            cg.kinetic_radial_integral(z, k)


class TestPositionWeight:
    @pytest.mark.parametrize("m, lam, T", [(1e10, 0.5, 1e-300), (1.0, 1e300, 1e-10)])
    def test_a_weight_without_width_is_refused(self, m, lam, T):
        # beta m w^2 / 2 or beta lam overflows: the weight's width is 0, and
        # the position pass is refused by name instead of returning 0
        p = OscillatorParams(m=m, omega=1.0, lam=lam)
        with pytest.raises(OverflowError, match=r"beta m w\^2 / 2 = .* or beta lam = .* overflows"):
            cg.position_radial_integral(p, ThermalState.from_temperature(T))


class TestAnharmonicPartition:
    def test_dual_route_at_unit_rest_energy(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        rep = cg.anharmonic_relativistic_partition(p, natural_state())
        assert rep.status is Status.PASS
        assert rep.rel_dev <= 1e-6

    def test_flagged_away_from_unit_rest_energy(self):
        # the printed G cancels its power swap only at z = 1
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        t = ThermalState.from_temperature(0.5)
        rep = cg.anharmonic_relativistic_partition(p, t)
        assert rep.status is Status.FLAGGED
        z = 2.0
        want_ratio = z**3 * cg.g_function(z) / cg.g_function_corrected(z)
        assert rep.literal / rep.oracle == pytest.approx(want_ratio, rel=1e-6)

    def test_unconverged_quadratures_are_named(self, monkeypatch):
        # a 15-evaluation budget leaves all three quadratures unconverged;
        # their rel_dev, 0.044, would read FLAGGED without the names
        monkeypatch.setattr(oracles, "_MAX_EVALS", 15)
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        rep = cg.anharmonic_relativistic_partition(p, natural_state())
        assert rep.status is Status.ERROR
        assert rep.provenance.split("; unconverged quadrature: ", 1)[1] == (
            "F(x) = int u^2 e^{-4x u^2 - u^4} du; int sinh^2 s cosh s e^{-z cosh s} ds; "
            "int r^2 e^{-beta V(r)} dr")

    # the vibrational factor 4 pi (kT/lam)^(3/4) F(x) is the oracle of the
    # vibrational_partition row, 4 pi times the radial quadrature
    def test_vibrational_factor_gaussian_limit(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-6)
        got = 4.0 * math.pi * cg.position_radial_integral(p, natural_state()).value
        assert got == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-3)

    def test_vibrational_partition_increasing_in_temperature(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5)
        temps = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]
        vals = [4.0 * math.pi
                * cg.position_radial_integral(p, ThermalState.from_temperature(T)).value
                for T in temps]
        assert all(a < b for a, b in zip(vals, vals[1:]))


FIVE_POINTS = [
    OscillatorParams(m=1.0, omega=1.0, lam=1.0),
    OscillatorParams(m=1.0, omega=1.0, lam=0.5),
    OscillatorParams(m=1.0, omega=2.0, lam=1.0),
    OscillatorParams(m=2.0, omega=1.0, lam=1.0),
    OscillatorParams(m=1.0, omega=1.5, lam=2.0),
]


class TestAverageEnergy:
    def test_oracle_self_consistency(self):
        # -d(ln Z)/d(beta) must equal the weighted quadrature ratio <H>
        for p in FIVE_POINTS:
            t = natural_state()
            fd = richardson_average_energy(p, t)
            ratio = cg._average_energy_moments(p, t)[0]
            assert fd == pytest.approx(ratio, rel=1e-5)

    def test_moment_oracle_matches_log_derivative(self):
        temps = [0.005 * 40000 ** (k / 11) for k in range(12)]     # 0.005 ... 200
        for p in FIVE_POINTS:
            for T in temps:
                t = ThermalState.from_temperature(T)
                assert cg._average_energy_moments(p, t)[0] == pytest.approx(
                    richardson_average_energy(p, t), rel=1e-10)

    def test_report_oracle_is_the_moment_ratio(self):
        p = OscillatorParams(m=1.0, omega=1.5, lam=2.0)
        t = ThermalState.from_temperature(0.7)
        rep = cg.average_energy_classical(p, t)
        assert float.hex(rep.oracle) == float.hex(cg._average_energy_moments(p, t)[0])
        assert "<m c^2 cosh s> + <V(r)>" in rep.provenance

    def test_handed_f_gives_the_same_report(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5)
        t = ThermalState.from_temperature(0.4)
        with memo_scope():
            shared_value(cg.f_oracle, cg.coupling_x(p, t))
            handed = cg.average_energy_classical(p, t)
        assert handed == cg.average_energy_classical(p, t)

    def test_classical_point_runs_no_quadrature_for_the_row(self, monkeypatch):
        # F(x) and F'(x) come from the f_function row's (F, F') pass, the
        # e^z-scaled kinetic integral and its cosh^2 moment from the
        # relativistic_harmonic_partition_z2 row's pass, and the position
        # norm and its potential moment from the vibrational_partition row's
        # pass; the row itself runs none
        inside = []
        calls = []
        row = cg.average_energy_classical
        quad = cg.integrate_finite

        def traced_row(*args, **kwargs):
            inside.append(True)
            try:
                return row(*args, **kwargs)
            finally:
                inside.pop()

        def counted_quad(*args, **kwargs):
            if inside:
                calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(cg, "average_energy_classical", traced_row)
        monkeypatch.setattr(cg, "integrate_finite", counted_quad)
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        with memo_scope():      # the scope cli._sweep opens for one grid point
            rows, _ = cli._classical_point(cfg, 1.3)
            reports = [cli._row({"T": 1.3}, name, thunk) for name, thunk in rows]
        assert reports[-1].quantity_name == "average_energy_classical"
        assert len(calls) == 0

    @pytest.mark.parametrize("T, want", [(0.1, 3), (1.3, 3)])
    def test_classical_point_computes_each_shared_value_once(self, monkeypatch, T, want):
        # K_0(z), K_1(z), the printed F(x) and the three quadrature passes,
        # (F, F'), the e^z-scaled kinetic pair and the position pair, are
        # computed once per temperature: three quadratures, on either side of
        # bessel_k's x_c (z = 10 and 1/1.3), where K runs no quadrature
        calls = []
        quad = oracles.integrate_finite

        def counted_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(cg, "integrate_finite", counted_quad)
        monkeypatch.setattr(oracles, "integrate_finite", counted_quad)
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        with memo_scope():
            rows, _ = cli._classical_point(cfg, T)
            reports = [cli._row({"T": T}, name, thunk) for name, thunk in rows]
        assert len(reports) == 6 and Status.ERROR not in {r.status for r in reports}
        assert len(calls) == want

    @pytest.mark.parametrize("T", [0.1, 1.3])
    def test_classical_point_makes_two_k_passes(self, monkeypatch, T):
        # G(z), Z_2 and <H> read K_0(z), K_1(z) from one pass at (0, z), and
        # the printed F reads K_{1/4}, K_{5/4} and K' from one at (1/4, 2x^2);
        # the parent made seven K passes here
        calls = []
        pair = sf.bessel_k_pair

        def counted_pair(nu, x):
            calls.append((nu, x))
            return pair(nu, x)

        monkeypatch.setattr(sf, "bessel_k_pair", counted_pair)
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        t = ThermalState.from_temperature(T)
        z, x = cg.relativistic_z(cfg.oscillator, t), cg.coupling_x(cfg.oscillator, t)
        with memo_scope():
            rows, _ = cli._classical_point(cfg, T)
            reports = [cli._row({"T": T}, name, thunk) for name, thunk in rows]
        assert Status.ERROR not in {r.status for r in reports}
        assert sorted(calls) == [(0.0, z), (0.25, 2.0 * x * x)]

    @pytest.mark.parametrize("T", [0.1, 1.3])
    def test_g_function_oracle_is_the_shared_scaled_integral(self, T):
        # e^{-z} times the e^z-scaled kinetic integral of the memo scope, which
        # relativistic_harmonic_partition_z2 and average_energy_classical hold
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        z = cg.relativistic_z(cfg.oscillator, ThermalState.from_temperature(T))
        with memo_scope():
            rows, _ = cli._classical_point(cfg, T)
            reports = {name: cli._row({"T": T}, name, thunk) for name, thunk in rows}
            scaled = memo.current()[(cg._kinetic_scaled, z, 1.0)][0]
        want = scaled.value * math.exp(-z) * z**3
        assert reports["g_function"].oracle.hex() == want.hex()

    def test_vibrational_row_and_average_energy_share_the_position_norm(self, monkeypatch):
        # one scope, one quadrature: the vibrational_partition row holds the
        # average energy's norm int r^2 e^{-beta V(r)} dr, rescaled to r
        held = {}

        def recording(real):
            def record(name, *args, **kwargs):
                held[name] = kwargs["quadratures"] if "quadratures" in kwargs else args[5]
                return real(name, *args, **kwargs)
            return record

        monkeypatch.setattr(cli, "compare", recording(cli.compare))
        monkeypatch.setattr(cg, "compare", recording(cg.compare))
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        t = ThermalState.from_temperature(1.3)
        scale = cg._position_weight(cfg.oscillator, t.beta)[2]
        with memo_scope():
            rows, _ = cli._classical_point(cfg, 1.3)
            for name, thunk in rows:
                cli._row({"T": 1.3}, name, thunk)
            norm = memo.current()[(cg._position_integral, cfg.oscillator, t.beta)][0]
        name = "int r^2 e^{-beta V(r)} dr"
        assert held["average_energy_classical"][name] is norm
        assert held["vibrational_partition"][name] == QuadratureResult(
            norm.value * scale, norm.abs_error_estimate * scale,
            norm.evaluations, norm.converged)

    def test_unconverged_quadrature_is_error(self, monkeypatch):
        # a 15-evaluation budget leaves every quadrature at one panel
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        t = natural_state()
        monkeypatch.setattr(oracles, "_MAX_EVALS", 15)
        rep = cg.average_energy_classical(p, t)
        assert rep.status is Status.ERROR
        assert math.isfinite(rep.literal) and math.isfinite(rep.oracle)
        prov = rep.provenance.split("; unconverged quadrature: ", 1)[1]
        assert "F'(x) = -4 int u^4 e^{-4x u^2 - u^4} du" in prov
        assert "int r^2 e^{-beta V(r)} dr" in prov
        # the oracle's moment ratio keeps its float value
        assert isinstance(cg._average_energy_moments(p, t)[0], float)

    def test_unconverged_handed_f_is_named(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        t = natural_state()
        x = cg.coupling_x(p, t)
        good, fp_q = cg._quartic_gaussian(x)
        bad = QuadratureResult(good.value, 1.0, 15, False)

        def report_with(f_q):
            # the (F, F') pass with the given F
            with memo_scope():
                memo.current()[(cg._quartic_gaussian, x)] = QuadratureResults((f_q, fp_q))
                return cg.average_energy_classical(p, t)

        rep = report_with(bad)
        assert rep.status is Status.ERROR
        assert rep.provenance.endswith(
            "; unconverged quadrature: F(x) = int u^2 e^{-4x u^2 - u^4} du")
        assert report_with(good).status is not Status.ERROR

    def test_classical_point_names_every_unconverged_quadrature(self, monkeypatch):
        # with a 15-evaluation budget and an unconverged unit Gaussian, no
        # row of a temperature may PASS or FLAG on an unconverged oracle
        monkeypatch.setattr(oracles, "_MAX_EVALS", 15)
        unit = cg._UNIT_RADIAL_GAUSSIAN
        monkeypatch.setattr(cg, "_UNIT_RADIAL_GAUSSIAN",
                            QuadratureResult(unit.value, 1.0, 15, False))
        named = {
            "harmonic_partition_z1": "int v^2 e^{-v^2} dv",
            "relativistic_harmonic_partition_z2": "int sinh^2 s cosh s e^{-z cosh s} ds",
            "vibrational_partition": "int r^2 e^{-beta V(r)} dr",
            "f_function": "F(x) = int u^2 e^{-4x u^2 - u^4} du",
            "g_function": "int sinh^2 s cosh s e^{-z cosh s} ds",
            "average_energy_classical": "F'(x) = -4 int u^4 e^{-4x u^2 - u^4} du",
        }
        cfg = cli.RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
        with memo_scope():
            rows, _ = cli._classical_point(cfg, 1.3)
            reports = [cli._row({"T": 1.3}, name, thunk) for name, thunk in rows]
        assert [r.quantity_name for r in reports] == list(named)
        assert [r.status for r in reports] == [Status.ERROR] * len(named)
        for rep in reports:
            prov = rep.provenance.split("; unconverged quadrature: ", 1)[1]
            assert named[rep.quantity_name] in prov
        z2 = reports[1].provenance.split("; unconverged quadrature: ", 1)[1]
        assert z2 == "int sinh^2 s cosh s e^{-z cosh s} ds; int v^2 e^{-v^2} dv"

    def test_dual_route_report_records_deviation(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        rep = cg.average_energy_classical(p, natural_state())
        assert rep.status in (Status.PASS, Status.FLAGGED)
        assert math.isfinite(rep.rel_dev)
        assert rep.abs_dev == pytest.approx(abs(rep.literal - rep.oracle))

    def test_pure_quartic_virial(self):
        # vanishing stiffness: <potential> -> (3/4) kT for the r^4 well
        p = OscillatorParams(m=1.0, omega=1e-3, lam=1.0)
        t = natural_state()
        beta = t.beta

        def w(v, with_h):
            e = -0.5 * beta * p.m * p.omega**2 * v * v - beta * p.lam * v**4
            if e <= -745.0:
                return 0.0
            base = v * v * math.exp(e)
            return base * (0.5 * p.m * p.omega**2 * v * v + p.lam * v**4) if with_h else base

        num = integrate_semi_infinite(lambda v: w(v, True), 0.0, rel_tol=1e-11).value
        den = integrate_semi_infinite(lambda v: w(v, False), 0.0, rel_tol=1e-11).value
        assert num / den == pytest.approx(0.75, rel=1e-4)

    def test_ultrarelativistic_kinetic_energy(self):
        # z -> 0: the kinetic quadrature ratio approaches 3 kT
        p = OscillatorParams(m=1e-3, omega=1.0, lam=1.0)
        t = natural_state()
        total = cg._average_energy_moments(p, t)[0]
        p_heavy_pot = 0.75  # the quartic-dominated vibrational share: lam r^4 with w ~ 1
        # isolate the kinetic part by subtracting the vibrational quadrature ratio
        beta = t.beta

        def w(v, with_h):
            e = -0.5 * beta * p.m * p.omega**2 * v * v - beta * p.lam * v**4
            if e <= -745.0:
                return 0.0
            base = v * v * math.exp(e)
            return base * (0.5 * p.m * p.omega**2 * v * v + p.lam * v**4) if with_h else base

        pot = (integrate_semi_infinite(lambda v: w(v, True), 0.0).value
               / integrate_semi_infinite(lambda v: w(v, False), 0.0).value)
        kin = total - pot
        assert kin == pytest.approx(3.0, rel=1e-3)

    def test_metropolis_vs_quadrature(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        t = natural_state()
        mean, err, _ = cg.average_energy_metropolis(p, t, n_samples=50_000, seed=414)
        want = cg._average_energy_moments(p, t)[0]
        assert abs(mean - want) <= 3.0 * err

    def test_degenerate_harmonic_input_rejected(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.0)
        with pytest.raises(ValueError, match="quartic"):
            cg.average_energy_classical(p, natural_state())


class TestAverageEnergyAtLowTemperature:
    # z = m/T = 1000 and 833: K_0(z) and K_1(z) leave double range, but the
    # printed G'(z)/G(z) needs only K_1/K_0 = 1 + t, where K_0 cancels
    CFG = {"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1}}

    @pytest.mark.parametrize("T, literal, oracle", [
        (0.001, 0.99999354792335393, 1.0029945471728718),
        (0.0012, 0.99999075685511751, 1.0035921955580445),
    ])
    def test_the_average_energy_has_values(self, T, literal, oracle):
        cfg = cli.RunConfig.from_dict(self.CFG)
        with memo_scope():
            rows, _ = cli._classical_point(cfg, T)
            reports = {name: cli._row({"T": T}, name, thunk) for name, thunk in rows}
        rep = reports["average_energy_classical"]
        assert rep.status is Status.FLAGGED
        assert rep.literal == pytest.approx(literal, rel=1e-12)
        assert rep.oracle == pytest.approx(oracle, rel=1e-12)
        assert rep.rel_dev == pytest.approx(abs(literal - oracle) / oracle, rel=1e-9)
        # the printed G(z) and the relativistic Z_2 print K_0(z) itself, about
        # e^-1000, which no double holds: they stay ERROR and say so
        for name in ("g_function", "relativistic_harmonic_partition_z2"):
            assert reports[name].status is Status.ERROR
            assert "leaves double range" in reports[name].provenance

    @pytest.mark.parametrize("T", [0.1, 0.7, 1.3, 5.0])
    def test_the_kinetic_term_is_minus_m_dlnG_dz(self, T):
        # where K_0 and K_1 are representable, the literal's -m G'(z)/G(z) from
        # K_1/K_0 is -m d ln G/dz of the printed g_function, by a Richardson-
        # extrapolated central difference (within 5e-13 on these four points)
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5)
        t = ThermalState.from_temperature(T)
        z, x = cg.relativistic_z(p, t), cg.coupling_x(p, t)
        f_q, fp_q = cg._quartic_gaussian(x)
        vibrational = (0.75 * t.T + math.sqrt(p.m**2 * p.omega**4 * t.T / (256.0 * p.lam))
                       * 4.0 * fp_q.value / f_q.value)
        kinetic = cg.average_energy_classical(p, t).literal - vibrational
        fd = richardson_derivative(lambda s: math.log(cg.g_function(s)), z, 1e-3 * z)
        assert kinetic == pytest.approx(-p.m * fd, rel=1e-11)
