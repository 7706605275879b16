"""Quantum-gas checks: exact matrix elements, perturbation theory against
diagonalization, the positivity cutoff, mode sums, energy densities, and
the triple-series terms against their tail-integral oracles."""

import math
from unittest import mock

import numpy as np
import pytest

from anhgas import memo
from anhgas import quantum_gas as qg
from anhgas.memo import memo_scope
from anhgas.oracles import diagonalize_truncated, integrate_finite, integrate_semi_infinite
from anhgas.params import OscillatorParams, ThermalState
from anhgas.reports import Status

S = 0.5   # hbar / (2 m w) at natural parameters


def t_of(temperature):
    return ThermalState.from_temperature(temperature)


class TestPositionPowerMatrices:
    def test_x2_diagonal(self):
        mat = qg.position_power_matrix(2, 10, 1.0, 1.0)
        n = np.arange(10)
        assert np.allclose(np.diag(mat), S * (2 * n + 1), rtol=0, atol=0)

    def test_x4_diagonal(self):
        mat = qg.position_power_matrix(4, 10, 1.0, 1.0)
        n = np.arange(10.0)
        assert np.allclose(np.diag(mat), S * S * (6 * n * n + 6 * n + 3),
                           rtol=1e-15, atol=0)

    def test_x3_third_off_diagonal(self):
        mat = qg.position_power_matrix(3, 12, 1.0, 1.0)
        for n in range(9):
            want = S**1.5 * math.sqrt((n + 1) * (n + 2) * (n + 3))
            assert mat[n + 3, n] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("power", [2, 3, 4])
    def test_brute_force_product_oracle(self, power):
        # multiply out x at a larger dimension, then truncate
        n_dim = 14
        x1 = qg.position_power_matrix(1, n_dim + 8, 1.0, 1.0)
        brute = np.linalg.matrix_power(x1, power)[:n_dim, :n_dim]
        mine = qg.position_power_matrix(power, n_dim, 1.0, 1.0)
        assert np.max(np.abs(brute - mine)) < 1e-13

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_bandwidth_and_symmetry(self, power):
        mat = qg.position_power_matrix(power, 16, 2.0, 0.7)
        assert np.max(np.abs(mat - mat.T)) <= 1e-14 * max(1.0, np.max(np.abs(mat)))
        for r in range(16):
            for c in range(16):
                if abs(r - c) > power:
                    assert mat[r, c] == 0.0

    def test_dimension_floor(self):
        with pytest.raises(ValueError, match="too small"):
            qg.position_power_matrix(4, 5, 1.0, 1.0)


def dense_rspt_shift(n, p, order):
    # the same sums over a dense basis: H_I at n + 20 states, row n summed by
    # numpy over every k != n
    n_dim = n + 20
    h_i = p.mu * qg.position_power_matrix(3, n_dim, p.m, p.omega) \
        + p.lam * qg.position_power_matrix(4, n_dim, p.m, p.omega)
    k = np.arange(n_dim)
    mask = k != n
    first = float(h_i[n, n])
    second = float(np.sum(h_i[n, mask] ** 2 / (p.omega * (n - k[mask]))))
    return {"first": first, "second": second, "both": first + second}[order]


class TestPerturbativeShifts:
    @pytest.mark.parametrize("m, omega", [(1.0, 1.0), (2.0, 0.7), (0.3, 4.0)])
    @pytest.mark.parametrize("lam, mu", [(0.3, 0.0), (0.0, 0.4), (0.3, 0.4), (1e-3, 2.0)])
    def test_band_window_equals_the_dense_basis(self, m, omega, lam, mu):
        # H_I has bandwidth 4, so the states |k - n| <= 4 hold every term
        p = OscillatorParams(m=m, omega=omega, lam=lam, mu=mu)
        for n in range(11):
            for order in ("first", "second", "both"):
                assert qg.rspt_shift(n, p, order) == pytest.approx(
                    dense_rspt_shift(n, p, order), rel=1e-13, abs=0.0)

    def test_quartic_first_order_matches_printed_exactly(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-3)
        for n in range(6):
            lit = qg.literal_shift(n, p, "first")
            gen = qg.rspt_shift(n, p, "first")
            assert gen == pytest.approx(lit, rel=1e-13)

    def test_cubic_second_order_standard_sum(self):
        # four intermediate states k = n +- 1, n +- 3 give
        # -(mu^2 hbar^2 / 8 m^3 w^4) (30 n^2 + 30 n + 11)
        p = OscillatorParams(m=1.0, omega=1.0, mu=1e-3)
        for n in range(4):
            want = -(p.mu**2 / 8.0) * (30 * n * n + 30 * n + 11)
            assert qg.rspt_shift(n, p, "second") == pytest.approx(want, rel=1e-12)

    def test_cubic_printed_coefficient_is_flagged(self):
        p = OscillatorParams(m=1.0, omega=1.0, mu=1e-3)
        rep = qg.perturbative_shift(0, p, "second")
        assert rep.status is Status.FLAGGED
        assert rep.literal == pytest.approx(-(p.mu**2 / 16.0) * 5.0, rel=1e-12)
        assert rep.oracle == pytest.approx(-(p.mu**2 / 8.0) * 11.0, rel=1e-12)
        assert rep.rel_dev == pytest.approx(abs(5.0 / 16.0 - 11.0 / 8.0) / (11.0 / 8.0),
                                            rel=1e-12)

    def test_no_perturbation_no_shift(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        for order in ("first", "second", "both"):
            assert qg.literal_shift(0, p, order) == 0.0
            assert qg.rspt_shift(0, p, order) == 0.0

    def test_printed_shift_skips_a_zero_cubic_coupling(self):
        # omega^4 underflows to 0 at omega = 1e-100; with mu = 0 the printed
        # cubic term is not evaluated, so both orders give the quartic shift
        p = OscillatorParams(m=1.0, omega=1e-100, lam=1.0)
        for n in range(6):
            first = qg.literal_shift(n, p, "first")
            assert math.isfinite(first)
            assert qg.literal_shift(n, p, "both") == first
        # a nonzero cubic coupling still divides by the underflowed omega^4
        with pytest.raises(ZeroDivisionError):
            qg.literal_shift(0, OscillatorParams(m=1.0, omega=1e-100, mu=1e-3), "both")

    def test_second_order_quartic_included_by_engine(self):
        # the generic engine picks up the lam^2 second-order piece the
        # printed formulas neglect
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-2)
        second = qg.rspt_shift(0, p, "second")
        assert second < 0.0
        assert abs(second) < abs(qg.rspt_shift(0, p, "first"))

    def test_third_order_residual_scaling_quartic(self):
        # the residual beyond second order shrinks by ~8 when the coupling
        # halves; the prefactor itself grows steeply with n
        resid = {}
        for lam_tilde in (1e-3, 5e-4):
            p = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * lam_tilde)
            evals = diagonalize_truncated(qg.oscillator_hamiltonian(220, p), 4)
            resid[lam_tilde] = [
                abs(evals[n] - ((n + 0.5) + qg.rspt_shift(n, p, "both")))
                for n in range(4)
            ]
        for n in range(4):
            ratio = resid[1e-3][n] / resid[5e-4][n]
            assert ratio == pytest.approx(8.0, rel=0.2)


class TestDimensionlessCouplings:
    def test_constructed_values(self):
        d = qg.DimensionlessCouplings.from_values(-1.0, 3.0)
        assert d.kappa_sq == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert d.y_star == pytest.approx(1.0, abs=1e-10)

    def test_no_cubic_no_cutoff(self):
        d = qg.DimensionlessCouplings.from_values(0.0, 0.7)
        assert d.y_star == 0.0 and d.kappa_sq == 0.0

    def test_definitional_identity(self):
        p = OscillatorParams(m=1.2, omega=1.0, lam=0.3, mu=0.2)
        d = qg.dimensionless_couplings(p, t_of(1.4))
        assert d.kappa_sq * d.a_B + d.a_A == pytest.approx(0.0, abs=1e-12 * abs(d.a_A))
        assert d.a_A <= 0.0 <= d.a_B

    def test_physical_values(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.75, mu=4.0)
        d = qg.dimensionless_couplings(p, t_of(1.0))
        assert d.a_B == pytest.approx(3.0 * 0.75 / 4.0)
        assert d.a_A == pytest.approx(-1.0)

    def test_missing_window_raises(self):
        with pytest.raises(ValueError, match="positivity window"):
            qg.DimensionlessCouplings.from_values(-0.1, 0.0)

    @pytest.mark.parametrize("a_a, a_b", [(-6.25e-4, 7.5e-321), (-1e300, 1e-300)])
    def test_overflowing_kappa_sq_raises(self, a_a, a_b):
        # y* = inf would leave an empty window that integrates to 0 = 0
        with pytest.raises(OverflowError, match="kappa"):
            qg.DimensionlessCouplings.from_values(a_a, a_b)

    @pytest.mark.parametrize("lam, mu, temperature", [
        (1e307, 0.0, 1e-5),     # the quotient a_B overflows to inf, no power does
        (0.5, 1e150, 1e-40),    # a_A = -inf, also from the quotient
        (0.5, 0.1, 1e300),      # T^5 overflows
        (0.5, 0.1, 1e-70),      # T^5 underflows to 0
    ])
    def test_a_non_finite_coupling_raises(self, lam, mu, temperature):
        p = OscillatorParams(m=1.0, omega=1.0, lam=lam, mu=mu)
        with pytest.raises(OverflowError, match=r"a_A = .*, a_B = .* overflow at mu="):
            qg.dimensionless_couplings(p, t_of(temperature))


class TestOnePositivityWindow:
    # dimensionless_couplings decides the window for every caller, also
    # where mu^2 underflows and a_A comes out zero
    @pytest.mark.parametrize("mu", [0.1, 1e-200])
    @pytest.mark.parametrize("call", [
        lambda p: qg.dimensionless_couplings(p, t_of(1.0)),
        lambda p: qg.energy_density_massless(p, t_of(1.0)),
        lambda p: qg.energy_density_massive(p, 1.0, t_of(1.0)),
        lambda p: qg.series_energy_density(p, t_of(1.0)),
    ], ids=["couplings", "massless", "massive", "series"])
    def test_cubic_without_quartic_is_refused(self, call, mu):
        p = OscillatorParams(m=1.0, omega=1.0, mu=mu)
        with pytest.raises(qg.PositivityWindowError, match="cubic coupling without quartic"):
            call(p)


def f_n(d, y, n):
    """The mode exponent a_A (n^2 + 6n)/y^4 + a_B (2n^2 + 2n)/y^2 + n y, written out
    as the mode-sum tests' reference."""
    return d.a_A * (n * n + 6.0 * n) / y**4 + d.a_B * (2.0 * n * n + 2.0 * n) / y**2 + n * y


class TestModeSums:
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 5.0, 20.0])
    def test_planck_mean_pointwise(self, y):
        d = qg.DimensionlessCouplings.from_values(0.0, 0.0)
        num, den, _, _, _ = qg._mode_sums(y, d, 1e-12)
        assert num / den == pytest.approx(y / math.expm1(y), rel=1e-10)
        assert num / den >= 0.0

    def test_log_derivative_consistency(self):
        # mean = -d/d(tau) ln sum exp(-tau f_n) at tau = 1
        d = qg.DimensionlessCouplings.from_values(-1e-4, 1e-2)
        y = 1.3
        num, den, _, _, _ = qg._mode_sums(y, d, 1e-12)
        h = 1e-5

        def log_zsum(tau):
            total, n = 0.0, 0
            while True:
                f = f_n(d, y, float(n))
                term = math.exp(-tau * f)
                total += term
                if n > 8 and term < 1e-17 * total:
                    return math.log(total)
                n += 1

        fd = -(log_zsum(1.0 + h) - log_zsum(1.0 - h)) / (2.0 * h)
        assert num / den == pytest.approx(fd, rel=1e-7)

    # (a_A, a_B, y): just above y_star, moderate and large y, and the
    # Planck and pure-quartic cases; (0, 0, 2) is the geometric series
    # 1/(1 - e^-2)
    ENGINE_GRID = [
        (-1e-3, 1e-2, math.sqrt(0.3) * (1.0 + 1e-9)),
        (-1e-3, 1e-2, 1.0),
        (-1e-3, 1e-2, 8.0),
        (-0.16, 0.4, math.sqrt(1.2) * (1.0 + 1e-9)),
        (-0.16, 0.4, 3.0),
        (-0.16, 0.4, 30.0),
        (0.0, 0.1, 1.0),
        (0.0, 0.0, 0.05),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, 2.0),
        (0.0, 0.0, 30.0),
    ]

    @staticmethod
    def brute_terms(d, y, start=0):
        fs = [f_n(d, y, float(n)) for n in range(start, 10**4)]
        return (math.fsum(f * math.exp(-f) for f in fs),
                math.fsum(math.exp(-f) for f in fs))

    @pytest.mark.parametrize("a_a,a_b,y", ENGINE_GRID)
    def test_engine_matches_brute_force(self, a_a, a_b, y):
        d = qg.DimensionlessCouplings.from_values(a_a, a_b)
        assert y > d.y_star
        num, den, _, _, _ = qg._mode_sums(y, d, 1e-12)
        want_num, want_den = self.brute_terms(d, y)
        assert den == pytest.approx(want_den, rel=1e-11)
        assert num == pytest.approx(want_num, rel=1e-11)

    @pytest.mark.parametrize("a_a,a_b,y", ENGINE_GRID)
    def test_engine_tail_bounds_the_remainder(self, a_a, a_b, y):
        d = qg.DimensionlessCouplings.from_values(a_a, a_b)
        for rel_tol in (1e-4, 1e-12):
            _, _, n_last, tail_num, tail_den = qg._mode_sums(y, d, rel_tol)
            rest_num, rest_den = self.brute_terms(d, y, start=n_last + 1)
            # the bound is exact for linear f_n, so allow rounding only
            assert tail_den >= rest_den * (1.0 - 1e-12)
            assert tail_num >= rest_num * (1.0 - 1e-12)

    def test_an_infinite_step_drops_no_tail(self):
        # 2 a_B / y^2 overflows, so f_1 = inf: only the ground state counts,
        # and the bound on the dropped tail is 0, not 0 * inf = NaN
        d = qg.DimensionlessCouplings.from_values(0.0, 1e308)
        assert qg._mode_sums(1e-3, d, 1e-12) == (0.0, 1.0, 0, 0.0, 0.0)

    @pytest.mark.parametrize("y", [0.3, 0.5])
    def test_engine_refuses_outside_the_window(self, y):
        # y = 0.3: negative n^2 coefficient; y = 0.5: convex but f_1 < 0
        d = qg.DimensionlessCouplings.from_values(-1.0, 3.0)
        with pytest.raises(ValueError, match="positivity window"):
            qg._mode_sums(y, d, 1e-12)


class TestMasslessEnergyDensity:
    def test_blackbody_reduction(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        for temperature in (0.5, 1.0, 2.0):
            t = t_of(temperature)
            rep = qg.energy_density_massless(p, t)
            assert rep.status is Status.PASS
            assert rep.literal == pytest.approx(
                qg.blackbody_energy_density(t), rel=1e-8)

    def test_t4_scaling_is_exact(self):
        p = OscillatorParams(m=1.0, omega=1.0)
        r1 = qg.energy_density_massless(p, t_of(1.0)).literal
        r2 = qg.energy_density_massless(p, t_of(2.0)).literal
        assert r2 / r1 == pytest.approx(16.0, rel=1e-10)

    def test_small_coupling_deviation_scaling(self):
        # measured scaling of the blackbody deviation: the soft-mode region
        # y ~ sqrt(a_B) dominates, giving a_B^(3/4), so halving the coupling
        # divides the deviation by 2^(3/4), not by 2
        bb = qg.blackbody_energy_density(t_of(1.0))
        devs = []
        for a_b in (1e-3, 5e-4):
            p = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * a_b / 3.0)
            rep = qg.energy_density_massless(p, t_of(1.0))
            devs.append(rep.literal - bb)
        assert devs[0] < 0.0   # quartic stiffening lowers the density
        assert devs[0] / devs[1] == pytest.approx(2.0**0.75, rel=0.01)

    def test_heaviside_semantics(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=4e-3 / 3.0, mu=4.0 * math.sqrt(4e-4))
        d = qg.dimensionless_couplings(p, t_of(1.0))
        assert d.y_star > 0.0
        for k in range(100):
            y = d.y_star * (k + 0.5) / 100.0
            assert qg.massless_integrand(y, d, d.y_star) == 0.0

    def test_cutoff_conventions_converge_together(self):
        # the two lower-limit conventions differ only while 3 kappa^2 sits
        # above the root cutoff (kappa^2 > 1/3); shrinking couplings pull
        # kappa^2 below that and the gap between the two rows collapses to
        # exactly zero
        gaps = []
        for eps in (0.25, 0.1, 0.08):
            p = OscillatorParams(m=1.0, omega=1.0, lam=2e-3 * eps, mu=0.3 * eps)
            star, kappa = (qg.energy_density_massless(p, t_of(1.0), c)
                           for c in ("y_star", "kappa_literal"))
            assert "value_other_cutoff" not in star.options_used
            gaps.append(abs(star.literal - kappa.literal))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] == 0.0

    def test_an_underflowed_pass_is_marked(self):
        # above y_cut = 40000 the mode sum underflows: literal = oracle = 0.0
        # stays PASS but says so; the y_star row's 4.45e-80 is a value
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-4, mu=10.0)
        kappa, star = (qg.energy_density_massless(p, t_of(2.5), c)
                       for c in ("kappa_literal", "y_star"))
        assert kappa.options_used["y_cut"] == pytest.approx(40000.0)
        assert kappa.literal == kappa.oracle == 0.0 and kappa.status is Status.PASS
        assert kappa.options_used["underflow"] is True
        assert star.literal == pytest.approx(4.45e-80, rel=1e-3)
        assert star.status is Status.PASS and "underflow" not in star.options_used

    def test_the_exp_map_evaluation_budget(self):
        # over y = lower - L ln(1 - t) the e^-y tail becomes a vanishing
        # (1-t)^L factor; over y itself, this integral took 1005 evaluations
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        with memo_scope():
            qg.energy_density_massless(p, t_of(1.0))
            # keys are (qg._massless_oracle, d, lower)
            (exp_map,) = [q for key, q in memo.current().items()
                          if key[0] is qg._massless_oracle]
        assert exp_map.converged and exp_map.evaluations <= 400
        # the same floats as when the engine applied the exp map and L: the
        # oracle's integrand does the same operations
        assert (float.hex(exp_map.value), float.hex(exp_map.abs_error_estimate),
                exp_map.evaluations) == ("0x1.5bf49ba31dfc7p+2", "0x1.e0a2b92c09000p-29", 165)

    def test_both_maps_converge_at_t_0_005(self):
        # over y itself the rational map of the literal did not converge here
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        for cut in ("y_star", "kappa_literal"):
            rep = qg.energy_density_massless(p, t_of(0.005), cut)
            assert rep.status is Status.PASS
            assert rep.literal == pytest.approx(8.5262e-190, rel=1e-4)

    def test_cubic_alone_rejected(self):
        p = OscillatorParams(m=1.0, omega=1.0, mu=0.1)
        with pytest.raises(ValueError, match="positivity"):
            qg.energy_density_massless(p, t_of(1.0))
        with memo_scope(), pytest.raises(ValueError, match="positivity"):
            qg.energy_density_massless(p, t_of(1.0))

    @pytest.mark.parametrize("mu, temperature", [(0.1, 1.0), (2.0, 0.5)])
    def test_both_conventions_share_their_integrals(self, mu, temperature, monkeypatch):
        # mu = 0.1: kappa^2 <= 1/3, both cuts resolve to y_star; mu = 2:
        # 3 kappa^2 lies above y_star and the cuts differ
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=mu)
        t = t_of(temperature)
        d = qg.dimensionless_couplings(p, t)
        shared = 3.0 * d.kappa_sq <= d.y_star
        assert shared == (mu == 0.1)
        calls = []

        def counting(real):
            def count(*args, **kwargs):
                calls.append(args[1])
                return real(*args, **kwargs)
            return count

        # the literal's integrals run on the rational map, the oracle's on
        # its own exp coordinate
        for integrator in ("integrate_semi_infinite", "integrate_finite"):
            monkeypatch.setattr(qg, integrator, counting(getattr(qg, integrator)))
        # each report integrates its own cut only: two integrals apiece
        separate = [qg.energy_density_massless(p, t, cutoff_convention=c)
                    for c in ("y_star", "kappa_literal")]
        assert len(calls) == 4
        calls.clear()
        with memo_scope():
            both = [qg.energy_density_massless(p, t, c) for c in ("y_star", "kappa_literal")]
            assert len(calls) == (2 if shared else 4)
            assert [r.to_dict() for r in both] == [r.to_dict() for r in separate]
            # every argument is in the key: another temperature reuses nothing
            t2 = t_of(2.0 * temperature)
            calls.clear()
            with memo_scope():      # a fresh memo, and the enclosing one after it
                alone = qg.energy_density_massless(p, t2)
            n_alone = len(calls)
            calls.clear()
            again = qg.energy_density_massless(p, t2)
            assert len(calls) == n_alone
            assert again.to_dict() == alone.to_dict()


class TestMassiveEnergyDensity:
    def test_an_underflowed_zero_is_flagged_and_marked(self):
        # y_min = 1e12 at gas mass 1e6: the window [1e12, inf) is not empty, but
        # the mode-sum weight underflows on it, so the row carries the massless mark
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-3)
        rep = qg.energy_density_massive(p, 1e6, t_of(1.0))
        assert rep.literal == 0.0 and rep.oracle == 0.0
        assert rep.status is Status.FLAGGED
        assert rep.options_used["underflow"] is True and "window" not in rep.options_used

    def test_corrected_mode_dual_transform(self):
        # the dispersion density integrated over v in the exp coordinate,
        # v = -ln(1 - t), dv = dt/(1 - t), where the row uses the rational map
        p = OscillatorParams(m=1.0, omega=1.0)
        t = t_of(1.0)
        mass = 1.0
        rep = qg.energy_density_massive(p, mass, t)
        assert "corrected_dual_transform" not in rep.options_used
        d = qg.dimensionless_couplings(p, t)
        q, width = t.T / mass, qg._width(d)
        lower = max(1.0 / q, d.y_star)       # the y_star cut

        def f(v):
            y = lower + width * v * v
            rad = (q * y) ** 2 - 1.0
            if rad <= 0.0:
                return 0.0
            return qg.massless_integrand(y, d, d.y_star) / y * math.sqrt(rad) * (2.0 * width * v)

        res = integrate_finite(lambda s: f(-math.log(1.0 - s)) / (1.0 - s), 0.0, 1.0,
                               rel_tol=1e-9)
        assert res.converged
        pref = mass * t.T / (2.0 * math.pi**2)
        assert rep.oracle == pytest.approx(pref * res.value, rel=1e-8)

    @staticmethod
    def recorded(monkeypatch):
        # the QuadratureResult of every density quadrature, in call order
        real = qg.integrate_semi_infinite
        results = []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(qg, "integrate_semi_infinite", recording)
        return results

    @staticmethod
    def y_space_reference(p, mass, t, cut, mode):
        # the same integral over y = lower + L s, an affine coordinate: the sqrt
        # edge at lower stays, and bisection alone resolves it
        d = qg.dimensionless_couplings(p, t)
        y_cut = qg._resolve_cut(d, cut)
        q = t.T / mass
        lower = max(1.0 / q**2 if mode == "printed" else 1.0 / q, y_cut, d.y_star)
        width = qg._width(d)

        def f(s):
            y = lower + width * s
            rad = q * q * y - 1.0 if mode == "printed" else (q * y) ** 2 - 1.0
            if rad <= 0.0:
                return 0.0
            return qg.massless_integrand(y, d, y_cut) / y * math.sqrt(rad) * width

        res = integrate_semi_infinite(f, 0.0, rel_tol=1e-13)
        assert res.converged
        return res.value

    @pytest.mark.parametrize("temperature", [0.005, 0.05, 0.5, 3.0, 30.0, 100.0])
    @pytest.mark.parametrize("cut", ["y_star", "kappa_literal"])
    @pytest.mark.parametrize("mass", [0.1, 1.0, 10.0])
    def test_the_v_coordinate_matches_y_space(self, mass, cut, temperature, monkeypatch):
        # y = lower + L v^2 takes the sqrt edge out of the integrand; the value
        # stays that of the integral over y
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        t = t_of(temperature)
        results = self.recorded(monkeypatch)
        qg.energy_density_massive(p, mass, t, cut)
        assert len(results) == 2
        for res, mode in zip(results, ("printed", "dispersion")):
            want = self.y_space_reference(p, mass, t, cut, mode)
            assert res.converged
            assert res.value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_the_v_coordinate_evaluation_budget(self, monkeypatch):
        # over y each of these took 405 to 495 evaluations, refining toward the edge
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        results = self.recorded(monkeypatch)
        qg.energy_density_massive(p, 1.0, t_of(1.0))
        assert [r.evaluations <= 300 and r.converged for r in results] == [True] * 2

    @pytest.mark.parametrize("mass", [1e-200, 1e200])
    def test_an_extreme_gas_mass_names_t_over_m_squared(self, mass):
        # (T/M)^2 overflows at M = 1e-200 and underflows to 0 at M = 1e200; the
        # error names the expression and its T and M, not an errno or a 1/0
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        with pytest.raises(OverflowError) as got:
            qg.energy_density_massive(p, mass, t_of(1.0))
        assert str(got.value) == f"(T/M)^2 leaves double range at T=1.0, M={mass!r}"

    def test_printed_vs_corrected_deviation_is_reported(self):
        # the printed radicand is linear in y, the corrected one quadratic;
        # they differ at order one even far into the relativistic regime
        p = OscillatorParams(m=1.0, omega=1.0, lam=1e-3)
        rep = qg.energy_density_massive(p, 0.01, t_of(1.0))
        assert rep.status is Status.FLAGGED
        assert rep.literal != rep.oracle
        assert math.isfinite(rep.rel_dev) and rep.rel_dev > 0.05


class TestSeriesTerms:
    def setup_method(self):
        self.d = qg.DimensionlessCouplings.from_values(-0.4e-3, 1e-3)
        self.y0 = 3.0 * self.d.kappa_sq

    def tail_oracle(self, i, j, n, decay):
        p1, p2, p3 = qg._line_powers(i, j)
        coeffs = (self.d.a_A * (n * n + 6 * n),
                  self.d.a_B * (2 * n * n + 2 * n),
                  float(n))
        total = 0.0
        for c, power in zip(coeffs, (p1, p2, p3)):
            if c == 0.0:
                continue

            def f(y, power=power):
                if y <= self.y0:
                    return 0.0
                e = power * math.log(y) - decay * y
                return math.exp(e) if e > -745.0 else 0.0

            total += c * integrate_semi_infinite(f, self.y0, rel_tol=1e-12).value
        return total

    def test_box_against_quadrature(self):
        for n in (1, 3, 9, 20):
            for i in (0, 1, 2):
                for j in (0, 1, 2):
                    f_t, g_t = qg.whittaker_series_term(i, j, n, self.d, y0=self.y0)
                    assert f_t == pytest.approx(self.tail_oracle(i, j, n, n), rel=1e-7)
                    assert g_t == pytest.approx(self.tail_oracle(i, j, n, n + 1), rel=1e-7)

    def test_leading_term_is_gamma_tail(self):
        # i = j = 0, n = 1 with tiny couplings: the y^3 line dominates and
        # equals Gamma(4, y0)
        from anhgas import specfun as sf

        d = qg.DimensionlessCouplings.from_values(-1e-12, 1e-9)
        f_t, _ = qg.whittaker_series_term(0, 0, 1, d, y0=self.y0)
        want = sf.upper_incomplete_gamma(4.0, self.y0).value
        assert f_t == pytest.approx(want, rel=1e-6)

    def test_decay_in_n(self):
        mags = [abs(sum(qg.whittaker_series_term(0, 0, n, self.d, y0=self.y0)))
                for n in range(3, 12)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_index_floor(self):
        with pytest.raises(ValueError, match="n = 1"):
            qg.whittaker_series_term(0, 0, 0, self.d, y0=self.y0)

    def test_triple_sum_memo_is_exact_and_saves_ladder_walks(self, monkeypatch):
        # each incomplete-gamma ladder walk starts at E_1(x): term by term, every
        # decay's tails walk their own ladder; in the sum's scope, one per x below x_c
        from anhgas import specfun as sf

        calls = [0]
        exp1 = sf.exp1

        def counting(x):
            calls[0] += 1
            return exp1(x)

        monkeypatch.setattr(sf, "exp1", counting)
        d, y0 = self.d, self.y0
        n_max, i_max, j_max = 6, 2, 2
        direct = 0.0
        for n in range(1, n_max + 1):
            log_afac = math.log(abs(d.a_A) * (n * n + 6.0 * n))
            log_bfac = math.log(d.a_B * (2.0 * n * n + 2.0 * n))
            shell = 0.0
            for i in range(i_max + 1):
                for j in range(j_max + 1):
                    c = 1.0
                    if i or j:
                        log_c = (i * log_afac + j * log_bfac
                                 - math.lgamma(i + 1.0) - math.lgamma(j + 1.0))
                        c = (-1.0) ** (i + j) * math.copysign(1.0, d.a_A) ** i \
                            * math.exp(log_c)
                    f_t, g_t = qg.whittaker_series_term(i, j, n, d, y0=y0)
                    shell += c * (f_t - g_t)
            direct += shell
        direct_calls, calls[0] = calls[0], 0
        with mock.patch.multiple(qg, _N_MAX=n_max, _I_MAX=i_max, _J_MAX=j_max):
            total, _, _ = qg._triple_sum(d, y0)
        assert total == direct
        below_x_c = sum(decay * y0 < 4.0 for decay in range(1, n_max + 2))
        assert calls[0] == below_x_c < direct_calls / 2
        assert memo.current() is None   # the memo lives for one call only

    def test_triple_sum_walks_each_gamma_chain_once(self, monkeypatch):
        # the sweep oscillator at T = 2.3: most arguments x = n y0 lie below
        # 1.5, where the integer orders recur down from E_1(x)
        from anhgas import specfun as sf

        d = qg.dimensionless_couplings(OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1),
                                       t_of(2.3))
        calls = []
        exp1 = sf.exp1
        monkeypatch.setattr(sf, "exp1", lambda x: calls.append(x) or exp1(x))
        qg._triple_sum(d, d.y_star)
        assert len(calls) > 20
        assert len(set(calls)) == len(calls)     # at most one E_1 per argument

    def test_the_memo_scope_ends_when_a_term_overflows(self):
        from anhgas import specfun as sf

        d = qg.DimensionlessCouplings.from_values(-1e-40, 0.1)
        with memo_scope():
            enclosing = memo.current()
            with pytest.raises(sf.SpecialFunctionOverflow):
                qg._triple_sum(d, d.y_star)
            assert memo.current() is enclosing
        assert memo.current() is None


class TestSeriesEnergyDensity:
    def test_blackbody_collapse(self):
        # at zero coupling only the i = j = 0 layer is summed, so a box with
        # no i or j layers and 2000 shells reaches pi^2/15 at T = 1
        p = OscillatorParams(m=1.0, omega=1.0)
        with mock.patch.multiple(qg, _N_MAX=2000, _I_MAX=0, _J_MAX=0):
            rep = qg.series_energy_density(p, t_of(1.0))
        assert rep.options_used["n_max"] == 2000
        assert rep.literal == pytest.approx(math.pi**2 / 15.0, rel=1e-9)
        assert rep.status is Status.PASS

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 3.0])
    def test_blackbody_tail_estimate_bounds_the_truncation(self, temperature):
        # at zero coupling the series sums to pi^2 T^4/15, and its shells fall
        # off like n^-4: the tail estimate must cover the dropped remainder
        # without overstating it twofold
        p = OscillatorParams(m=1.0, omega=1.0)
        rep = qg.series_energy_density(p, t_of(temperature))
        dropped = math.pi**2 * temperature**4 / 15.0 - rep.literal
        assert dropped <= rep.options_used["tail_estimate"] <= 2.0 * dropped
        assert rep.options_used["box_converged"]
        assert rep.status is Status.PASS
        assert (rep.options_used["n_max"], rep.options_used["i_max"],
                rep.options_used["j_max"]) == (50, 3, 3)

    @pytest.mark.parametrize("a_b", [1e-3, 1e-4])
    def test_matches_denominator_replaced_quadrature(self, a_b):
        p = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * a_b / 3.0,
                             mu=4.0 * math.sqrt(0.4 * a_b))
        rep = qg.series_energy_density(p, t_of(1.0))
        assert rep.options_used["box_converged"]
        assert rep.rel_dev <= 0.01
        assert rep.status is Status.PASS

    def test_box_doubling_within_tail(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=4e-3 / 3.0,
                             mu=4.0 * math.sqrt(0.4e-3))
        rep = qg.series_energy_density(p, t_of(1.0))
        with mock.patch.multiple(qg, _N_MAX=100, _I_MAX=6, _J_MAX=6):
            rep2 = qg.series_energy_density(p, t_of(1.0))
        assert rep2.options_used["n_max"] == 100
        assert 0.0 < abs(rep2.literal - rep.literal) <= rep.options_used["tail_estimate"]

    def test_oversized_coupling_rejected(self):
        p = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
        with pytest.raises(ValueError, match="replacement regime"):
            qg.series_energy_density(p, t_of(1.0))

    def test_undersized_box_is_flagged_not_wrong(self):
        # strong couplings break the expansion; the report must say so
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.05, mu=0.3)
        with mock.patch.multiple(qg, _N_MAX=30, _I_MAX=2, _J_MAX=2):
            rep = qg.series_energy_density(p, t_of(1.0))
        if rep.status is Status.FLAGGED:
            assert not rep.options_used["box_converged"] or rep.rel_dev > 0.01
        else:
            assert rep.options_used["box_converged"]

    def test_overflowing_terms_reported_not_raised(self):
        # an absurd infrared ratio pushes term magnitudes past double range;
        # the term evaluator and the series signal, and the CLI's row runner
        # reports the row as ERROR instead of crashing
        from anhgas import cli
        from anhgas import specfun as sf

        d = qg.DimensionlessCouplings.from_values(-1e-40, 0.1)
        with pytest.raises(sf.SpecialFunctionOverflow, match="overflows"):
            qg.whittaker_series_term(3, 3, 1, d, y0=d.y_star)

        p = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * 0.1 / 3.0,
                             mu=4.0 * math.sqrt(1e-40))
        with pytest.raises(sf.SpecialFunctionOverflow, match="overflows"):
            qg.series_energy_density(p, t_of(1.0))
        rep = cli._row({"T": 1.0}, "series_energy_density",
                       lambda: qg.series_energy_density(p, t_of(1.0)))
        assert rep.status is Status.ERROR
        assert rep.provenance.startswith("evaluation failure: series term magnitude exp(")

    def test_oracle_stays_above_y_star_with_literal_cutoff(self):
        # kappa_literal puts y0 = 3 kappa^2 below y_star when kappa^2 < 1/3;
        # the oracle integrand must still vanish below y_star
        p = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
        lit = qg.series_energy_density(p, t_of(2.0), cutoff_convention="kappa_literal")
        star = qg.series_energy_density(p, t_of(2.0))
        assert lit.options_used["y0"] < qg.dimensionless_couplings(p, t_of(2.0)).y_star
        assert math.isfinite(lit.oracle)
        assert lit.oracle == pytest.approx(star.oracle, rel=1e-9)
