"""Ground-truth machinery checks: quadrature anchors and properties,
diagonalization, Metropolis determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhgas import oracles as oc
from anhgas import specfun as sf


def planck(y):
    if y <= 0.0 or y > 700.0:
        return 0.0
    return y**3 / math.expm1(y)


def over_exp_coordinate(f, a):
    # int_a^inf f(y) dy over t in [0, 1), y = a - ln(1 - t), dy = dt/(1 - t)
    return oc.integrate_finite(lambda t: f(a - math.log(1.0 - t)) / (1.0 - t), 0.0, 1.0)


class TestQuadrature:
    def test_gamma_integral(self):
        res = oc.integrate_semi_infinite(
            lambda y: y**3 * math.exp(-y) if y < 700 else 0.0, 0.0)
        assert res.converged
        assert res.value == pytest.approx(6.0, rel=1e-10)

    def test_bose_integral(self):
        res = oc.integrate_semi_infinite(planck, 0.0)
        assert res.value == pytest.approx(math.pi**4 / 15.0, rel=1e-10)

    def test_sinh_squared_identity(self):
        z = 1.0

        def f(t):
            if t <= 0.0 or t > 350.0:
                return 0.0
            e = -z * math.cosh(t)
            return math.sinh(t) ** 2 * math.exp(e) if e > -690.0 else 0.0

        res = oc.integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
        want = sf.bessel_k(1.0, z).value / z
        assert res.value == pytest.approx(want, rel=1e-10)

    def test_nonzero_lower_limit(self):
        res = oc.integrate_semi_infinite(
            lambda y: math.exp(-y) if y < 700 else 0.0, 2.5)
        assert res.value == pytest.approx(math.exp(-2.5), rel=1e-10)

    def test_transform_invariance(self):
        # the engine's rational map against the exp coordinate
        for f, a in ((planck, 0.0), (lambda y: math.exp(-y * y), 1.0)):
            r1 = oc.integrate_semi_infinite(f, a)
            r2 = over_exp_coordinate(f, a)
            tol = r1.abs_error_estimate + r2.abs_error_estimate
            assert abs(r1.value - r2.value) <= max(tol, 1e-11 * abs(r1.value))

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        f = lambda y: math.exp(-y)
        g = lambda y: y * math.exp(-2.0 * y) if y < 700 else 0.0
        combo = oc.integrate_semi_infinite(
            lambda y: a * f(y) + b * g(y), 0.0)
        fa = oc.integrate_semi_infinite(f, 0.0)
        gb = oc.integrate_semi_infinite(g, 0.0)
        want = a * fa.value + b * gb.value
        tol = (abs(a) * fa.abs_error_estimate + abs(b) * gb.abs_error_estimate
               + combo.abs_error_estimate + 1e-13)
        assert abs(combo.value - want) <= 10.0 * tol + 1e-12

    def test_a_scaled_exp_map_reaches_a_wide_tail(self):
        # int_1^inf y^2 e^{-y/60} dy: over y = 1 - ln(1 - t), t rounds to 1 at
        # y = 1 + 36.7, well inside the weight, and ln 0 fails; over the scaled
        # coordinate y = 1 - 60 ln(1 - t) the exp map reaches it
        def f(y):
            return y * y * math.exp(-y / 60.0) if y < 4e4 else 0.0

        with pytest.raises(ValueError, match="math domain error"):
            over_exp_coordinate(f, 1.0)
        res = over_exp_coordinate(lambda s: f(1.0 + 60.0 * s) * 60.0, 0.0)
        want = 60.0 * math.exp(-1.0 / 60.0) * (1.0 + 2.0 * 60.0 + 2.0 * 60.0**2)
        assert res.converged and res.value == pytest.approx(want, rel=1e-10)
        # the engine's rational map reaches any y, so it needs no coordinate
        rational = oc.integrate_semi_infinite(f, 1.0)
        assert rational.converged and rational.value == pytest.approx(want, rel=1e-10)

    def test_nan_aborts_with_location(self):
        def f(y):
            return math.nan if y > 3.0 else math.exp(-y)

        with pytest.raises(oc.IntegrandError, match="NaN"):
            oc.integrate_semi_infinite(f, 0.0)

    def test_budget_returns_unconverged_not_wrong(self, monkeypatch):
        # a needle the tiny budget cannot resolve: converged must be False
        def needle(y):
            return 1.0 / (1e-8 + (y - 0.37) ** 2)

        monkeypatch.setattr(oc, "_MAX_EVALS", 90)
        res = oc.integrate_finite(needle, 0.0, 1.0, rel_tol=1e-13)
        assert not res.converged
        assert res.evaluations <= 90

    def test_finite_interval(self):
        res = oc.integrate_finite(math.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_scaled_keeps_the_record(self):
        res = oc.QuadratureResult(3.0, 1e-12, 105, False)
        assert res.scaled(0.5) == oc.QuadratureResult(1.5, 5e-13, 105, False)


class TestDiagonalization:
    def test_diagonal_input_is_exact(self):
        h = np.diag(np.arange(50, dtype=float) + 0.5)
        vals = oc.diagonalize_truncated(h, 5)
        assert np.allclose(vals, np.arange(5) + 0.5, rtol=0.0, atol=0.0)

    def test_pauli_type(self):
        vals = oc.diagonalize_truncated(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        assert vals == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_quartic_ground_state_first_order(self):
        from anhgas import quantum_gas as qg
        from anhgas.params import OscillatorParams

        lam = 1e-3 * 4.0   # dimensionless coupling 1e-3 at s = 1/2
        p = OscillatorParams(m=1.0, omega=1.0, lam=lam)
        h = qg.oscillator_hamiltonian(120, p)
        e0 = oc.diagonalize_truncated(h, 1)[0]
        first = 0.5 + 3.0 * lam / 4.0
        # residual beyond first order scales as lam^2
        assert abs(e0 - first) < 5.0 * lam**2

    def test_rejects_asymmetric(self):
        h = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            oc.diagonalize_truncated(h, 1)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="2000"):
            oc.diagonalize_truncated(np.eye(2001), 1)

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(40, 40))
        h = (h + h.T) / 2.0
        q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        h2 = q @ h @ q.T
        h2 = (h2 + h2.T) / 2.0
        v1 = oc.diagonalize_truncated(h, 6)
        v2 = oc.diagonalize_truncated(h2, 6)
        assert np.max(np.abs(v1 - v2) / np.maximum(np.abs(v1), 1.0)) < 1e-10


class TestMetropolis:
    def test_gaussian_variance(self):
        est = oc.metropolis_expectation(
            lambda x: -0.5 * x * x, lambda x: x * x, 1.2, 40000, 4000, seed=11)
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error
        assert 0.1 <= est.acceptance_rate <= 0.9
        assert not est.tuning_flagged

    def test_bit_identical_reproducibility(self):
        kw = dict(proposal_scale=0.9, n_samples=20000, burn_in=1000, seed=99)
        a = oc.metropolis_expectation(lambda x: -abs(x), lambda x: x * x, **kw)
        b = oc.metropolis_expectation(lambda x: -abs(x), lambda x: x * x, **kw)
        assert a == b

    def test_radial_quartic_weight_against_quadrature(self):
        # weight r^2 e^{-r^2/2 - r^4} on r > 0, observable r^2
        def logw(r):
            return -math.inf if r <= 0.0 else 2.0 * math.log(r) - 0.5 * r * r - r**4

        est = oc.metropolis_expectation(logw, lambda r: r * r, 0.5, 60000, 5000, seed=3)

        def mom(k):
            return oc.integrate_semi_infinite(
                lambda r: r**k * math.exp(-0.5 * r * r - r**4), 0.0).value

        want = mom(4) / mom(2)
        assert abs(est.mean - want) <= 3.0 * est.std_error

    def test_cosh_weight_against_bessel_ratio(self):
        # weight e^{-cosh x}: <cosh x> = K_1(1)/K_0(1)
        def logw(x):
            return -math.cosh(x) if abs(x) < 300.0 else -math.inf

        est = oc.metropolis_expectation(logw, math.cosh, 1.0, 60000, 5000, seed=5)
        want = sf.bessel_k(1.0, 1.0).value / sf.bessel_k(0.0, 1.0).value
        assert abs(est.mean - want) <= 3.0 * est.std_error

    def test_tuning_flag(self):
        est = oc.metropolis_expectation(
            lambda x: -0.5 * x * x, lambda x: x, 150.0, 10000, 500, seed=2)
        assert est.tuning_flagged      # absurd proposal scale, tiny acceptance

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="10\\^4"):
            oc.metropolis_expectation(
                lambda x: -x * x, lambda x: x, 1.0, 5000, 100, seed=1)
