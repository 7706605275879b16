"""30-digit references for the classical sweep's three quadrature passes.

Each component of each pass, at the corners of the classical benchmark
grid (T = 0.03 and 8, so z = 33.3 and 0.125, with m = w = 1, lam = 0.5),
against mpmath at 30 digits: the true error must lie within the reported
error estimate and below a tenth of the strictest row threshold (1e-6).
Every reference is a closed form: the kinetic pair in K_0 and K_1, the
quartic-Gaussian moments in parabolic cylinder functions D_{-nu}.
"""

import pytest

from anhgas import classical_gas as cg
from anhgas.params import OscillatorParams, ThermalState

mp = pytest.importorskip("mpmath").mp

P = OscillatorParams(m=1.0, omega=1.0, lam=0.5, mu=0.1)
CORNERS = (0.03, 8.0)
BOUND = 1e-7        # the strictest row threshold, 1e-6, over 10


def kinetic_truth(z):
    # e^z int sinh^2 t cosh^k t e^{-z cosh t} dt for k = 1, 2: the first and
    # second z-derivatives of -K_1(z)/z
    z = mp.mpf(z)
    k0, k1 = mp.besselk(0, z), mp.besselk(1, z)
    return (mp.exp(z) * (k0 / z + 2 * k1 / z**2),
            mp.exp(z) * (k1 / z + 3 * k0 / z**2 + 6 * k1 / z**3))


def quartic_gaussian_moment(n, a, b):
    # int_0^inf u^(2n) e^(-a u^2 - b u^4) du: with s = u^2, Gradshteyn &
    # Ryzhik 3.462.1, Gamma(nu) (2b)^(-nu/2) e^(a^2/8b) D_{-nu}(a/sqrt(2b)) / 2
    nu = n + mp.mpf(1) / 2
    return (mp.gamma(nu) / 2 * (2 * b) ** (-nu / 2) * mp.exp(a * a / (8 * b))
            * mp.pcfd(-nu, a / mp.sqrt(2 * b)))


def quartic_truth(x):
    # F(x) and int u^4 e^{-4x u^2 - u^4} du = -F'(x)/4
    a = 4 * mp.mpf(x)
    return quartic_gaussian_moment(1, a, 1), quartic_gaussian_moment(2, a, 1)


def position_truth(beta):
    # the norm and the <V> moment over v, r = v * scale, as the pass integrates
    a2, a4, scale = (mp.mpf(c) for c in cg._position_weight(P, beta))
    h2, lam = mp.mpf(0.5) * P.m * P.omega**2, mp.mpf(P.lam)
    norm, r4, r6 = (quartic_gaussian_moment(n, a2, a4) for n in (1, 2, 3))
    return norm / scale, (h2 * r4 + lam * r6) / scale


def passes(T):
    t = ThermalState.from_temperature(T)
    z, x = cg.relativistic_z(P, t), cg.coupling_x(P, t)
    return {
        "kinetic (cosh, cosh^2)": (cg._kinetic_scaled(z, 1.0), kinetic_truth(z)),
        "quartic (F, -F'/4)": (cg._quartic_gaussian(x, 1e-12), quartic_truth(x)),
        "position (norm, <V> moment)": (cg._position_integral(P, t.beta, 1e-11),
                                        position_truth(t.beta)),
    }


@pytest.mark.parametrize("T", CORNERS)
def test_every_component_is_within_its_estimate_and_the_bound(T):
    with mp.workdps(30):
        for family, (results, truths) in passes(T).items():
            assert len(results) == len(truths) == 2 and results.converged, family
            for i, (res, truth) in enumerate(zip(results, truths)):
                err = abs(mp.mpf(res.value) - truth)
                assert err <= res.abs_error_estimate, (family, i, float(err),
                                                       res.abs_error_estimate)
                assert err <= BOUND * abs(truth), (family, i, float(err / truth))


def test_the_closed_forms_match_their_integrals():
    # each reference above against an mpmath quadrature of its integrand, at
    # z = 2 and x = 1.02, the position weight of T = 0.03
    with mp.workdps(20):
        z = mp.mpf(2)
        for k, truth in zip((1, 2), kinetic_truth(z)):
            quad = mp.quad(lambda t: mp.sinh(t) ** 2 * mp.cosh(t) ** k
                           * mp.exp(-z * (mp.cosh(t) - 1)), [0, 1, 3, 8])
            assert abs(quad - truth) <= mp.mpf(10) ** -17 * truth
        a2, a4, _ = (mp.mpf(c) for c in cg._position_weight(P, 1 / 0.03))
        for n in (1, 2, 3):
            for a, b in ((mp.mpf("4.08"), 1), (a2, a4)):
                quad = mp.quad(lambda u: u ** (2 * n) * mp.exp(-a * u * u - b * u**4),
                               [0, 0.5, 1.5, 6])
                assert abs(quad - quartic_gaussian_moment(n, a, b)) <= mp.mpf(10) ** -17 * quad
