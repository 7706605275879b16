"""Classical gas of relativistic particles with a quartic-perturbed
vibrational sector: partition functions, the quartic-Gaussian closed
forms, and the average energy, each paired with a quadrature oracle.

The closed form for the vibrational integral is evaluated exactly as
printed even though it disagrees with the defining integral by a constant
factor; the comparison report carries the deviation (FLAGGED), which is
the point of the dual-route design.
"""

from __future__ import annotations

import math
from typing import Callable

from . import specfun as sf
from .oracles import QuadratureResult, integrate_semi_infinite
from .params import FormalVolumes, OscillatorParams, ThermalState, UnitSystem
from .reports import ComparisonReport, compare

__all__ = [
    "coupling_x",
    "relativistic_z",
    "harmonic_partition_z1",
    "harmonic_partition_z1_report",
    "momentum_sphere_q",
    "relativistic_harmonic_partition_z2",
    "f_oracle",
    "f_oracle_from_params",
    "f_closed_form",
    "f_derivative",
    "g_function",
    "g_function_corrected",
    "g_function_derivative",
    "g_function_corrected_derivative",
    "position_radial_integral",
    "log_momentum_radial_integral",
    "sinh2_integral",
    "sinh2_cosh_integral",
    "vibrational_partition",
    "anharmonic_relativistic_partition",
    "average_energy_classical",
    "average_energy_quadrature",
    "average_energy_metropolis",
]

_TWO_PI = 2.0 * math.pi


def coupling_x(p: OscillatorParams, t: ThermalState, u: UnitSystem) -> float:
    """Dimensionless stiffness-vs-quartic ratio x = sqrt(m^2 w^4 / (64 kT lam))."""
    p.require_anharmonic()
    return math.sqrt(p.m**2 * p.omega**4 / (64.0 * t.kt(u) * p.lam))


def relativistic_z(p: OscillatorParams, t: ThermalState, u: UnitSystem) -> float:
    """Rest energy over thermal energy, z = m c^2 / (k_B T)."""
    return p.m * u.c**2 / t.kt(u)


# ---------------------------------------------------------------------------
# harmonic reference
# ---------------------------------------------------------------------------

def harmonic_partition_z1(
    p: OscillatorParams, t: ThermalState, u: UnitSystem, vol: FormalVolumes
) -> float:
    """Printed harmonic partition function V/(2 pi hbar)^3 (2 pi kT / (w sqrt(m)))^3."""
    kt = t.kt(u)
    return vol.V / (_TWO_PI * u.hbar) ** 3 * (_TWO_PI * kt / (p.omega * math.sqrt(p.m))) ** 3


def harmonic_partition_z1_report(
    p: OscillatorParams, t: ThermalState, u: UnitSystem, vol: FormalVolumes
) -> ComparisonReport:
    """Printed formula vs the 6-D Gaussian phase-space quadrature.

    The two disagree except at special masses (the printed formula carries
    a stray 1/sqrt(m)^3 and one phase-space power less); the report exists
    to display exactly that.
    """
    beta = t.beta
    kin = _radial_gaussian_integral(0.5 * beta / p.m)          # int p^2 e^{-beta p^2/2m}
    pos = _radial_gaussian_integral(0.5 * beta * p.m * p.omega**2)
    oracle = vol.V * (4.0 * math.pi) ** 2 * kin.value * pos.value / (_TWO_PI * u.hbar) ** 6
    return compare(
        "harmonic_partition_z1",
        harmonic_partition_z1(p, t, u, vol),
        oracle,
        threshold=1e-8,
        provenance="harmonic phase-space volume, printed formula vs 6-D Gaussian quadrature",
        options_used={"T": t.T},
        unconverged=_unconverged({_UNIT_GAUSSIAN_NAME: _UNIT_RADIAL_GAUSSIAN}),
    )


def _unit_radial_gaussian(v: float) -> float:
    e = -v * v
    return v * v * math.exp(e) if e > -745.0 else 0.0


# int_0^inf v^2 exp(-v^2) dv by quadrature; it does not depend on c, so it
# runs once, and _radial_gaussian_integral rescales it
_UNIT_RADIAL_GAUSSIAN = integrate_semi_infinite(_unit_radial_gaussian, 0.0, rel_tol=1e-12)
_UNIT_GAUSSIAN_NAME = "int v^2 e^{-v^2} dv"


def _unconverged(quads: dict[str, QuadratureResult]) -> list[str]:
    """The names of the quadratures that did not converge, for compare()."""
    return [name for name, q in quads.items() if not q.converged]


def _radial_gaussian_integral(c: float) -> QuadratureResult:
    # int_0^inf r^2 exp(-c r^2) dr = c^(-3/2) int_0^inf v^2 exp(-v^2) dv
    scale = 1.0 / math.sqrt(c)
    res = _UNIT_RADIAL_GAUSSIAN
    return QuadratureResult(
        res.value * scale**3, res.abs_error_estimate * scale**3,
        res.evaluations, res.converged,
    )


def momentum_sphere_q(p: OscillatorParams, u: UnitSystem) -> float:
    """Momentum-sphere volume (4/3) pi [(m w^2 A^2 / 2c^2)^2 - m^2 c^2]^(3/2)."""
    radicand = (p.m * p.omega**2 * p.amplitude_a**2 / (2.0 * u.c**2)) ** 2 - (p.m * u.c) ** 2
    if radicand < 0.0:
        raise ValueError(
            "amplitude below relativistic threshold: "
            f"radicand {radicand:.6g} < 0 (need A^2 >= 2 c^3 / w^2)"
        )
    return 4.0 / 3.0 * math.pi * radicand ** 1.5


def relativistic_harmonic_partition_z2(
    p: OscillatorParams, t: ThermalState, u: UnitSystem, vol: FormalVolumes
) -> ComparisonReport:
    """Closed form of the relativistic harmonic partition function vs quadrature."""
    kt = t.kt(u)
    z = relativistic_z(p, t, u)
    k0 = sf.bessel_k(0.0, z).value
    k1 = sf.bessel_k(1.0, z).value
    bracket = (1.0 / z) * k0 + 2.0 / z**2 * k1
    literal = (
        4.0 * math.pi * vol.V * vol.Q
        * (u.c / (_TWO_PI * u.hbar) ** 2) ** 3
        * (_TWO_PI * p.m * kt / p.omega**2) ** 1.5
        * bracket
    )

    mom = _relativistic_radial_scaled(z)                       # e^z int sinh^2 cosh e^{-z cosh}
    pos = _radial_gaussian_integral(0.5 * t.beta * p.m * p.omega**2)
    kin = 4.0 * math.pi * (p.m * u.c) ** 3 * mom.value * math.exp(-z)
    oracle = vol.V * vol.Q * kin * (4.0 * math.pi * pos.value) / (_TWO_PI * u.hbar) ** 6
    return compare(
        "relativistic_harmonic_partition_z2",
        literal,
        oracle,
        threshold=1e-7,
        provenance="relativistic kinetic integral reduced to modified Bessel functions",
        options_used={"T": t.T, "z": z},
        unconverged=_unconverged({"int sinh^2 s cosh s e^{-z cosh s} ds": mom,
                                  _UNIT_GAUSSIAN_NAME: pos}),
    )


def _log_sinh(x: float) -> float:
    if x < 1e-8:
        return math.log(x) if x > 0.0 else -math.inf
    return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))


def _log_cosh(x: float) -> float:
    x = abs(x)
    return x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))


def _log_sinh2_cosh(t: float) -> float:
    """2 ln sinh t + ln cosh t, bit for bit, from a single exp(-2t).

    The log-weight of the relativistic kinetic integrals
    int sinh^2 t cosh t exp(-z cosh t) dt.
    """
    if t < 1e-8:
        return 2.0 * _log_sinh(t) + _log_cosh(t)
    ln2 = math.log(2.0)
    e = math.exp(-2.0 * t)
    return 2.0 * (t - ln2 + math.log1p(-e)) + (t - ln2 + math.log1p(e))


def _kinetic_integral(z: float, log_weight: Callable[[float], float],
                      shift: float = 0.0) -> QuadratureResult:
    # int_0^inf exp(log_weight(t) - z (cosh t - shift)) dt; shift = 1 is the
    # e^z-scaled form, safe for any z > 0
    exp, cosh = math.exp, math.cosh

    def f(t: float) -> float:
        if t <= 0.0 or t > 350.0:
            return 0.0
        e = log_weight(t) - z * (cosh(t) - shift)
        return exp(e) if e > -745.0 else 0.0

    return integrate_semi_infinite(f, 0.0, rel_tol=1e-11)


def sinh2_integral(z: float) -> QuadratureResult:
    """int_0^inf sinh^2 t exp(-z cosh t) dt by quadrature (= K_1(z)/z)."""
    return _kinetic_integral(z, lambda t: 2.0 * _log_sinh(t))


def sinh2_cosh_integral(z: float) -> QuadratureResult:
    """int_0^inf sinh^2 t cosh t exp(-z cosh t) dt by quadrature
    (= g_function_corrected(z) / z^3)."""
    return _kinetic_integral(z, _log_sinh2_cosh)


def _relativistic_radial_scaled(z: float) -> QuadratureResult:
    # e^z int_0^inf sinh^2 t cosh t exp(-z cosh t) dt
    return _kinetic_integral(z, _log_sinh2_cosh, 1.0)


def log_momentum_radial_integral(p: OscillatorParams, beta: float, u: UnitSystem) -> float:
    """ln of 4 pi int p^2 exp(-beta c sqrt(m^2 c^2 + p^2)) dp."""
    z = beta * p.m * u.c**2
    mom = _relativistic_radial_scaled(z)
    return math.log(4.0 * math.pi * (p.m * u.c) ** 3) - z + math.log(mom.value)


# ---------------------------------------------------------------------------
# the quartic-Gaussian function F and its companion G
# ---------------------------------------------------------------------------

def _quartic_gaussian(x: float, rel_tol: float, quartic: bool) -> QuadratureResult:
    # int_0^inf u^2 [u^2 if quartic] exp(-4x u^2 - u^4) du, over w = c u
    if x < 0.0:
        raise ValueError(f"F requires x >= 0, got {x}")
    c = math.sqrt(math.sqrt(1.0 + (4.0 * x) ** 2))  # conditioning scale
    m4x = -4.0 * x
    exp = math.exp

    def f(w: float) -> float:
        uu = w / c
        e = m4x * uu * uu - uu**4
        v = uu * uu * exp(e) if e > -745.0 else 0.0
        return v * uu * uu if quartic else v

    res = integrate_semi_infinite(f, 0.0, rel_tol=rel_tol)
    return QuadratureResult(res.value / c, res.abs_error_estimate / c,
                            res.evaluations, res.converged)


def f_oracle(x: float, rel_tol: float = 1e-12) -> QuadratureResult:
    """Scale-invariant normal form F(x) = int_0^inf u^2 exp(-4x u^2 - u^4) du,
    with its quadrature record.

    This is the operational definition of the vibrational closed form: any
    (m, w, lam, T) realization of the same x reduces to this integral.
    """
    return _quartic_gaussian(x, rel_tol, False)


def f_oracle_from_params(p: OscillatorParams, t: ThermalState, u: UnitSystem,
                         rel_tol: float = 1e-12) -> float:
    """F evaluated through one concrete (m, w, lam, T) realization.

    Runs the raw radial quadrature for that parameter set and divides by
    (kT/lam)^(3/4); realizations of the same x must agree to ~1e-9.
    """
    res = position_radial_integral(p, t, u, rel_tol=rel_tol)
    return res.value / (t.kt(u) / p.lam) ** 0.75


def _position_weight(p: OscillatorParams, beta: float) -> tuple[float, float, float]:
    """(a2, a4, scale) of the position weight r^2 exp(-a2 r^2 - a4 r^4);
    scale is its characteristic width, for conditioning and sampling."""
    a2 = 0.5 * beta * p.m * p.omega**2
    a4 = beta * p.lam
    scale = min(1.0 / math.sqrt(a2), a4 ** -0.25) if a4 > 0.0 else 1.0 / math.sqrt(a2)
    return a2, a4, scale


def _position_integral(a2: float, a4: float, scale: float, rel_tol: float,
                       moment: Callable[[float], float] | None = None) -> QuadratureResult:
    # int_0^inf r^2 exp(-a2 r^2 - a4 r^4) [moment(r)] dv over r = v * scale,
    # so the integral over r is scale times this one
    neg_a2 = -a2
    exp = math.exp

    def f(v: float) -> float:
        r = v * scale
        e = neg_a2 * r * r - a4 * r**4
        if not e > -745.0:
            return 0.0
        w = r * r * exp(e)
        return w if moment is None else w * moment(r)

    return integrate_semi_infinite(f, 0.0, rel_tol=rel_tol)


def position_radial_integral(p: OscillatorParams, t: ThermalState, u: UnitSystem,
                             rel_tol: float = 1e-12) -> QuadratureResult:
    """int_0^inf r^2 exp(-beta m w^2 r^2 / 2 - beta lam r^4) dr by quadrature."""
    a2, a4, scale = _position_weight(p, t.beta)
    res = _position_integral(a2, a4, scale, rel_tol)
    return QuadratureResult(res.value * scale, res.abs_error_estimate * scale,
                            res.evaluations, res.converged)


def f_closed_form(x: float) -> float:
    """The printed closed form for F, evaluated verbatim.

    Known to exceed the defining integral by a constant factor; callers
    wanting the trusted value use f_oracle.  Internally uses scaled Bessel
    values so the e^{2x^2} prefactor never overflows.
    """
    if not (x > 0.0):
        raise ValueError(f"f_closed_form requires x > 0, got {x}")
    w = 2.0 * x * x
    k_scaled = sf.bessel_k_scaled(0.25, w).value          # e^{2x^2} K_{1/4}(2x^2)
    kp_scaled = sf.bessel_k_derivative_scaled(0.25, w).value
    sx = math.sqrt(x)
    return -((1.0 / (4.0 * sx)) * k_scaled
             + 2.0 * x * sx * k_scaled
             + 2.0 * x * sx * kp_scaled)


def f_derivative(x: float, rel_tol: float = 1e-12) -> float:
    """F'(x) = -4 int_0^inf u^4 exp(-4x u^2 - u^4) du, by its own quadrature."""
    return -4.0 * _quartic_gaussian(x, rel_tol, True).value


def g_function(x: float) -> float:
    """The printed companion function G(x) = x K_0(x) + 2 x^2 K_1(x)."""
    if not (x > 0.0):
        raise ValueError(f"g_function requires x > 0, got {x}")
    return x * sf.bessel_k(0.0, x).value + 2.0 * x * x * sf.bessel_k(1.0, x).value


def g_function_corrected(x: float) -> float:
    """x^2 K_0(x) + 2 x K_1(x): the combination that actually satisfies
    x^3 * int sinh^2 t cosh t e^{-x cosh t} dt, i.e. the printed form with
    its two powers swapped."""
    if not (x > 0.0):
        raise ValueError(f"g_function_corrected requires x > 0, got {x}")
    return x * x * sf.bessel_k(0.0, x).value + 2.0 * x * sf.bessel_k(1.0, x).value


def g_function_derivative(x: float) -> float:
    """d/dx of the printed G, via Bessel recurrences: K0 (1 - 2x^2) + x K1."""
    return sf.bessel_k(0.0, x).value * (1.0 - 2.0 * x * x) + x * sf.bessel_k(1.0, x).value


def g_function_corrected_derivative(x: float) -> float:
    """d/dx of the corrected G collapses to -x^2 K_1(x)."""
    return -x * x * sf.bessel_k(1.0, x).value


# ---------------------------------------------------------------------------
# anharmonic partition function and average energy
# ---------------------------------------------------------------------------

def vibrational_partition(p: OscillatorParams, t: ThermalState, u: UnitSystem) -> float:
    """Vibrational factor 4 pi (kT/lam)^(3/4) F(x)."""
    x = coupling_x(p, t, u)
    return 4.0 * math.pi * (t.kt(u) / p.lam) ** 0.75 * f_oracle(x).value


def anharmonic_relativistic_partition(
    p: OscillatorParams, t: ThermalState, u: UnitSystem, vol: FormalVolumes,
) -> ComparisonReport:
    """a0 F(x) G(z) vs the product of the two radial quadratures.

    F goes through the trusted quadrature route; the printed
    G carries a power swap that cancels exactly at z = 1, so reports away
    from that point come out FLAGGED by design.
    """
    p.require_anharmonic()
    kt = t.kt(u)
    x = coupling_x(p, t, u)
    z = relativistic_z(p, t, u)
    a0 = 16.0 * math.pi**2 * (p.m * u.c) ** 3 * vol.V * vol.V_P \
        / (_TWO_PI * u.hbar) ** 6 * (kt / p.lam) ** 0.75
    literal = a0 * f_oracle(x).value * g_function(z)

    log_kin = log_momentum_radial_integral(p, t.beta, u)
    pos = position_radial_integral(p, t, u)
    oracle = (
        vol.V * vol.V_P / (_TWO_PI * u.hbar) ** 6
        * math.exp(log_kin) * 4.0 * math.pi * pos.value
    )
    return compare(
        "anharmonic_relativistic_partition",
        literal,
        oracle,
        threshold=1e-6,
        provenance="anharmonic partition product form vs dual radial quadrature",
        options_used={"T": t.T, "x": x, "z": z, "closed_form_F": False},
    )


def _average_energy_moments(p: OscillatorParams, t: ThermalState,
                            u: UnitSystem) -> tuple[float, dict[str, QuadratureResult]]:
    # <H> = -d(ln Z)/d(beta) = <m c^2 cosh s> + <V(r)>, and its four quadratures
    z = relativistic_z(p, t, u)
    a2, a4, scale = _position_weight(p, t.beta)
    h2, lam = 0.5 * p.m * p.omega**2, p.lam
    quads = {
        "int sinh^2 s cosh^2 s e^{-z cosh s} ds":
            _kinetic_integral(z, lambda s: 2.0 * _log_sinh(s) + _log_cosh(s) * 2, 1.0),
        "int sinh^2 s cosh s e^{-z cosh s} ds": _relativistic_radial_scaled(z),
        "int r^2 V(r) e^{-beta V(r)} dr":
            _position_integral(a2, a4, scale, 1e-11, lambda r: h2 * r * r + lam * r**4),
        "int r^2 e^{-beta V(r)} dr": _position_integral(a2, a4, scale, 1e-11),
    }
    num_k, den_k, num_p, den_p = (q.value for q in quads.values())
    return p.m * u.c**2 * num_k / den_k + num_p / den_p, quads


def average_energy_quadrature(p: OscillatorParams, t: ThermalState, u: UnitSystem) -> float:
    """<H> as weighted quadrature ratios: relativistic kinetic + vibrational."""
    return _average_energy_moments(p, t, u)[0]


def average_energy_metropolis(
    p: OscillatorParams, t: ThermalState, u: UnitSystem,
    n_samples: int = 100_000, burn_in: int = 5_000, seed: int = 20_08,
):
    """Monte Carlo estimate of <H>; returns (mean, std_error, estimates)."""
    from .oracles import metropolis_expectation

    z = relativistic_z(p, t, u)
    mc2 = p.m * u.c**2

    def logw_kin(s: float) -> float:
        if s <= 0.0:
            return -math.inf
        return _log_sinh2_cosh(s) - z * math.cosh(s)

    kin = metropolis_expectation(
        logw_kin, lambda s: mc2 * math.cosh(s),
        proposal_scale=max(0.5, 1.5 / math.sqrt(z)), n_samples=n_samples,
        burn_in=burn_in, seed=seed, x0=max(0.5, 1.0 / math.sqrt(z)),
    )

    a2, a4, r0 = _position_weight(p, t.beta)

    def logw_pos(r: float) -> float:
        if r <= 0.0:
            return -math.inf
        return 2.0 * math.log(r) - a2 * r * r - a4 * r**4

    pot = metropolis_expectation(
        logw_pos, lambda r: 0.5 * p.m * p.omega**2 * r * r + p.lam * r**4,
        proposal_scale=0.8 * r0, n_samples=n_samples,
        burn_in=burn_in, seed=seed + 1, x0=r0,
    )
    mean = kin.mean + pot.mean
    std_error = math.hypot(kin.std_error, pot.std_error)
    return mean, std_error, (kin, pot)


def average_energy_classical(
    p: OscillatorParams, t: ThermalState, u: UnitSystem, threshold: float = 1e-3,
    f_x: QuadratureResult | None = None,
) -> ComparisonReport:
    """Printed average-energy formula, with F(x) = ``f_x`` if the caller
    has f_oracle(x), vs the moment ratios of average_energy_quadrature.

    The printed kinetic term -m c^2 G'(z)/G(z) uses the printed G.  An
    unconverged quadrature on either side makes the report ERROR.
    """
    kt = t.kt(u)
    x = coupling_x(p, t, u)
    z = relativistic_z(p, t, u)
    f_q = f_x if f_x is not None else f_oracle(x)
    fp_q = _quartic_gaussian(x, 1e-12, True)               # F'(x) = -4 fp_q
    literal = (
        0.75 * kt
        + math.sqrt(p.m**2 * p.omega**4 * kt / (256.0 * p.lam)) * 4.0 * fp_q.value / f_q.value
        - p.m * u.c**2 * g_function_derivative(z) / g_function(z)
    )
    oracle, moments = _average_energy_moments(p, t, u)
    quadratures = {"F(x) = int u^2 e^{-4x u^2 - u^4} du": f_q,
                   "F'(x) = -4 int u^4 e^{-4x u^2 - u^4} du": fp_q, **moments}
    return compare(
        "average_energy_classical",
        literal,
        oracle,
        threshold=threshold,
        provenance="printed average-energy formula, F' by its own quadrature, "
                   "vs the moment ratio <m c^2 cosh s> + <V(r)>",
        options_used={"T": t.T, "x": x, "z": z},
        unconverged=_unconverged(quadratures),
    )
