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

from . import specfun as sf
from .memo import shared_value
from .oracles import QuadratureResult, QuadratureResults, integrate_semi_infinite
from .params import OscillatorParams, ThermalState
from .reports import ComparisonReport, compare

__all__ = [
    "coupling_x",
    "relativistic_z",
    "harmonic_partition_z1",
    "harmonic_partition_z1_report",
    "relativistic_harmonic_partition_z2",
    "f_oracle",
    "f_closed_form",
    "g_function",
    "g_function_corrected",
    "position_radial_integral",
    "kinetic_radial_integral",
    "anharmonic_relativistic_partition",
    "average_energy_classical",
    "average_energy_metropolis",
]

_TWO_PI = 2.0 * math.pi


def coupling_x(p: OscillatorParams, t: ThermalState) -> float:
    """Dimensionless stiffness-vs-quartic ratio x = sqrt(m^2 w^4 / (64 kT lam))."""
    p.require_anharmonic()
    try:
        return math.sqrt(p.m**2 * p.omega**4 / (64.0 * t.T * p.lam))
    except OverflowError:
        raise OverflowError(f"x = sqrt(m^2 w^4 / (64 T lam)): m^2 w^4 overflows at "
                            f"m={p.m!r}, omega={p.omega!r}") from None


def relativistic_z(p: OscillatorParams, t: ThermalState) -> float:
    """Rest energy over thermal energy, z = m c^2 / (k_B T)."""
    z = p.m / t.T
    if z == 0.0 or z == math.inf:
        raise ArithmeticError(f"z = m/T = {z!r} leaves double range at m={p.m!r}, T={t.T!r}")
    return z


def _omega_squared(p: OscillatorParams, expression: str) -> float:
    # w^2 for the named expression, which cannot be formed once w^2 overflows
    try:
        return p.omega**2
    except OverflowError:
        raise OverflowError(f"{expression}: w^2 overflows at omega={p.omega!r}") from None


# ---------------------------------------------------------------------------
# harmonic reference
# ---------------------------------------------------------------------------

def harmonic_partition_z1(p: OscillatorParams, t: ThermalState) -> float:
    """Printed harmonic partition function V/(2 pi hbar)^3 (2 pi kT / (w sqrt(m)))^3."""
    try:
        return 1.0 / _TWO_PI ** 3 * (_TWO_PI * t.T / (p.omega * math.sqrt(p.m))) ** 3
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"(2 pi T/(w sqrt(m)))^3 overflows at T={t.T!r}, "
                            f"omega={p.omega!r}, m={p.m!r}") from None


def harmonic_partition_z1_report(p: OscillatorParams, t: ThermalState) -> ComparisonReport:
    """Printed formula vs the 6-D Gaussian phase-space quadrature.

    The two disagree except at special masses (the printed formula carries
    a stray 1/sqrt(m)^3 and one phase-space power less); the report exists
    to display exactly that.
    """
    beta = t.beta
    kin = _radial_gaussian_integral(0.5 * beta / p.m)          # int p^2 e^{-beta p^2/2m}
    pos = _radial_gaussian_integral(0.5 * beta * p.m * _omega_squared(p, "beta m w^2 / 2"))
    oracle = (4.0 * math.pi) ** 2 * kin.value * pos.value / _TWO_PI ** 6
    return compare(
        "harmonic_partition_z1",
        harmonic_partition_z1(p, t),
        oracle,
        threshold=1e-8,
        provenance="harmonic phase-space volume, printed formula vs 6-D Gaussian quadrature",
        options_used={"T": t.T},
        quadratures={_UNIT_GAUSSIAN_NAME: _UNIT_RADIAL_GAUSSIAN},
    )


def _unit_radial_gaussian(v: float) -> float:
    e = -v * v
    return v * v * math.exp(e) if e > -745.0 else 0.0


# int_0^inf v^2 exp(-v^2) dv by quadrature; it does not depend on c, so it
# runs once, and _radial_gaussian_integral rescales it
_UNIT_RADIAL_GAUSSIAN = integrate_semi_infinite(_unit_radial_gaussian, 0.0, rel_tol=1e-12)
_UNIT_GAUSSIAN_NAME = "int v^2 e^{-v^2} dv"


def _radial_gaussian_integral(c: float) -> QuadratureResult:
    # int_0^inf r^2 exp(-c r^2) dr = c^(-3/2) int_0^inf v^2 exp(-v^2) dv
    try:
        cube = (1.0 / math.sqrt(c)) ** 3
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"int r^2 e^(-c r^2) dr: c^(-3/2) overflows at c={c!r}") from None
    return _UNIT_RADIAL_GAUSSIAN.scaled(cube)


def relativistic_harmonic_partition_z2(p: OscillatorParams, t: ThermalState) -> ComparisonReport:
    """Closed form of the relativistic harmonic partition function vs quadrature."""
    z = relativistic_z(p, t)
    k0, k1 = (shared_value(sf.bessel_k, nu, z).value for nu in (0.0, 1.0))
    try:
        bracket = (1.0 / z) * k0 + 2.0 / z**2 * k1
    except ZeroDivisionError:
        raise OverflowError(f"K_0(z)/z + 2 K_1(z)/z^2: 2/z^2 overflows at z={z!r}") from None
    w2 = _omega_squared(p, "2 pi m T / w^2")
    literal = (
        4.0 * math.pi
        * (1.0 / _TWO_PI ** 2) ** 3
        * (_TWO_PI * p.m * t.T / w2) ** 1.5
        * bracket
    )

    mom = shared_value(_kinetic_scaled, z, 1.0)[0]  # e^z int sinh^2 cosh e^{-z cosh}
    pos = _radial_gaussian_integral(0.5 * t.beta * p.m * w2)
    kin = 4.0 * math.pi * p.m ** 3 * mom.value * math.exp(-z)
    oracle = kin * (4.0 * math.pi * pos.value) / _TWO_PI ** 6
    return compare(
        "relativistic_harmonic_partition_z2",
        literal,
        oracle,
        threshold=1e-7,
        provenance="relativistic kinetic integral reduced to modified Bessel functions",
        options_used={"T": t.T, "z": z},
        quadratures={"int sinh^2 s cosh s e^{-z cosh s} ds": mom,
                     _UNIT_GAUSSIAN_NAME: pos},
    )


_LN2 = math.log(2.0)


def _log_sinh(x: float) -> float:
    if x < 1e-8:
        return math.log(x) if x > 0.0 else -math.inf
    return x - _LN2 + math.log1p(-math.exp(-2.0 * x))


# the oracles' log cosh; the literal closed forms they check reach K_nu
# through specfun, which runs no quadrature and shares no code with them
def _log_cosh(x: float) -> float:
    x = abs(x)
    return x - _LN2 + math.log1p(math.exp(-2.0 * x))


def _log_sinh2_cosh(t: float, k: float = 1.0) -> float:
    """2 ln sinh t + k ln cosh t, bit for bit, from a single exp(-2t).

    The log-weight of the relativistic kinetic integrals
    int sinh^2 t cosh^k t exp(-z cosh t) dt.
    """
    if t < 1e-8:
        return 2.0 * _log_sinh(t) + _log_cosh(t) * k
    e = math.exp(-2.0 * t)
    return 2.0 * (t - _LN2 + math.log1p(-e)) + (t - _LN2 + math.log1p(e)) * k


def _kinetic_scaled(z: float, k: float) -> QuadratureResults:
    # e^z int_0^inf sinh^2 t cosh^j t e^(-z cosh t) dt, j = k, k + 1, one pass, any z > 0;
    # weight k + 1 is weight k times cosh t: no second exp, no overflow error to void k
    exp, cosh, log1p, log_weight = math.exp, math.cosh, math.log1p, _log_sinh2_cosh

    def f(t: float) -> tuple[float, float]:
        if t <= 0.0 or t > 350.0:
            return 0.0, 0.0
        c = cosh(t)
        if t < 1e-8:
            e = log_weight(t, k) - z * (c - 1.0)
        else:   # _log_sinh2_cosh inlined, operation for operation
            e2 = exp(-2.0 * t)
            e = (2.0 * (t - _LN2 + log1p(-e2)) + (t - _LN2 + log1p(e2)) * k
                 - z * (c - 1.0))
        if e > -745.0:
            w = exp(e)
            return w, w * c
        return 0.0, 0.0

    try:
        return integrate_semi_infinite(f, 0.0, rel_tol=1e-11)
    except OverflowError:
        raise OverflowError(f"sinh^2 t cosh^{k:g} t e^(-z cosh t) overflows at z={z!r}") from None


def kinetic_radial_integral(z: float, k: float) -> QuadratureResult:
    """int_0^inf sinh^2 t cosh^k t exp(-z cosh t) dt (k = 0: K_1(z)/z; k = 1:
    g_function_corrected(z)/z^3) as e^{-z} times component 0 of the e^z-scaled
    (k, k + 1) pass; at k = 1 one memo scope shares that pass with
    relativistic_harmonic_partition_z2 and average_energy_classical."""
    if not z > 0.0:
        raise ValueError(f"the kinetic radial integral requires z > 0, got z={z!r}")
    return shared_value(_kinetic_scaled, z, k)[0].scaled(math.exp(-z))


# ---------------------------------------------------------------------------
# the quartic-Gaussian function F and its companion G
# ---------------------------------------------------------------------------

def _quartic_gaussian(x: float) -> QuadratureResults:
    # F(x) and -F'(x)/4 = int_0^inf u^2 [1, u^2] exp(-4x u^2 - u^4) du, one pass over w = c u
    if x < 0.0:
        raise ValueError(f"F requires x >= 0, got {x}")
    c = math.sqrt(math.sqrt(1.0 + (4.0 * x) ** 2))  # conditioning scale
    m4x = -4.0 * x
    exp = math.exp

    def f(w: float) -> tuple[float, float]:
        uu = w / c
        e = m4x * uu * uu - uu**4
        v = uu * uu * exp(e) if e > -745.0 else 0.0
        return v, v * uu * uu

    res = integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
    return QuadratureResults(QuadratureResult(r.value / c, r.abs_error_estimate / c,
                                              r.evaluations, r.converged) for r in res)


def f_oracle(x: float) -> QuadratureResult:
    """Scale-invariant normal form F(x) = int_0^inf u^2 exp(-4x u^2 - u^4) du,
    with its quadrature record: component 0 of the shared (F, F') pass.

    This is the operational definition of the vibrational closed form: any
    (m, w, lam, T) realization of the same x reduces to this integral.
    """
    return shared_value(_quartic_gaussian, x)[0]


def _position_weight(p: OscillatorParams, beta: float) -> tuple[float, float, float]:
    """(a2, a4, scale) of the position weight r^2 exp(-a2 r^2 - a4 r^4);
    scale is its characteristic width, for conditioning and sampling."""
    a2 = 0.5 * beta * p.m * _omega_squared(p, "beta m w^2 / 2")
    a4 = beta * p.lam
    scale = min(1.0 / math.sqrt(a2), a4 ** -0.25) if a4 > 0.0 else 1.0 / math.sqrt(a2)
    return a2, a4, scale


def _position_integral(p: OscillatorParams, beta: float) -> QuadratureResults:
    # int_0^inf r^2 exp(-a2 r^2 - a4 r^4) [1, V(r)] dv, r = v * scale, in one pass;
    # the integrals over r are scale times these
    a2, a4, scale = _position_weight(p, beta)
    neg_a2, h2, lam, exp = -a2, 0.5 * p.m * p.omega**2, p.lam, math.exp

    def f(v: float) -> tuple[float, float]:
        r = v * scale
        r4 = r**4
        e = neg_a2 * r * r - a4 * r4
        if not e > -745.0:
            return 0.0, 0.0
        w = r * r * exp(e)
        return w, w * (h2 * r * r + lam * r4)

    try:
        return integrate_semi_infinite(f, 0.0, rel_tol=1e-11)
    except OverflowError:
        raise OverflowError(f"a4 r^4 overflows in e^(-a2 r^2 - a4 r^4) at a4={a4!r}") from None


def position_radial_integral(p: OscillatorParams, t: ThermalState) -> QuadratureResult:
    """int_0^inf r^2 exp(-beta m w^2 r^2 / 2 - beta lam r^4) dr: component 0 of
    the (norm, <V> moment) pass that the average energy shares."""
    scale = _position_weight(p, t.beta)[2]
    return shared_value(_position_integral, p, t.beta)[0].scaled(scale)


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


def g_function(x: float) -> float:
    """The printed companion function G(x) = x K_0(x) + 2 x^2 K_1(x)."""
    if not (x > 0.0):
        raise ValueError(f"g_function requires x > 0, got {x}")
    k0, k1 = (shared_value(sf.bessel_k, nu, x).value for nu in (0.0, 1.0))
    return x * k0 + 2.0 * x * x * k1


def g_function_corrected(x: float) -> float:
    """x^2 K_0(x) + 2 x K_1(x): the combination that actually satisfies
    x^3 * int sinh^2 t cosh t e^{-x cosh t} dt, i.e. the printed form with
    its two powers swapped."""
    if not (x > 0.0):
        raise ValueError(f"g_function_corrected requires x > 0, got {x}")
    return x * x * sf.bessel_k(0.0, x).value + 2.0 * x * sf.bessel_k(1.0, x).value


# ---------------------------------------------------------------------------
# anharmonic partition function and average energy
# ---------------------------------------------------------------------------

def anharmonic_relativistic_partition(p: OscillatorParams, t: ThermalState) -> ComparisonReport:
    """a0 F(x) G(z) vs the product of the two radial quadratures.

    F goes through the trusted quadrature route; the printed
    G carries a power swap that cancels exactly at z = 1, so reports away
    from that point come out FLAGGED by design.
    """
    x = coupling_x(p, t)
    z = relativistic_z(p, t)
    a0 = 16.0 * math.pi**2 * p.m ** 3 / _TWO_PI ** 6 * (t.T / p.lam) ** 0.75
    f_q = f_oracle(x)
    literal = a0 * f_q.value * g_function(z)

    mom = shared_value(_kinetic_scaled, z, 1.0)[0]
    log_kin = math.log(4.0 * math.pi * p.m ** 3) - z + math.log(mom.value)
    pos = position_radial_integral(p, t)
    oracle = 1.0 / _TWO_PI ** 6 * math.exp(log_kin) * 4.0 * math.pi * pos.value
    return compare(
        "anharmonic_relativistic_partition",
        literal,
        oracle,
        threshold=1e-6,
        provenance="anharmonic partition product form vs dual radial quadrature",
        options_used={"T": t.T, "x": x, "z": z, "closed_form_F": False},
        quadratures={"F(x) = int u^2 e^{-4x u^2 - u^4} du": f_q,
                     "int sinh^2 s cosh s e^{-z cosh s} ds": mom,
                     "int r^2 e^{-beta V(r)} dr": pos},
    )


def _average_energy_moments(
    p: OscillatorParams, t: ThermalState,
) -> tuple[float, dict[str, QuadratureResult]]:
    # <H> = -d(ln Z)/d(beta) = <m c^2 cosh s> + <V(r)>, and its four integrals
    z = relativistic_z(p, t)
    norm_k, moment_k = shared_value(_kinetic_scaled, z, 1.0)
    norm_p, moment_p = shared_value(_position_integral, p, t.beta)
    quads = {
        "int sinh^2 s cosh^2 s e^{-z cosh s} ds": moment_k,
        "int sinh^2 s cosh s e^{-z cosh s} ds": norm_k,
        "int r^2 V(r) e^{-beta V(r)} dr": moment_p,
        "int r^2 e^{-beta V(r)} dr": norm_p,
    }
    return p.m * moment_k.value / norm_k.value + moment_p.value / norm_p.value, quads


def average_energy_metropolis(
    p: OscillatorParams, t: ThermalState,
    n_samples: int = 100_000, burn_in: int = 5_000, seed: int = 20_08,
):
    """Monte Carlo estimate of <H>; returns (mean, std_error, estimates)."""
    from .oracles import metropolis_expectation

    z = relativistic_z(p, t)
    mc2 = p.m

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


def average_energy_classical(p: OscillatorParams, t: ThermalState) -> ComparisonReport:
    """Printed average-energy formula vs the moment ratio <m c^2 cosh s> + <V(r)>.

    The printed kinetic term -m c^2 G'(z)/G(z), the one home of the printed
    G'(z) = K_0 (1 - 2z^2) + z K_1, is formed from the e^z-scaled K_0, K_1,
    where e^z cancels.  An unconverged quadrature on either side makes the
    report ERROR.  All of it is memo.shared_value.
    """
    kt = t.T
    x = coupling_x(p, t)
    z = relativistic_z(p, t)
    f_q, fp_q = shared_value(_quartic_gaussian, x)     # F'(x) = -4 fp_q
    k0, k1 = (shared_value(sf.bessel_k_scaled, nu, z).value for nu in (0.0, 1.0))
    literal = (
        0.75 * kt
        + math.sqrt(p.m**2 * p.omega**4 * kt / (256.0 * p.lam)) * 4.0 * fp_q.value / f_q.value
        - p.m * (k0 * (1.0 - 2.0 * z * z) + z * k1) / (z * k0 + 2.0 * z * z * k1)
    )
    oracle, moments = _average_energy_moments(p, t)
    quadratures = {"F(x) = int u^2 e^{-4x u^2 - u^4} du": f_q,
                   "F'(x) = -4 int u^4 e^{-4x u^2 - u^4} du": fp_q, **moments}
    return compare(
        "average_energy_classical",
        literal,
        oracle,
        threshold=1e-3,
        provenance="printed average-energy formula, F' by its own quadrature, "
                   "vs the moment ratio <m c^2 cosh s> + <V(r)>",
        options_used={"T": t.T, "x": x, "z": z},
        quadratures=quadratures,
    )
