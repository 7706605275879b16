"""Quantum gas of cubic+quartic perturbed oscillators.

Covers the perturbed level formula and its quadratic-in-n coefficients,
the Bose-Einstein mode sums with their positivity cutoff, massless and
massive energy densities, and the triple-series solution whose terms are
Whittaker functions in disguise (each term is an upper incomplete gamma).

Two evaluation modes coexist throughout: the printed formulas verbatim,
and corrected forms pinned by independent oracles.  Reports pair them;
disagreements surface as FLAGGED rows.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import specfun as sf
from .oracles import SeriesTruncation, integrate_semi_infinite
from .params import NATURAL_UNITS, OscillatorParams, ThermalState, UnitSystem
from .reports import ComparisonReport, Status, compare

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PositivityWindowError",
    "SpectrumCoeffs",
    "DimensionlessCouplings",
    "LadderBasisOperator",
    "position_power_matrix",
    "oscillator_hamiltonian",
    "literal_shift",
    "rspt_shift",
    "perturbative_shift",
    "spectrum_coeffs",
    "dimensionless_couplings",
    "mode_partition_sum",
    "mode_mean_occupancy_energy",
    "massless_integrand",
    "energy_density_massless",
    "energy_density_massive",
    "whittaker_series_term",
    "whittaker_series_term_printed",
    "series_energy_density",
    "blackbody_energy_density",
]


class PositivityWindowError(ValueError):
    """The mode sums have no positivity window where they were asked for."""


# ---------------------------------------------------------------------------
# harmonic-basis operators and perturbation theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderBasisOperator:
    """Exact harmonic-basis matrix of x^power; bandwidth equals power."""

    dimension: int
    matrix: np.ndarray
    power: int


def position_power_matrix(
    power: int, n_dim: int, m: float, omega: float, u: UnitSystem = NATURAL_UNITS
) -> LadderBasisOperator:
    """Matrix of x^power (power in 1..4) from ladder-operator algebra.

    Entries are exact rational multiples of s^(power/2), s = hbar/(2 m w).
    """
    import numpy as np

    if power not in (1, 2, 3, 4):
        raise ValueError(f"power must be in 1..4, got {power}")
    if n_dim < power + 2:
        raise ValueError(f"dimension {n_dim} too small for power {power}")
    s = u.hbar / (2.0 * m * omega)
    n = np.arange(n_dim, dtype=float)
    mat = np.zeros((n_dim, n_dim))
    if power == 1:
        off = np.sqrt(s * (n[:-1] + 1.0))
        mat[np.arange(n_dim - 1), np.arange(1, n_dim)] = off
    elif power == 2:
        np.fill_diagonal(mat, s * (2.0 * n + 1.0))
        off = s * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        mat[np.arange(n_dim - 2), np.arange(2, n_dim)] = off
    elif power == 3:
        off1 = 3.0 * s**1.5 * (n[:-1] + 1.0) ** 1.5
        mat[np.arange(n_dim - 1), np.arange(1, n_dim)] = off1
        off3 = s**1.5 * np.sqrt((n[:-3] + 1.0) * (n[:-3] + 2.0) * (n[:-3] + 3.0))
        mat[np.arange(n_dim - 3), np.arange(3, n_dim)] = off3
    else:
        np.fill_diagonal(mat, s * s * (6.0 * n * n + 6.0 * n + 3.0))
        off2 = s * s * (4.0 * n[:-2] + 6.0) * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        mat[np.arange(n_dim - 2), np.arange(2, n_dim)] = off2
        off4 = s * s * np.sqrt(
            (n[:-4] + 1.0) * (n[:-4] + 2.0) * (n[:-4] + 3.0) * (n[:-4] + 4.0)
        )
        mat[np.arange(n_dim - 4), np.arange(4, n_dim)] = off4
    mat = mat + np.triu(mat, 1).T
    return LadderBasisOperator(dimension=n_dim, matrix=mat, power=power)


def oscillator_hamiltonian(
    n_dim: int, p: OscillatorParams, u: UnitSystem = NATURAL_UNITS
) -> np.ndarray:
    """H = hw(n + 1/2) + mu x^3 + lam x^4 in the harmonic basis."""
    import numpy as np

    n = np.arange(n_dim, dtype=float)
    h = np.diag(u.hbar * p.omega * (n + 0.5))
    if p.mu != 0.0:
        h = h + p.mu * position_power_matrix(3, n_dim, p.m, p.omega, u).matrix
    if p.lam != 0.0:
        h = h + p.lam * position_power_matrix(4, n_dim, p.m, p.omega, u).matrix
    return h


def literal_shift(n: int, p: OscillatorParams, order: str = "both",
                  u: UnitSystem = NATURAL_UNITS) -> float:
    """The printed level shifts, verbatim.

    first order:  3 lam hbar^2 / (4 m^2 w^2) (2n^2 + 2n + 1)
    second order: -mu^2 hbar^2 / (16 m^3 w^4) (n^2 + 6n + 5)
    """
    quartic = 3.0 * p.lam * u.hbar**2 / (4.0 * p.m**2 * p.omega**2) \
        * (2.0 * n * n + 2.0 * n + 1.0)
    cubic = -p.mu**2 * u.hbar**2 / (16.0 * p.m**3 * p.omega**4) \
        * (n * n + 6.0 * n + 5.0)
    if order == "first":
        return quartic
    if order == "second":
        return cubic
    if order == "both":
        return quartic + cubic
    raise ValueError(f"order must be first/second/both, got {order!r}")


def rspt_shift(n: int, p: OscillatorParams, order: str = "both",
               u: UnitSystem = NATURAL_UNITS, n_dim: int | None = None) -> float:
    """Generic Rayleigh-Schrodinger corrections from exact matrix elements.

    first:  <n|H_I|n>;  second: sum_{k != n} |<n|H_I|k>|^2 / (E0_n - E0_k),
    with H_I = mu x^3 + lam x^4.  The basis only needs to cover the
    bandwidth-4 couplings, so n + 20 states are exact.
    """
    import numpy as np

    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    n_dim = n_dim or (n + 20)
    h_i = np.zeros((n_dim, n_dim))
    if p.mu != 0.0:
        h_i += p.mu * position_power_matrix(3, n_dim, p.m, p.omega, u).matrix
    if p.lam != 0.0:
        h_i += p.lam * position_power_matrix(4, n_dim, p.m, p.omega, u).matrix
    first = float(h_i[n, n])
    if order == "first":
        return first
    row = h_i[n, :]
    k = np.arange(n_dim, dtype=float)
    denom = u.hbar * p.omega * (n - k)
    mask = k != n
    second = float(np.sum(row[mask] ** 2 / denom[mask]))
    if order == "second":
        return second
    if order == "both":
        return first + second
    raise ValueError(f"order must be first/second/both, got {order!r}")


def perturbative_shift(n: int, p: OscillatorParams, order: str = "both",
                       u: UnitSystem = NATURAL_UNITS) -> ComparisonReport:
    """Printed shift formulas vs the generic engine, as a report.

    The quartic first-order pieces agree exactly; the printed cubic
    second-order coefficient differs from the standard sum over the four
    intermediate states, which the report exposes rather than hides.
    """
    lit = literal_shift(n, p, order, u)
    gen_a = rspt_shift(n, p, order, u)
    gen_b = rspt_shift(n, p, order, u, n_dim=2 * (n + 20))
    opts = {"n": n, "order": order, "basis_converged": gen_a == gen_b}
    return compare(
        f"perturbative_shift[n={n},{order}]",
        lit,
        gen_a,
        threshold=1e-12,
        provenance="printed level-shift coefficients vs generic matrix-element sums",
        options_used=opts,
    )


@dataclass(frozen=True)
class SpectrumCoeffs:
    """Coefficients of the perturbed level formula E_n = A n^2 + B n + C."""

    a_coeff: float
    b_coeff: float
    c_coeff: float
    omega: float

    def energy_level(self, n: int) -> float:
        return self.a_coeff * n * n + self.b_coeff * n + self.c_coeff


def spectrum_coeffs(omega: float, p: OscillatorParams,
                    u: UnitSystem = NATURAL_UNITS) -> SpectrumCoeffs:
    """A, B, C as printed (meromorphic in omega)."""
    if not (omega > 0.0):
        raise ValueError(f"frequency must be positive, got {omega}")
    h2 = u.hbar**2
    mu2 = p.mu**2
    a = -mu2 * h2 / (16.0 * p.m**3 * omega**4) + 3.0 * p.lam * h2 / (2.0 * p.m**2 * omega**2)
    b = -3.0 * mu2 * h2 / (8.0 * p.m**3 * omega**4) \
        + 3.0 * p.lam * h2 / (2.0 * p.m**2 * omega**2) + u.hbar * omega
    c = -5.0 * mu2 * h2 / (16.0 * p.m**3 * omega**4) \
        + 3.0 * p.lam * h2 / (4.0 * p.m**2 * omega**2) + 0.5 * u.hbar * omega
    return SpectrumCoeffs(a_coeff=a, b_coeff=b, c_coeff=c, omega=omega)


# ---------------------------------------------------------------------------
# dimensionless couplings and the positivity cutoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionlessCouplings:
    """a_A <= 0, a_B >= 0, the infrared threshold kappa^2 = -a_A/a_B, and
    the positivity cutoff y_star below which the mode sums diverge."""

    a_A: float
    a_B: float
    kappa_sq: float
    y_star: float
    g1_includes_y: bool = False

    def g1(self, y: float) -> float:
        base = 6.0 * self.a_A / y**4 + 2.0 * self.a_B / y**2
        return base + y if self.g1_includes_y else base

    def g2(self, y: float) -> float:
        return self.a_A / y**4 + self.a_B / y**2

    def f_n(self, y: float, n: np.ndarray | float):
        return (self.a_A * (n * n + 6.0 * n) / y**4
                + self.a_B * (2.0 * n * n + 2.0 * n) / y**2
                + n * y)

    @classmethod
    def from_values(cls, a_A: float, a_B: float,
                    g1_includes_y: bool = False) -> "DimensionlessCouplings":
        if a_A > 0.0:
            raise ValueError(f"a_A must be <= 0, got {a_A}")
        if a_B < 0.0:
            raise ValueError(f"a_B must be >= 0, got {a_B}")
        if a_A == 0.0:
            return cls(0.0, a_B, 0.0, 0.0, g1_includes_y)
        if a_B == 0.0:
            raise PositivityWindowError(
                "no positivity window: a_B = 0 with a_A < 0 keeps the "
                "quadratic mode coefficient negative for every y"
            )
        kappa_sq = -a_A / a_B
        y2_root = math.sqrt(kappa_sq)                 # g2 > 0  <=>  y > kappa
        if g1_includes_y:
            # root of y^4 g1 = 6 a_A + 2 a_B y^2 + y^5, increasing for y > 0:
            # bisect the bracket down to float resolution
            def h(y: float) -> float:
                return 6.0 * a_A + 2.0 * a_B * y * y + y**5

            lo, hi = 0.0, max(1.0, math.sqrt(3.0 * kappa_sq)) * 2.0
            while h(hi) < 0.0:
                hi *= 2.0
            while True:
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if h(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            y1_root = hi
        else:
            y1_root = math.sqrt(3.0 * kappa_sq)
        return cls(a_A, a_B, kappa_sq, max(y1_root, y2_root), g1_includes_y)


def dimensionless_couplings(p: OscillatorParams, t: ThermalState,
                            u: UnitSystem = NATURAL_UNITS,
                            g1_includes_y: bool = False) -> DimensionlessCouplings:
    """a_A = -hbar^6 mu^2 / (16 m^3 (kT)^5), a_B = 3 lam hbar^4 / (4 m^2 (kT)^3)."""
    kt = t.kt(u)
    a_a = -u.hbar**6 * p.mu**2 / (16.0 * p.m**3 * kt**5)
    a_b = 3.0 * p.lam * u.hbar**4 / (4.0 * p.m**2 * kt**3)
    return DimensionlessCouplings.from_values(a_a, a_b, g1_includes_y)


# ---------------------------------------------------------------------------
# mode sums
# ---------------------------------------------------------------------------

def _require_window(y: float, d: DimensionlessCouplings):
    if y <= d.y_star:
        raise PositivityWindowError(
            f"y={y} is at or below the positivity cutoff y_star={d.y_star}: "
            "the quadratic mode coefficients turn negative and the "
            "occupation sum diverges"
        )


def _in_window(y: float, d: DimensionlessCouplings, y_cut: float) -> bool:
    # Heaviside of the mode sums: above the cutoff, y_star and both
    # threshold functions
    if y <= y_cut or y <= d.y_star or y <= 0.0:
        return False
    return not (d.a_A < 0.0 and (d.g1(y) <= 0.0 or d.g2(y) <= 0.0))


def _mode_sums(y: float, d: DimensionlessCouplings, rel_tol: float,
               n_cap: int = 2_000_000) -> tuple[float, float, int, float, float]:
    """Sums over n >= 0 of f_n e^{-f_n} and of e^{-f_n}, with a rigorous stop.

    Returns (num, den, last n summed, bound on num's dropped tail, bound on
    den's dropped tail).  In the window f_n = q n^2 + l n with q >= 0 and
    f_1 > 0, so it is convex and the increments D_n = f_{n+1} - f_n never
    decrease: f_{n+m} >= f_n + m D_n.  With w_n = e^{-f_n}, r = e^{-D_n}
    and g = r/(1-r) = 1/expm1(D_n), the tail of sum e^{-f} after n is at
    most w_n g; once f_{n+1} >= 1 (where x e^{-x} decreases) the tail of
    sum f e^{-f} is at most w_n (f_n g + D_n g (1 + g)).  Summing stops
    when both bounds are within rel_tol of their sums.
    """
    y2 = y * y
    y4 = y2 * y2
    quad = d.a_A / y4 + 2.0 * d.a_B / y2
    lin = 6.0 * d.a_A / y4 + 2.0 * d.a_B / y2 + y
    if not (y > 0.0 and quad >= 0.0 and quad + lin > 0.0):
        raise PositivityWindowError(
            f"y={y} is outside the positivity window: f_n is not convex "
            "and increasing, so the mode sums have no tail bound"
        )
    exp, expm1 = math.exp, math.expm1
    num = den = 0.0
    f = 0.0
    n = 0
    while n < n_cap:
        w = exp(-f)
        den += w
        num += f * w
        n += 1
        f_next = (quad * n + lin) * n
        step = f_next - f
        if f_next >= 1.0:
            g = 1.0 / expm1(step) if step < 700.0 else 0.0
            tail_den = w * g
            tail_num = w * g * (f + step * (1.0 + g))
            if tail_den <= rel_tol * den and tail_num <= rel_tol * num:
                return num, den, n - 1, tail_num, tail_den
        f = f_next
    raise RuntimeError(f"mode sums did not converge within {n_cap} terms at y={y}")


def mode_partition_sum(y: float, d: DimensionlessCouplings,
                       rel_tol: float = 1e-10) -> tuple[float, SeriesTruncation]:
    """sum_n exp(-f_n(y)) with zero-point terms deliberately absent."""
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    _require_window(y, d)
    _, den, n_max, _, tail = _mode_sums(y, d, rel_tol)
    return den, SeriesTruncation(n_max=n_max, tail_estimate=tail)


def mode_mean_occupancy_energy(y: float, d: DimensionlessCouplings,
                               rel_tol: float = 1e-12) -> float:
    """Dimensionless mean mode energy sum f_n e^{-f_n} / sum e^{-f_n}."""
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    _require_window(y, d)
    num, den, _, _, _ = _mode_sums(y, d, rel_tol)
    return num / den


def massless_integrand(y: float, d: DimensionlessCouplings, y_cut: float = 0.0,
                       rel_tol: float = 1e-12) -> float:
    """Spectral energy density sample: mean mode energy times y^2.

    Exactly zero at or below both the cutoff and the positivity threshold
    (Heaviside semantics baked into the integrand itself).
    """
    if not _in_window(y, d, y_cut):
        return 0.0
    num, den, _, _, _ = _mode_sums(y, d, rel_tol)
    return num / den * y * y


def blackbody_energy_density(t: ThermalState, u: UnitSystem = NATURAL_UNITS) -> float:
    """Reference pi^2/15 (kT)^4 / (hbar c)^3 limit value."""
    kt = t.kt(u)
    return math.pi**2 / 15.0 * kt**4 / (u.hbar**3 * u.c**3)


def _density_prefactor(t: ThermalState, u: UnitSystem) -> float:
    kt = t.kt(u)
    return kt**4 / (u.hbar**3 * math.pi**2 * u.c**3)


def _resolve_cut(d: DimensionlessCouplings, cutoff_convention: str) -> float:
    if cutoff_convention == "y_star":
        return d.y_star
    if cutoff_convention == "kappa_literal":
        return 3.0 * d.kappa_sq
    raise ValueError(f"unknown cutoff convention {cutoff_convention!r}")


def energy_density_massless(
    p: OscillatorParams, t: ThermalState, u: UnitSystem = NATURAL_UNITS,
    cutoff_convention: str = "y_star",
    g1_includes_y: bool = False,
    rel_tol: float = 1e-9,
    threshold: float = 1e-6,
    integrals: dict[tuple, float] | None = None,
) -> ComparisonReport:
    """Massless Bose-Einstein energy density with the positivity cutoff.

    Boltzmann weights use exp(-f_n) throughout (the lone positive-exponent
    display is treated as a sign slip; the positive form diverges).
    Literal and oracle sides run independent transforms and tolerances;
    the other cutoff convention's value is echoed in options_used.

    ``integrals``, if given, keeps each integral computed and supplies one
    found there. A key holds every argument its integral depends on, so
    reuse changes no bit. The two cutoff conventions at one temperature
    share integrals: at kappa^2 <= 1/3 both cuts resolve to y_star, and
    the two reports have the same literal and oracle.
    """
    if integrals is None:
        integrals = {}
    if p.lam <= 0.0 and p.mu != 0.0:
        raise PositivityWindowError("cubic coupling without quartic has no positivity window")
    d = dimensionless_couplings(p, t, u, g1_includes_y)
    y_cut = _resolve_cut(d, cutoff_convention)
    pref = _density_prefactor(t, u)

    def run(cut: float, transform: str, series_tol: float) -> float:
        # the integrand vanishes at or below max(cut, y_star), so that lower
        # limit, not the cut, fixes the integral with the other arguments
        lower = max(cut, d.y_star)
        key = (p, t, u, g1_includes_y, rel_tol, lower, transform, series_tol)
        if key not in integrals:
            res = integrate_semi_infinite(
                lambda y: massless_integrand(y, d, cut, series_tol),
                lower, rel_tol=rel_tol, transform=transform,
            )
            integrals[key] = pref * res.value
        return integrals[key]

    literal = run(y_cut, "rational", 1e-12)
    oracle = run(y_cut, "exp", 5e-13)
    other = "kappa_literal" if cutoff_convention == "y_star" else "y_star"
    other_val = run(_resolve_cut(d, other), "rational", 1e-12)
    return compare(
        "energy_density_massless",
        literal,
        oracle,
        threshold=threshold,
        provenance="mode-sum energy density, dual-transform quadrature",
        options_used={
            "T": t.T,
            "cutoff_convention": cutoff_convention,
            "y_cut": y_cut,
            "y_star": d.y_star,
            "value_other_cutoff": other_val,
            "g1_includes_y": g1_includes_y,
        },
    )


def energy_density_massive(
    p: OscillatorParams, mass_gas: float, t: ThermalState,
    u: UnitSystem = NATURAL_UNITS,
    cutoff_convention: str = "y_star",
    g1_includes_y: bool = False,
    rel_tol: float = 1e-9,
    threshold: float = 0.05,
) -> ComparisonReport:
    """Massive-gas energy density: printed radicand vs dispersion-corrected.

    The printed square root uses (kT/Mc^2)^2 y - 1, linear in y; the
    corrected mode squares the whole combination.  Both are computed and
    paired; an unreachable window yields a FLAGGED zero, not a crash.
    """
    if mass_gas <= 0.0:
        raise ValueError(f"gas mass must be positive, got {mass_gas}")
    if p.lam <= 0.0 and p.mu != 0.0:
        raise PositivityWindowError("cubic coupling without quartic has no positivity window")
    d = dimensionless_couplings(p, t, u, g1_includes_y)
    y_cut = _resolve_cut(d, cutoff_convention)
    kt = t.kt(u)
    q = kt / (mass_gas * u.c**2)
    pref = mass_gas * u.c**2 * kt / (2.0 * u.hbar**3 * math.pi**2 * u.c**3)

    def run(mode: str, transform: str) -> float:
        y_min = 1.0 / q**2 if mode == "printed" else 1.0 / q
        lower = max(y_min, y_cut, d.y_star)

        def f(y: float) -> float:
            if y <= lower:
                return 0.0
            rad = q * q * y - 1.0 if mode == "printed" else (q * y) ** 2 - 1.0
            if rad <= 0.0:
                return 0.0
            base = massless_integrand(y, d, y_cut)
            if base == 0.0:
                return 0.0
            return base / y * math.sqrt(rad)     # mean * y * sqrt(radicand)

        return pref * integrate_semi_infinite(f, lower, rel_tol=rel_tol,
                                              transform=transform).value

    literal = run("printed", "rational")
    corrected = run("dispersion", "rational")
    rep = compare(
        "energy_density_massive",
        literal,
        corrected,
        threshold=threshold,
        provenance="massive-gas density, printed radicand vs dispersion-corrected",
        options_used={
            "T": t.T, "mass_gas": mass_gas, "q": q,
            "cutoff_convention": cutoff_convention,
            "corrected_dual_transform": run("dispersion", "exp"),
        },
    )
    if literal == 0.0 and corrected == 0.0:
        rep = ComparisonReport(
            rep.quantity_name, 0.0, 0.0, 0.0, 0.0, Status.FLAGGED,
            rep.provenance, threshold,
            {**rep.options_used, "window": "empty"},
        )
    return rep


# ---------------------------------------------------------------------------
# the triple series and its Whittaker terms
# ---------------------------------------------------------------------------

def _line_powers(i: int, j: int) -> tuple[float, float, float]:
    # y-exponents of the three numerator lines after the y^2 weight
    return (-2.0 - 4.0 * i - 2.0 * j, -4.0 * i - 2.0 * j, 3.0 - 4.0 * i - 2.0 * j)


def _gamma_tail_integral(power: float, decay: float, y0: float) -> float:
    """int_{y0}^inf y^power e^{-decay y} dy via the Whittaker connection.

    Equal to Gamma(power+1, decay*y0) / decay^(power+1); the log-scaled
    Whittaker route keeps huge magnitudes finite.
    """
    a = power + 1.0
    if y0 <= 0.0:
        if a <= 0.0:
            raise ValueError("tail integral diverges at the origin for power <= -1")
        return math.exp(math.lgamma(a) - a * math.log(decay))
    x = decay * y0
    # Gamma(a, x) = e^{-x/2} x^{(a-1)/2} W_{(a-1)/2, a/2}(x)
    log_w, sign = sf.log_whittaker_w(0.5 * (a - 1.0), 0.5 * a, x)
    log_val = -0.5 * x + 0.5 * (a - 1.0) * math.log(x) + log_w - a * math.log(decay)
    if log_val > 705.0:
        raise sf.SpecialFunctionOverflow(
            f"series term magnitude exp({log_val:.1f}) overflows"
        )
    return sign * math.exp(log_val)


# tail integrals of the _triple_sum call running in this context, or None
_TAIL_MEMO: ContextVar[dict | None] = ContextVar("anhgas_tail_memo", default=None)


def _tail_integral(power: float, decay: float, y0: float) -> float:
    memo = _TAIL_MEMO.get()
    if memo is None:
        return _gamma_tail_integral(power, decay, y0)
    key = (power, decay, y0)
    val = memo.get(key)
    if val is None:
        val = memo[key] = _gamma_tail_integral(power, decay, y0)
    return val


def whittaker_series_term(i: int, j: int, n: int, d: DimensionlessCouplings,
                          y0: float | None = None) -> tuple[float, float]:
    """Corrected series term pair (f_term, g_term) at indices (i, j, n).

    f_term collects the three tail integrals with decay n, g_term the same
    with decay n+1; their coefficient polynomials stay in n.  The printed
    blocks carry three typos (an exponential shifted to n+1, one power
    factor left at n, and a swapped index in the last exponent); this
    function evaluates the oracle-pinned corrected form, while
    whittaker_series_term_printed reproduces the typeset one.
    """
    if n < 1:
        raise ValueError(f"series terms start at n = 1, got {n}")
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    if y0 is None:
        y0 = 3.0 * d.kappa_sq
    p1, p2, p3 = _line_powers(i, j)
    c1 = d.a_A * (n * n + 6.0 * n)
    c2 = d.a_B * (2.0 * n * n + 2.0 * n)
    c3 = float(n)

    def assemble(decay: float) -> float:
        total = 0.0
        for coeff, power in ((c1, p1), (c2, p2), (c3, p3)):
            if coeff == 0.0:
                continue
            total += coeff * _tail_integral(power, decay, y0)
        return total

    return assemble(float(n)), assemble(float(n + 1))


def whittaker_series_term_printed(i: int, j: int, n: int, d: DimensionlessCouplings
                                  ) -> tuple[float, float]:
    """The two printed three-line blocks evaluated verbatim.

    First block (argument 3 n kappa^2) and second block (argument
    3 (n+1) kappa^2), both with the typeset exponential
    e^{-(3/2)(n+1) kappa^2}, the second block's first-line power factor
    (3 n kappa^2)^(-1-2i-j), and the last-line exponent -4+4j+2j.
    """
    if n < 1:
        raise ValueError(f"series terms start at n = 1, got {n}")
    if d.kappa_sq <= 0.0:
        raise ValueError("printed blocks need kappa_sq > 0")
    k2 = d.kappa_sq
    x_n = 3.0 * n * k2
    x_n1 = 3.0 * (n + 1.0) * k2
    expo = -1.5 * (n + 1.0) * k2
    c_a = d.a_A * (n * n + 6.0 * n)
    c_b = d.a_B * (2.0 * n * n + 2.0 * n)

    def w_term(kap: float, mu: float, z: float) -> float:
        log_w, sign = sf.log_whittaker_w(kap, mu, z)
        return sign, log_w

    def line(coeff: float, n_pow_base: float, n_pow: float,
             arg_pow_base: float, arg_pow: float,
             kap: float, mu: float, z: float) -> float:
        if coeff == 0.0:
            return 0.0
        sign, log_w = w_term(kap, mu, z)
        log_mag = (math.log(abs(coeff)) + n_pow * math.log(n_pow_base)
                   + arg_pow * math.log(arg_pow_base) + expo + log_w)
        if log_mag > 705.0:
            raise sf.SpecialFunctionOverflow(
                f"printed term magnitude exp({log_mag:.1f}) overflows"
            )
        return math.copysign(math.exp(log_mag), coeff) * sign

    def block(base: float, arg: float) -> float:
        # base is n for the first block, n+1 for the second; the second
        # block's first line keeps the typeset (3 n kappa^2) power factor
        l1 = line(c_a, base, 1.0 + 4.0 * i + 2.0 * j,
                  x_n, -(1.0 + 2.0 * i + j),
                  -(1.0 + 2.0 * i + j), -(1.0 + 4.0 * i + 2.0 * j) / 2.0, arg)
        l2 = line(c_b, base, -1.0 + 4.0 * i + 2.0 * j,
                  arg, -(2.0 * i + j),
                  -(2.0 * i + j), -(-1.0 + 4.0 * i + 2.0 * j) / 2.0, arg)
        l3 = line(float(n), base, -4.0 + 4.0 * j + 2.0 * j,
                  arg, -(-3.0 + 4.0 * i + 2.0 * j) / 2.0,
                  -(-3.0 + 4.0 * i + 2.0 * j) / 2.0,
                  -(-4.0 + 4.0 * i + 2.0 * j) / 2.0, arg)
        return l1 + l2 + l3

    return block(float(n), x_n), block(float(n + 1), x_n1)


def series_energy_density(
    p: OscillatorParams, t: ThermalState, u: UnitSystem = NATURAL_UNITS,
    trunc: SeriesTruncation | None = None,
    cutoff_convention: str = "y_star",
    g1_includes_y: bool = False,
    rel_tol: float = 1e-9,
    threshold: float = 0.01,
) -> ComparisonReport:
    """Triple-series energy density vs denominator-replaced quadrature.

    Valid in the small-coupling regime where the occupation denominator
    can be replaced by 1/(1 - e^-y); enforced via a_B <= 0.1.  The series
    telescopes the replacement exactly: each n contributes tail integrals
    with decay n minus the same with decay n+1.
    """
    d = dimensionless_couplings(p, t, u, g1_includes_y)
    if d.a_B > 0.1:
        raise ValueError(
            f"a_B={d.a_B:.3g} outside the denominator-replacement regime (<= 0.1)"
        )
    trunc = trunc or SeriesTruncation(n_max=50, i_max=3, j_max=3)
    y0 = _resolve_cut(d, cutoff_convention) if d.kappa_sq > 0.0 else 0.0
    pref = _density_prefactor(t, u)

    try:
        value, tail, box_ok = _triple_sum(d, trunc, y0)
    except sf.SpecialFunctionOverflow as exc:
        # a term magnitude left double range; report it, do not crash
        return ComparisonReport(
            "series_energy_density", math.nan, math.nan, math.nan, math.nan,
            Status.ERROR,
            "triple tail-integral series vs denominator-replaced quadrature",
            threshold,
            {"T": t.T, "overflow": str(exc), "y0": y0,
             "n_max": trunc.n_max, "i_max": trunc.i_max, "j_max": trunc.j_max},
        )
    literal = pref * value

    def replaced(y: float) -> float:
        if not _in_window(y, d, y0):
            return 0.0
        num = _mode_sums(y, d, 1e-12)[0]
        return num * -math.expm1(-y) * y * y

    oracle = pref * integrate_semi_infinite(replaced, y0, rel_tol=rel_tol).value
    rep = compare(
        "series_energy_density",
        literal,
        oracle,
        threshold=threshold,
        provenance="triple tail-integral series vs denominator-replaced quadrature",
        options_used={
            "T": t.T,
            "n_max": trunc.n_max, "i_max": trunc.i_max, "j_max": trunc.j_max,
            "tail_estimate": pref * tail,
            "y0": y0,
            "cutoff_convention": cutoff_convention,
            "box_converged": box_ok,
        },
    )
    if not box_ok:
        rep = ComparisonReport(
            rep.quantity_name, rep.literal, rep.oracle, rep.abs_dev, rep.rel_dev,
            Status.FLAGGED, rep.provenance, rep.threshold,
            {**rep.options_used, "note": "truncation box too small"},
        )
    return rep


def _geometric_tail(last: float, prev: float) -> tuple[float, bool]:
    # bound the dropped remainder of a layer sequence from its last ratio
    if last == 0.0:
        return 0.0, True
    if prev == 0.0 or abs(last) >= abs(prev):
        return abs(last), False
    r = abs(last) / abs(prev)
    return abs(last) * r / (1.0 - r), True


def _triple_sum(d: DimensionlessCouplings, trunc: SeriesTruncation,
                y0: float) -> tuple[float, float, bool]:
    """(value, tail_estimate, box_converged) of the truncated triple sum.

    A tail integral depends only on (power, decay): the power only on
    2i + j, and decay n + 1 serves the g-term at n and the f-term at n + 1,
    so each distinct one is computed once per call.
    """
    token = _TAIL_MEMO.set({})
    try:
        total = 0.0
        shell_prev = None
        tail_n = 0.0
        tail_ij = 0.0
        box_ok = True
        expand_i = d.a_A != 0.0
        expand_j = d.a_B != 0.0
        for n in range(1, trunc.n_max + 1):
            shell = 0.0
            log_afac = math.log(abs(d.a_A) * (n * n + 6.0 * n)) if expand_i else -math.inf
            log_bfac = math.log(d.a_B * (2.0 * n * n + 2.0 * n)) if expand_j else -math.inf
            i_layers = [0.0] * (trunc.i_max + 1)
            j_layers = [0.0] * (trunc.j_max + 1)
            for i in range(trunc.i_max + 1):
                if not expand_i and i > 0:
                    break
                for j in range(trunc.j_max + 1):
                    if not expand_j and j > 0:
                        break
                    if i == 0 and j == 0:
                        c = 1.0
                    else:
                        log_c = (i * log_afac + j * log_bfac
                                 - math.lgamma(i + 1.0) - math.lgamma(j + 1.0))
                        if log_c < -700.0:
                            continue
                        # (-1)^(i+j) (a_A ...)^i (a_B ...)^j with a_A's own sign
                        # folded in: for a_A < 0 the i-alternation cancels
                        sign = (-1.0) ** (i + j) * math.copysign(1.0, d.a_A) ** i
                        c = sign * math.exp(log_c)
                    f_term, g_term = whittaker_series_term(i, j, n, d, y0=y0)
                    piece = c * (f_term - g_term)
                    shell += piece
                    i_layers[i] += abs(piece)
                    j_layers[j] += abs(piece)
            total += shell
            floor = 1e-13 * max(abs(total), 1e-300)   # noise-scale layers are benign
            if expand_i and trunc.i_max >= 1:
                t, ok = _geometric_tail(i_layers[-1], i_layers[-2])
                tail_ij += t
                box_ok = box_ok and (ok or i_layers[-1] <= floor)
            elif expand_i:
                box_ok = False     # i-expansion truncated at its first term
            if expand_j and trunc.j_max >= 1:
                t, ok = _geometric_tail(j_layers[-1], j_layers[-2])
                tail_ij += t
                box_ok = box_ok and (ok or j_layers[-1] <= floor)
            elif expand_j:
                box_ok = False
            if shell_prev is not None:
                t, ok = _geometric_tail(shell, shell_prev)
                if ok or abs(shell) <= floor:
                    tail_n = t if ok else abs(shell)
                elif n > 4:
                    box_ok = False
            shell_prev = shell
        return total, tail_n + tail_ij, box_ok
    finally:
        _TAIL_MEMO.reset(token)
