"""Quantum gas of cubic+quartic perturbed oscillators.

Covers the perturbed level shifts, the Bose-Einstein mode sums with
their positivity cutoff, massless and massive energy densities, and the
triple-series solution whose terms are Whittaker functions in disguise
(each term is an upper incomplete gamma).

Two evaluation modes coexist throughout: the printed formulas verbatim,
and corrected forms pinned by independent oracles.  Reports pair them;
disagreements surface as FLAGGED rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from . import specfun as sf
from .memo import memo_scope, shared_value
from .oracles import QuadratureResult, integrate_finite, integrate_semi_infinite
from .params import OscillatorParams, ThermalState
from .reports import ComparisonReport, Status, compare

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PositivityWindowError", "DimensionlessCouplings",
    "position_power_matrix", "oscillator_hamiltonian",
    "literal_shift", "rspt_shift", "perturbative_shift", "dimensionless_couplings",
    "massless_integrand", "energy_density_massless", "energy_density_massive",
    "whittaker_series_term", "series_energy_density",
    "blackbody_energy_density",
]


class PositivityWindowError(ValueError):
    """The mode sums have no positivity window where they were asked for."""


_DENSITY_REL_TOL = 1e-9     # of every energy-density quadrature
# largest a_B at which the triple series replaces the occupation denominator
SERIES_MAX_A_B = 0.1
# the triple series' truncation box: n <= _N_MAX, i <= _I_MAX, j <= _J_MAX
_N_MAX, _I_MAX, _J_MAX = 50, 3, 3


# ---------------------------------------------------------------------------
# harmonic-basis operators and perturbation theory
# ---------------------------------------------------------------------------

def _x_power(power: int, i: int, d: int, s: float) -> float:
    """<i|x^power|i+d> (power in 1..4, d >= 0) from ladder-operator algebra.

    Entries are exact rational multiples of s^(power/2), s = hbar/(2 m w);
    they vanish unless d <= power and d has the parity of power.
    """
    if d > power or (power - d) % 2:
        return 0.0
    if power == 1:
        return math.sqrt(s * (i + 1))
    if power == 2:
        return s * (2 * i + 1) if d == 0 else s * math.sqrt((i + 1) * (i + 2))
    if power == 3:
        if d == 1:
            return 3.0 * s**1.5 * (i + 1) ** 1.5
        return s**1.5 * math.sqrt((i + 1) * (i + 2) * (i + 3))
    if d == 0:
        return s * s * (6 * i * i + 6 * i + 3)
    if d == 2:
        return s * s * (4 * i + 6) * math.sqrt((i + 1) * (i + 2))
    return s * s * math.sqrt((i + 1) * (i + 2) * (i + 3) * (i + 4))


def position_power_matrix(power: int, n_dim: int, m: float, omega: float) -> np.ndarray:
    """Matrix of x^power (power in 1..4) in the lowest n_dim harmonic states;
    the bandwidth equals power."""
    import numpy as np

    if power not in (1, 2, 3, 4):
        raise ValueError(f"power must be in 1..4, got {power}")
    if n_dim < power + 2:
        raise ValueError(f"dimension {n_dim} too small for power {power}")
    s = 1.0 / (2.0 * m * omega)
    mat = np.zeros((n_dim, n_dim))
    for d in range(power % 2, power + 1, 2):
        for i in range(n_dim - d):
            mat[i, i + d] = mat[i + d, i] = _x_power(power, i, d, s)
    return mat


def oscillator_hamiltonian(n_dim: int, p: OscillatorParams) -> np.ndarray:
    """H = hw(n + 1/2) + mu x^3 + lam x^4 in the harmonic basis."""
    import numpy as np

    h = np.diag(p.omega * (np.arange(n_dim, dtype=float) + 0.5))
    for power, g in ((3, p.mu), (4, p.lam)):
        if g != 0.0:
            h += g * position_power_matrix(power, n_dim, p.m, p.omega)
    return h


def _by_order(order: str, first: Callable[[], float],
              second: Callable[[], float]) -> float:
    # a level shift of the given order; only the orders asked for are evaluated
    pick = {"first": first, "second": second, "both": lambda: first() + second()}
    if order not in pick:
        raise ValueError(f"order must be first/second/both, got {order!r}")
    return pick[order]()


def literal_shift(n: int, p: OscillatorParams, order: str = "both") -> float:
    """The printed level shifts, verbatim.

    first order:  3 lam hbar^2 / (4 m^2 w^2) (2n^2 + 2n + 1)
    second order: -mu^2 hbar^2 / (16 m^3 w^4) (n^2 + 6n + 5), not
    evaluated at mu = 0 (as in rspt_shift), where w^4 may underflow
    """
    return _by_order(
        order,
        lambda: 3.0 * p.lam / (4.0 * p.m**2 * p.omega**2) * (2.0 * n * n + 2.0 * n + 1.0),
        lambda: -p.mu**2 / (16.0 * p.m**3 * p.omega**4) * (n * n + 6.0 * n + 5.0)
        if p.mu != 0.0 else 0.0,
    )


def rspt_shift(n: int, p: OscillatorParams, order: str = "both") -> float:
    """Generic Rayleigh-Schrodinger corrections from exact matrix elements.

    first:  <n|H_I|n>;  second: sum_{k != n} |<n|H_I|k>|^2 / (E0_n - E0_k),
    with H_I = mu x^3 + lam x^4.  H_I has bandwidth 4, so the sum over
    |k - n| <= 4 is exact.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    s = 1.0 / (2.0 * p.m * p.omega)

    def h_i(k: int) -> float:
        # odd offsets are the cubic band, even ones the quartic band; a zero
        # coupling's band is never evaluated
        d = abs(k - n)
        g, power = (p.mu, 3) if d % 2 else (p.lam, 4)
        return g * _x_power(power, min(n, k), d, s) if g != 0.0 else 0.0

    def second() -> float:
        elements = ((h_i(k), p.omega * (n - k))
                    for k in range(max(0, n - 4), n + 5) if k != n)
        return math.fsum(v * v / denom for v, denom in elements)

    return _by_order(order, lambda: h_i(n), second)


def perturbative_shift(n: int, p: OscillatorParams, order: str = "both") -> ComparisonReport:
    """Printed shift formulas vs the generic engine, as a report.

    The quartic first-order pieces agree exactly; the printed cubic
    second-order coefficient differs from the standard sum over the four
    intermediate states, which the report exposes rather than hides.
    """
    return compare(
        f"perturbative_shift[n={n},{order}]",
        literal_shift(n, p, order),
        rspt_shift(n, p, order),
        threshold=1e-12,
        provenance="printed level-shift coefficients vs generic matrix-element sums",
        options_used={"n": n, "order": order},
    )


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

    @classmethod
    def from_values(cls, a_A: float, a_B: float) -> "DimensionlessCouplings":
        if a_A > 0.0:
            raise ValueError(f"a_A must be <= 0, got {a_A}")
        if a_B < 0.0:
            raise ValueError(f"a_B must be >= 0, got {a_B}")
        if a_A == 0.0:
            return cls(0.0, a_B, 0.0, 0.0)
        if a_B == 0.0:
            raise PositivityWindowError(
                "no positivity window: a_B = 0 with a_A < 0 keeps the "
                "quadratic mode coefficient negative for every y"
            )
        kappa_sq = -a_A / a_B
        if not math.isfinite(kappa_sq):
            raise OverflowError(f"kappa^2 = -a_A/a_B = {-a_A:.6g}/{a_B:.6g} overflows")
        # the g1 root sqrt(3 kappa^2) lies above the g2 root kappa
        return cls(a_A, a_B, kappa_sq, math.sqrt(3.0 * kappa_sq))


def dimensionless_couplings(p: OscillatorParams, t: ThermalState) -> DimensionlessCouplings:
    """a_A = -hbar^6 mu^2 / (16 m^3 (kT)^5), a_B = 3 lam hbar^4 / (4 m^2 (kT)^3).

    The one place that decides the positivity window: a cubic coupling
    without a quartic one has none, even where a_A underflows to zero.
    """
    if p.lam <= 0.0 and p.mu != 0.0:
        raise PositivityWindowError("cubic coupling without quartic has no positivity window")
    try:
        a_a = -p.mu**2 / (16.0 * p.m**3 * t.T**5)
        a_b = 3.0 * p.lam / (4.0 * p.m**2 * t.T**3)
        if math.isinf(a_a) or math.isinf(a_b):      # a quotient overflowed
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise OverflowError("a_A = -mu^2/(16 m^3 T^5), a_B = 3 lam/(4 m^2 T^3) overflow "
                            f"at mu={p.mu!r}, lam={p.lam!r}, m={p.m!r}, T={t.T!r}") from None
    return DimensionlessCouplings.from_values(a_a, a_b)


# ---------------------------------------------------------------------------
# mode sums
# ---------------------------------------------------------------------------

def _in_window(y: float, d: DimensionlessCouplings, y_cut: float) -> bool:
    # Heaviside of the mode sums: above the cutoff and y_star, which is
    # where both threshold functions turn positive
    return y > y_cut and y > d.y_star and y > 0.0


def _mode_sums(y: float, d: DimensionlessCouplings,
               rel_tol: float) -> tuple[float, float, int, float, float]:
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
    while n < 2_000_000:
        w = exp(-f)
        den += w
        num += f * w
        n += 1
        f_next = (quad * n + lin) * n
        step = f_next - f
        if f_next >= 1.0:
            g = 1.0 / expm1(step) if step < 700.0 else 0.0
            tail_den = w * g
            tail_num = w * g * (f + step * (1.0 + g)) if g else 0.0    # also at step = inf
            if tail_den <= rel_tol * den and tail_num <= rel_tol * num:
                return num, den, n - 1, tail_num, tail_den
        f = f_next
    raise RuntimeError(f"mode sums did not converge within {n} terms at y={y}")


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


def blackbody_energy_density(t: ThermalState) -> float:
    """Reference pi^2/15 (kT)^4 / (hbar c)^3 limit value."""
    return math.pi**2 / 15.0 * t.T**4


def _density_prefactor(t: ThermalState) -> float:
    return t.T**4 / math.pi**2


def _width(d: DimensionlessCouplings) -> float:
    # 4 times the width (8 a_B)^(1/3), where the mode-sum weight peaks (as 2 a_B^(1/3),
    # which cannot overflow): the density coordinates run in units of it, so the exp
    # map's e^{-y} tail vanishes as (1-t)^4 or faster
    return 4.0 * max(1.0, 2.0 * d.a_B ** (1.0 / 3.0))


def _resolve_cut(d: DimensionlessCouplings, cutoff_convention: str) -> float:
    if cutoff_convention == "y_star":
        return d.y_star
    if cutoff_convention == "kappa_literal":
        return 3.0 * d.kappa_sq
    raise ValueError(f"unknown cutoff convention {cutoff_convention!r}")


def _massless_literal(d: DimensionlessCouplings, lower: float) -> QuadratureResult:
    # over y = lower + L s; the integrand vanishes at or below lower = max(cut, y_star)
    width = _width(d)
    return integrate_semi_infinite(
        lambda s: massless_integrand(lower + width * s, d, lower, 1e-12) * width,
        0.0, rel_tol=_DENSITY_REL_TOL)


def _massless_oracle(d: DimensionlessCouplings, lower: float) -> QuadratureResult:
    # over t in [0, 1), y = lower - L ln(1 - t), dy = L dt/(1 - t): the e^{-y} tail
    # becomes a vanishing (1 - t)^L factor, and y = inf at t = 1 is named, not ln 0
    width = _width(d)

    def f(t: float) -> float:
        if (w := 1.0 - t) == 0.0:
            raise ValueError(f"the exp map of [{lower!r}, inf) put a node at t = 1, where y = inf")
        return massless_integrand(lower - width * math.log(w), d, lower, 5e-13) * width / w

    return integrate_finite(f, 0.0, 1.0, rel_tol=_DENSITY_REL_TOL)


def energy_density_massless(
    p: OscillatorParams, t: ThermalState,
    cutoff_convention: str = "y_star",
) -> ComparisonReport:
    """Massless Bose-Einstein energy density with the positivity cutoff.

    Boltzmann weights use exp(-f_n) throughout (the lone positive-exponent
    display is treated as a sign slip; the positive form diverges).
    Literal and oracle integrate the same mode sum over two coordinates,
    so they check the quadrature, not the mode sum; the other cutoff
    convention's value is echoed in options_used. With lower = max(cut,
    y_star) and L = 4 max(1, 2 a_B^(1/3)) the width of the mode-sum weight,
    the literal runs over y = lower + L s under the engine's rational map,
    the oracle over t in [0, 1) with y = lower - L ln(1 - t); both reach
    its e^{-y} tail at any temperature.

    Each integral is a memo.shared_value. At kappa^2 <= 1/3 both cuts
    resolve to y_star, the other cut's integral is the literal's, and the
    two conventions' reports have the same literal and oracle.
    """
    d = dimensionless_couplings(p, t)
    y_cut = _resolve_cut(d, cutoff_convention)
    pref = _density_prefactor(t)
    other = "kappa_literal" if cutoff_convention == "y_star" else "y_star"
    lower, other_lower = (max(cut, d.y_star) for cut in (y_cut, _resolve_cut(d, other)))
    literal_q = shared_value(_massless_literal, d, lower)
    name = "int y^2 <E>(y) dy"     # <E>(y): the mean mode energy
    quads = {f"{name}, rational map": literal_q,
             f"{name}, exp map": shared_value(_massless_oracle, d, lower),
             f"{name} above the {other} cut": literal_q if other_lower == lower else
             shared_value(_massless_literal, d, other_lower)}
    literal, oracle, other_val = (pref * q.value for q in quads.values())
    return compare(
        "energy_density_massless",
        literal,
        oracle,
        threshold=1e-6,
        provenance="mode-sum energy density, same mode sum, two maps",
        options_used={
            "T": t.T,
            "cutoff_convention": cutoff_convention,
            "y_cut": y_cut,
            "y_star": d.y_star,
            "value_other_cutoff": other_val,
            # both 0.0: the mode sum underflowed, and the PASS compares nothing
            **({"underflow": True} if literal == oracle == 0.0 else {}),
        },
        quadratures=quads,
    )


def energy_density_massive(
    p: OscillatorParams, mass_gas: float, t: ThermalState,
    cutoff_convention: str = "y_star",
) -> ComparisonReport:
    """Massive-gas energy density: printed radicand vs dispersion-corrected.

    The printed square root uses (kT/Mc^2)^2 y - 1, linear in y; the
    corrected mode squares the whole combination.  A (T/M)^2, or a radicand
    (q y)^2 where the weight is not 0, out of double range raises an
    OverflowError naming T and M.  Where both are 0 the
    mode-sum weight underflowed (the window [lower, inf) is never empty):
    the row is FLAGGED and marked "underflow": true, the massless rows' mark.
    Both integrals run over v, y = lower + L v^2, lower the largest of the
    radicand's zero, the cut and y_star, and L = 4 max(1, 2 a_B^(1/3)):
    where lower is the radicand's zero, the square root vanishes like
    sqrt(y - lower), which is linear in v, so the integrand is smooth there.
    """
    if mass_gas <= 0.0:
        raise ValueError(f"gas mass must be positive, got {mass_gas}")
    d = dimensionless_couplings(p, t)
    y_cut = _resolve_cut(d, cutoff_convention)
    q = t.T / mass_gas
    try:
        if (printed_zero := 1.0 / q**2) == 0.0:     # the printed radicand's zero
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"(T/M)^2 leaves double range at T={t.T!r}, M={mass_gas!r}") from None
    pref = mass_gas * t.T / (2.0 * math.pi**2)
    width = _width(d)

    def run(mode: str) -> QuadratureResult:
        lower = max(printed_zero if mode == "printed" else 1.0 / q, y_cut, d.y_star)

        def f(v: float) -> float:
            y = lower + width * v * v
            # 0 where the mode-sum weight is 0, before the radicand overflows there
            if (weight := massless_integrand(y, d, y_cut)) == 0.0:
                return 0.0
            try:
                rad = q * q * y - 1.0 if mode == "printed" else (q * y) ** 2 - 1.0
                if rad == math.inf:
                    raise OverflowError
            except OverflowError:
                raise OverflowError(f"(q y)^2 leaves double range at T={t.T!r}, M={mass_gas!r}, "
                                    f"y={y!r}") from None
            # mean * y * sqrt(radicand) * dy/dv
            return weight / y * math.sqrt(rad) * (2.0 * width * v) if rad > 0.0 else 0.0

        return integrate_semi_infinite(f, 0.0, rel_tol=_DENSITY_REL_TOL)

    quads = {"printed-radicand density integral over v": run("printed"),
             "dispersion density integral over v": run("dispersion")}
    literal, corrected = (pref * q.value for q in quads.values())
    rep = compare(
        "energy_density_massive",
        literal,
        corrected,
        threshold=0.05,
        provenance="massive-gas density, printed radicand vs dispersion-corrected",
        options_used={"T": t.T, "mass_gas": mass_gas, "q": q,
                      "cutoff_convention": cutoff_convention},
        quadratures=quads,
    )
    if literal == 0.0 and corrected == 0.0:
        rep = replace(rep, status=Status.FLAGGED,
                      options_used={**rep.options_used, "underflow": True})
    return rep


# ---------------------------------------------------------------------------
# the triple series and its Whittaker terms
# ---------------------------------------------------------------------------

def _line_powers(i: int, j: int) -> tuple[float, float, float]:
    # y-exponents of the three numerator lines after the y^2 weight
    return (-2.0 - 4.0 * i - 2.0 * j, -4.0 * i - 2.0 * j, 3.0 - 4.0 * i - 2.0 * j)


class _TailIntegrals(dict):
    """int_{y0}^inf y^power e^{-decay y} dy = Gamma(power+1, decay y0) / decay^(power+1)
    by power, each formed on first use from ln Gamma on decay*y0's incomplete-gamma
    ladder and exponentiated once; the log form keeps huge magnitudes finite."""

    def __init__(self, decay: float, y0: float):
        super().__init__()
        self.log_decay = math.log(decay)
        self.ladder = sf.GammaLadder(decay * y0) if y0 > 0.0 else None

    def __missing__(self, power: float) -> float:
        a = power + 1.0
        if self.ladder is None and a <= 0.0:
            raise ValueError("tail integral diverges at the origin for power <= -1")
        log_val = (self.ladder(a) if self.ladder else math.lgamma(a)) - a * self.log_decay
        if log_val > 705.0:
            raise sf.SpecialFunctionOverflow(f"series term magnitude exp({log_val:.1f}) overflows")
        val = self[power] = math.exp(log_val)
        return val


def whittaker_series_term(i: int, j: int, n: int, d: DimensionlessCouplings,
                          y0: float) -> tuple[float, float]:
    """Corrected series term pair (f_term, g_term) at indices (i, j, n).

    f_term collects the three tail integrals with decay n, g_term the same
    with decay n+1; their coefficient polynomials stay in n.  Each tail is an
    incomplete gamma from its argument's GammaLadder, not Whittaker W.  The
    printed blocks, W functions with three typos (an exponential shifted to
    n+1, one power factor left at n, and a swapped index in the last exponent),
    are not evaluated; this is the oracle-pinned corrected form.
    """
    if n < 1:
        raise ValueError(f"series terms start at n = 1, got {n}")
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    p1, p2, p3 = _line_powers(i, j)
    c1 = d.a_A * (n * n + 6.0 * n)
    c2 = d.a_B * (2.0 * n * n + 2.0 * n)
    c3 = float(n)
    f = shared_value(_TailIntegrals, float(n), y0)
    g = shared_value(_TailIntegrals, float(n + 1), y0)
    # a zero coefficient's tail is never formed: at y0 = 0 it may diverge
    return ((c1 * f[p1] if c1 else 0.0) + (c2 * f[p2] if c2 else 0.0) + c3 * f[p3],
            (c1 * g[p1] if c1 else 0.0) + (c2 * g[p2] if c2 else 0.0) + c3 * g[p3])


def series_energy_density(
    p: OscillatorParams, t: ThermalState,
    cutoff_convention: str = "y_star",
) -> ComparisonReport:
    """Triple-series energy density vs denominator-replaced quadrature.

    Valid in the small-coupling regime where the occupation denominator
    can be replaced by 1/(1 - e^-y); enforced via a_B <= SERIES_MAX_A_B.
    The series telescopes the replacement exactly: each n contributes tail
    integrals with decay n minus the same with decay n+1.  It is summed over
    the box (n, i, j) <= (_N_MAX, _I_MAX, _J_MAX), which options_used echoes.
    """
    d = dimensionless_couplings(p, t)
    if d.a_B > SERIES_MAX_A_B:
        raise ValueError(
            f"a_B={d.a_B:.3g} outside the denominator-replacement regime "
            f"(<= {SERIES_MAX_A_B})"
        )
    y0 = _resolve_cut(d, cutoff_convention)
    pref = _density_prefactor(t)
    box = {"n_max": _N_MAX, "i_max": _I_MAX, "j_max": _J_MAX}

    try:
        value, tail, box_ok = _triple_sum(d, y0)
    except sf.SpecialFunctionOverflow as exc:
        # a term magnitude left double range; report it, do not crash
        return ComparisonReport(
            "series_energy_density", math.nan, math.nan, math.nan, math.nan,
            Status.ERROR,
            "triple tail-integral series vs denominator-replaced quadrature",
            0.01,
            {"T": t.T, "overflow": str(exc), "y0": y0, **box},
        )
    literal = pref * value

    def replaced(y: float) -> float:
        if not _in_window(y, d, y0):
            return 0.0
        num = _mode_sums(y, d, 1e-12)[0]
        return num * -math.expm1(-y) * y * y

    quad = integrate_semi_infinite(replaced, y0, rel_tol=_DENSITY_REL_TOL)
    rep = compare(
        "series_energy_density",
        literal,
        pref * quad.value,
        threshold=0.01,
        provenance="triple tail-integral series vs denominator-replaced quadrature",
        options_used={
            "T": t.T,
            **box,
            "tail_estimate": pref * tail,
            "y0": y0,
            "cutoff_convention": cutoff_convention,
            "box_converged": box_ok,
        },
        quadratures={"int y^2 <f e^-f> (1 - e^-y) dy": quad},
    )
    if not box_ok and rep.status is not Status.ERROR:
        rep = replace(rep, status=Status.FLAGGED,
                      options_used={**rep.options_used, "note": "truncation box too small"})
    return rep


def _geometric_tail(last: float, prev: float) -> tuple[float, bool]:
    # bound the dropped remainder of a layer sequence from its last ratio
    if last == 0.0:
        return 0.0, True
    if prev == 0.0 or abs(last) >= abs(prev):
        return abs(last), False
    r = abs(last) / abs(prev)
    return abs(last) * r / (1.0 - r), True


def _triple_sum(d: DimensionlessCouplings, y0: float) -> tuple[float, float, bool]:
    """(value, tail_estimate, box_converged) of the triple sum over the box
    (n, i, j) <= (_N_MAX, _I_MAX, _J_MAX).

    A tail integral depends only on (power, decay): the power only on
    2i + j, and decay n + 1 serves the g-term at n and the f-term at n + 1,
    so each decay's tails, and their argument's ladder, live once per call
    in a memo scope of its own.
    """
    with memo_scope():
        total = 0.0
        shell_prev = None
        tail_n = 0.0
        tail_ij = 0.0
        box_ok = True
        expand_i = d.a_A != 0.0
        expand_j = d.a_B != 0.0
        for n in range(1, _N_MAX + 1):
            shell = 0.0
            log_afac = math.log(abs(d.a_A) * (n * n + 6.0 * n)) if expand_i else -math.inf
            log_bfac = math.log(d.a_B * (2.0 * n * n + 2.0 * n)) if expand_j else -math.inf
            i_layers = [0.0] * (_I_MAX + 1)
            j_layers = [0.0] * (_J_MAX + 1)
            for i in range(_I_MAX + 1 if expand_i else 1):
                for j in range(_J_MAX + 1 if expand_j else 1):
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
            for expand, layers in ((expand_i, i_layers), (expand_j, j_layers)):
                if expand:
                    t, ok = _geometric_tail(layers[-1], layers[-2])
                    tail_ij += t
                    box_ok = box_ok and (ok or layers[-1] <= floor)
            if shell_prev is not None:
                t, ok = _geometric_tail(shell, shell_prev)
                if ok and t:
                    # the shells fall off like n^-p (p = 4 at zero coupling), more
                    # slowly than any fixed ratio: bound the rest by the integral test,
                    # |s_n| n/(p - 1) with p from the last two shells (>= geometric)
                    p = math.log(abs(shell_prev / shell)) / math.log(n / (n - 1.0))
                    t = abs(shell) * n / (p - 1.0) if p > 1.0 else math.inf
                if ok or abs(shell) <= floor:
                    tail_n = t if ok else abs(shell)
                elif n > 4:
                    box_ok = False
            shell_prev = shell
        return total, tail_n + tail_ij, box_ok
