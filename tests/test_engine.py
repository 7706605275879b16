"""The quadrature engine and the classical oracle helpers against a
verbatim reference: the loop-based G7/K15 panel, with the semi-infinite
map applied through a per-node closure, as it stood before the panel
became straight-line code with the map inside it, and the classical
oracle helpers as they stood before they shared one kinetic and one
position integrand.  Every result must be equal in all four
QuadratureResult fields, bit for bit; NaN integrands must fail at the
same abscissa.  The engine keeps the rational map only: the reference's
exp map is matched by integrate_finite over the exp coordinate, the way
a caller that needs that map integrates.

The classical helpers now read components of shared passes over tuple
integrands, which refine for every component at once: they match the
reference within 1e-13 relative, not bit for bit, and a pass takes fewer
evaluations than the two scalar quadratures it replaces.  Each pass runs
over its weight's finite support: past the cut its integrand is exactly 0,
and it matches the pass over the rational map that it replaced within the
two passes' estimates."""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import pytest

from anhgas import classical_gas as cg
from anhgas import oracles as oc
from anhgas.oracles import IntegrandError, McEstimate, QuadratureResult, QuadratureResults
from anhgas.params import OscillatorParams, ThermalState

# the unit record the reference copies were written against, at the
# natural units the package now fixes
NATURAL_UNITS = SimpleNamespace(hbar=1.0, c=1.0, k_B=1.0)


# ---------------------------------------------------------------------------
# reference engine, kept verbatim
# ---------------------------------------------------------------------------

# QUADPACK abscissae and weights for the (G7, K15) pair on [-1, 1]
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel; returns (K15 value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    if math.isnan(fc):
        raise IntegrandError(f"integrand returned NaN at {mid!r}")
    gauss = _WG[3] * fc
    kron = _WGK[7] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        if math.isnan(f1) or math.isnan(f2):
            where = mid - dx if math.isnan(f1) else mid + dx
            raise IntegrandError(f"integrand returned NaN at {where!r}")
        s = f1 + f2
        kron += _WGK[i] * s
        if i % 2 == 1:
            gauss += _WG[i // 2] * s
    return kron * half, abs(kron - gauss) * half


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-300,
    max_evals: int = 200_000,
) -> QuadratureResult:
    """Adaptive bisection with Gauss-Kronrod panels on [a, b]."""
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    val, err = _gk15(f, a, b)
    heap: list[tuple[float, float, float, float, float]] = [(-err, a, b, val, err)]
    total, total_err = val, err
    evals = 15
    while total_err > max(abs_tol, rel_tol * abs(total)) and evals + 30 <= max_evals:
        neg, lo, hi, v, e = heapq.heappop(heap)
        midpoint = 0.5 * (lo + hi)
        if midpoint == lo or midpoint == hi:
            # interval at float resolution; keep its estimate
            heapq.heappush(heap, (0.0, lo, hi, v, e))
            break
        v1, e1 = _gk15(f, lo, midpoint)
        v2, e2 = _gk15(f, midpoint, hi)
        evals += 30
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, midpoint, v1, e1))
        heapq.heappush(heap, (-e2, midpoint, hi, v2, e2))
    # re-sum in a fixed order for reproducibility and to refresh the error
    panels = sorted((lo, hi, v, e) for _, lo, hi, v, e in heap)
    total = math.fsum(p[2] for p in panels)
    total_err = math.fsum(p[3] for p in panels)
    converged = total_err <= max(abs_tol, rel_tol * abs(total))
    return QuadratureResult(total, total_err, evals, converged)


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-300,
    transform: str = "rational",
    max_evals: int = 200_000,
) -> QuadratureResult:
    """Integral of f over [a, inf).

    The interval is first mapped onto (0, 1); ``rational`` uses
    y = a + t/(1-t), ``exp`` uses y = a - ln(1-t).  The two transforms
    must agree within tolerances (transform-invariance property).
    """
    if transform == "rational":

        def g(t: float) -> float:
            w = 1.0 - t
            return f(a + t / w) / (w * w)

    elif transform == "exp":

        def g(t: float) -> float:
            w = 1.0 - t
            return f(a - math.log(w)) / w

    else:
        raise ValueError(f"unknown transform {transform!r}")
    return integrate_finite(g, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol,
                            max_evals=max_evals)


# ---------------------------------------------------------------------------
# reference classical helpers, kept verbatim
# ---------------------------------------------------------------------------

def _radial_gaussian_integral(c: float) -> QuadratureResult:
    # int_0^inf r^2 exp(-c r^2) dr, quadrature-evaluated on a conditioned scale
    scale = 1.0 / math.sqrt(c)

    def f(v: float) -> float:
        e = -v * v
        return v * v * math.exp(e) if e > -745.0 else 0.0

    res = integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
    return QuadratureResult(
        res.value * scale**3, res.abs_error_estimate * scale**3,
        res.evaluations, res.converged,
    )


def _sinh2_weight(s: float, z: float) -> float:
    if s <= 0.0 or s > 350.0:
        return 0.0
    e = 2.0 * cg._log_sinh(s) - z * math.cosh(s)
    return math.exp(e) if e > -745.0 else 0.0


def _sinh_cosh_weight(s: float, z: float) -> float:
    if s <= 0.0 or s > 350.0:
        return 0.0
    e = 2.0 * cg._log_sinh(s) + cg._log_cosh(s) - z * math.cosh(s)
    return math.exp(e) if e > -745.0 else 0.0


def _reference_relativistic_radial_scaled(z: float) -> QuadratureResult:
    def f(t: float) -> float:
        if t <= 0.0 or t > 350.0:
            return 0.0
        e = 2.0 * cg._log_sinh(t) + cg._log_cosh(t) - z * (math.cosh(t) - 1.0)
        return math.exp(e) if e > -745.0 else 0.0

    return integrate_semi_infinite(f, 0.0, rel_tol=1e-11)


def _reference_position_radial_integral(p: OscillatorParams, t: ThermalState, u: SimpleNamespace,
                                        rel_tol: float = 1e-12) -> QuadratureResult:
    """int_0^inf r^2 exp(-beta m w^2 r^2 / 2 - beta lam r^4) dr by quadrature."""
    beta = t.beta
    a2 = 0.5 * beta * p.m * p.omega**2
    a4 = beta * p.lam
    # characteristic width of the integrand, for transform conditioning
    scale = min(1.0 / math.sqrt(a2), a4 ** -0.25) if a4 > 0.0 else 1.0 / math.sqrt(a2)
    neg_a2 = -a2
    exp = math.exp

    def f(v: float) -> float:
        r = v * scale
        e = neg_a2 * r * r - a4 * r**4
        return r * r * exp(e) if e > -745.0 else 0.0

    res = integrate_semi_infinite(f, 0.0, rel_tol=rel_tol)
    return QuadratureResult(res.value * scale, res.abs_error_estimate * scale,
                            res.evaluations, res.converged)


def _reference_average_energy_quadrature(p: OscillatorParams, t: ThermalState,
                                         u: SimpleNamespace) -> float:
    """<H> as weighted quadrature ratios: relativistic kinetic + vibrational."""
    beta = t.beta
    z = p.m * u.c**2 / (u.k_B * t.T)    # relativistic_z, with kT = k_B T

    # kinetic: <m c^2 cosh t> under sinh^2 cosh e^{-z cosh}
    def w_kin(t_: float, moment: int) -> float:
        if t_ <= 0.0 or t_ > 350.0:
            return 0.0
        e = 2.0 * cg._log_sinh(t_) + cg._log_cosh(t_) * (1 + moment) - z * (math.cosh(t_) - 1.0)
        return math.exp(e) if e > -745.0 else 0.0

    num_k = integrate_semi_infinite(lambda s: w_kin(s, 1), 0.0, rel_tol=1e-11).value
    den_k = integrate_semi_infinite(lambda s: w_kin(s, 0), 0.0, rel_tol=1e-11).value
    e_kin = p.m * u.c**2 * num_k / den_k

    a2 = 0.5 * beta * p.m * p.omega**2
    a4 = beta * p.lam
    scale = min(1.0 / math.sqrt(a2), a4 ** -0.25) if a4 > 0.0 else 1.0 / math.sqrt(a2)

    def w_pos(v: float, with_h: bool) -> float:
        r = v * scale
        e = -a2 * r * r - a4 * r**4
        if e <= -745.0:
            return 0.0
        base = r * r * math.exp(e)
        if not with_h:
            return base
        return base * (0.5 * p.m * p.omega**2 * r * r + p.lam * r**4)

    num_p = integrate_semi_infinite(lambda v: w_pos(v, True), 0.0, rel_tol=1e-11).value
    den_p = integrate_semi_infinite(lambda v: w_pos(v, False), 0.0, rel_tol=1e-11).value
    return e_kin + num_p / den_p


def _reference_metropolis_position(p: OscillatorParams, t: ThermalState):
    """The position chain of average_energy_metropolis: its log-weight,
    proposal scale and start point."""
    beta = t.beta
    a2 = 0.5 * beta * p.m * p.omega**2
    a4 = beta * p.lam
    r0 = min(1.0 / math.sqrt(a2), a4 ** -0.25) if a4 > 0.0 else 1.0 / math.sqrt(a2)

    def logw_pos(r: float) -> float:
        if r <= 0.0:
            return -math.inf
        return 2.0 * math.log(r) - a2 * r * r - a4 * r**4

    return logw_pos, 0.8 * r0, r0


# (m, omega, lam, T): lam = 0, and lam > 0 with the position width set by
# a2 (a2^2 > a4) and by a4
OSCILLATOR_GRID = [
    (1.0, 1.0, 0.0, 1.0), (0.5, 2.0, 0.0, 0.2), (3.0, 0.7, 0.0, 6.0),
    (1.0, 1.0, 0.5, 1.0), (1.0, 1.0, 0.5, 0.05), (0.5, 2.0, 0.01, 4.0),
    (3.0, 0.7, 4.0, 0.3), (2.0, 0.3, 1e-4, 2.5),
]


def _reference_kinetic_moment_scaled(z: float) -> QuadratureResult:
    # the reference average energy's numerator, w_kin(s, 1), alone
    def f(t: float) -> float:
        if t <= 0.0 or t > 350.0:
            return 0.0
        e = 2.0 * cg._log_sinh(t) + cg._log_cosh(t) * 2 - z * (math.cosh(t) - 1.0)
        return math.exp(e) if e > -745.0 else 0.0

    return integrate_semi_infinite(f, 0.0, rel_tol=1e-11)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def bits(res: QuadratureResult) -> tuple:
    """All four fields, floats by their exact hex form (NaN-safe)."""
    assert type(res) is QuadratureResult
    return (float.hex(res.value), float.hex(res.abs_error_estimate),
            res.evaluations, res.converged)


def outcome(call) -> tuple:
    """bits() of the result, or the type and message of what was raised."""
    try:
        return bits(call())
    except Exception as exc:       # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


def needle(y):
    return 1.0 / (1e-8 + (y - 0.37) ** 2)


def step(y):
    return 1.0 if y < 1.0 / 3.0 else 0.0


def planck(y):
    return y**3 / math.expm1(y) if 0.0 < y < 700.0 else 0.0


def plateau(y0):
    return lambda y: 1.0 if y < y0 else 0.0


FINITE_CASES = {
    "sin": (math.sin, 0.0, math.pi, {}),
    "reversed": (lambda y: math.exp(-y), 2.0, -1.0, {"rel_tol": 1e-13}),
    "needle": (needle, 0.0, 1.0, {}),
    "needle-budget": (needle, 0.0, 1.0, {"rel_tol": 1e-13, "max_evals": 90}),
    "step-budget": (step, 0.0, 1.0, {"rel_tol": 1e-300}),
    "step-resolution": (plateau(1.0 + 2**-47), 1.0, 1.0 + 2**-45, {"rel_tol": 1e-300}),
}

SEMI_INFINITE_CASES = {
    "gamma": (lambda y: y**3 * math.exp(-y) if y < 700 else 0.0, 0.0, {}),
    "planck": (planck, 0.0, {"rel_tol": 1e-12}),
    "gaussian-offset": (lambda y: math.exp(-y * y), 1.0, {"rel_tol": 1e-13}),
    # under the exp map a node reaches t = 1 (see REACH_T_1_UNDER_EXP)
    "power-tail": (lambda y: 1.0 / (1.0 + y) ** 2, 0.0, {}),
    "budget": (planck, 0.0, {"rel_tol": 1e-15, "max_evals": 45}),
    "plateau-10": (plateau(10.0), 0.0, {"rel_tol": 1e-300}),
    "plateau-1000": (plateau(1000.0), 0.0, {"rel_tol": 1e-300}),
}

# cases where a node of the exp map reaches t = 1: the reference and the
# exp coordinate below raise the same bare "math domain error" from ln(0)
REACH_T_1_UNDER_EXP = {"power-tail", "plateau-1000"}


def exp_coordinate(f, a):
    """f over [a, inf) as an integrand over t in [0, 1): y = a - ln(1 - t),
    dy = dt/(1 - t), the reference's exp map operation for operation."""
    return lambda t: f(a - math.log(1.0 - t)) / (1.0 - t)


def on_engine(integrate, *args, max_evals=None, **kw):
    """integrate(*args, **kw) on the engine, whose budget is fixed: a case's
    max_evals, the reference's keyword, is oracles._MAX_EVALS for the call."""
    with mock.patch.object(oc, "_MAX_EVALS", max_evals or oc._MAX_EVALS):
        return integrate(*args, **kw)


def semi_infinite(f, a, transform, **kw):
    """The engine's integral of f over [a, inf) under either map: the
    rational map is integrate_semi_infinite's, the exp map a coordinate
    integrated by integrate_finite."""
    if transform == "rational":
        return on_engine(oc.integrate_semi_infinite, f, a, **kw)
    return on_engine(oc.integrate_finite, exp_coordinate(f, a), 0.0, 1.0, **kw)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("name", sorted(FINITE_CASES))
    def test_finite(self, name):
        f, a, b, kw = FINITE_CASES[name]
        assert (outcome(lambda: on_engine(oc.integrate_finite, f, a, b, **kw))
                == outcome(lambda: integrate_finite(f, a, b, **kw)))

    @pytest.mark.parametrize("transform", ["rational", "exp"])
    @pytest.mark.parametrize("name", sorted(SEMI_INFINITE_CASES))
    def test_semi_infinite(self, name, transform):
        f, a, kw = SEMI_INFINITE_CASES[name]
        got = outcome(lambda: semi_infinite(f, a, transform, **kw))
        want = outcome(lambda: integrate_semi_infinite(f, a, transform=transform, **kw))
        if transform == "exp" and name in REACH_T_1_UNDER_EXP:
            assert want == ("raised", "ValueError", "math domain error")
        assert got == want

    def test_cases_reach_every_stop(self):
        # the cases above cover each way the loop ends: converged; out of
        # budget; at float resolution (unconverged with budget left)
        def stop(res, max_evals=200_000):
            if res.converged:
                return "converged"
            return "budget" if res.evaluations + 30 > max_evals else "resolution"

        def finite(name):
            f, a, b, kw = FINITE_CASES[name]
            return stop(on_engine(oc.integrate_finite, f, a, b, **kw),
                        kw.get("max_evals", 200_000))

        def semi(name, transform):
            f, a, kw = SEMI_INFINITE_CASES[name]
            res = semi_infinite(f, a, transform, **kw)
            assert bits(res) == bits(integrate_semi_infinite(f, a, transform=transform, **kw))
            return stop(res, kw.get("max_evals", 200_000))

        assert oc._MAX_EVALS == 200_000
        assert [finite(n) for n in ("sin", "needle-budget", "step-budget", "step-resolution")] \
            == ["converged", "budget", "budget", "resolution"]
        for transform in ("rational", "exp"):
            assert semi("gamma", transform) == "converged"
            assert semi("budget", transform) == "budget"
        assert semi("plateau-1000", "rational") == "resolution"
        assert semi("plateau-10", "exp") == "resolution"

    def test_kronrod_panel_alone(self):
        for f, lo, hi in ((math.exp, -1.0, 2.0), (needle, 0.3, 0.4), (step, 0.0, 1.0)):
            assert oc._gk15(f, lo, hi) == _gk15(f, lo, hi)


class TestEngineFailures:
    @pytest.mark.parametrize("bad", [
        lambda y: math.nan if y > 0.3 else math.exp(-y),      # centre node
        lambda y: math.nan if y < 0.05 else y,                # first left node
        lambda y: math.nan if y > 0.95 else y,                # first right node
        lambda y: math.nan if 0.8 < y < 0.9 else y,           # an inner pair
        lambda y: math.nan if 0.36 < y < 0.3701 else needle(y),  # a later panel
    ])
    def test_nan_names_the_same_abscissa(self, bad):
        with pytest.raises(IntegrandError) as want:
            integrate_finite(bad, 0.0, 1.0)
        with pytest.raises(IntegrandError) as got:
            oc.integrate_finite(bad, 0.0, 1.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("transform", ["rational", "exp"])
    def test_nan_under_a_map_names_the_panel_abscissa(self, transform):
        def bad(y):
            return math.nan if y > 3.0 else math.exp(-y)

        with pytest.raises(IntegrandError) as want:
            integrate_semi_infinite(bad, 0.0, transform=transform)
        with pytest.raises(IntegrandError) as got:
            semi_infinite(bad, 0.0, transform)
        assert str(got.value) == str(want.value)

    def test_inf_pair_returns_nan_without_raising(self):
        def pair(x):
            return math.copysign(math.inf, x) if abs(x) > 0.5 else 0.0

        res = oc.integrate_finite(pair, -1.0, 1.0)
        assert math.isnan(res.value) and not res.converged
        assert bits(res) == bits(integrate_finite(pair, -1.0, 1.0))

    def test_a_node_at_t_1_names_the_map_and_the_panel(self):
        # on [1 - 2^-50, 1] the outermost right node rounds to t = 1
        lo = 1.0 - 2.0**-50
        seen = []

        def f(y):
            seen.append(y)
            return math.exp(-y)

        with pytest.raises(ValueError) as got:
            oc._gk15(f, lo, 1.0, 2.0)
        assert type(got.value) is ValueError
        assert str(got.value) == ("the rational map of [2.0, inf) put a node at t = 1, "
                                  f"where y = inf, in the panel [{lo!r}, 1.0]")
        assert seen and all(math.isfinite(y) for y in seen)

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_integrand_errors_pass_through(self, error):
        def f(y):
            raise error("from the integrand")

        for lo in (0.25, 1.0 - 2.0**-50):     # with and without a node at t = 1
            with pytest.raises(error, match="^from the integrand$"):
                oc._gk15(f, lo, 1.0, 0.0)

    def test_argument_errors_are_kept(self):
        # rel_tol is the one tolerance; the absolute floor is the engine's constant
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            oc.integrate_finite(math.sin, 0.0, 1.0, rel_tol=0.0)
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            oc.integrate_semi_infinite(math.exp, 0.0, rel_tol=-1.0)
        with pytest.raises(TypeError, match="abs_tol"):
            oc.integrate_semi_infinite(math.exp, 0.0, abs_tol=1e-300)

    def test_the_engine_has_one_semi_infinite_map(self):
        with pytest.raises(TypeError, match="transform"):
            oc.integrate_semi_infinite(math.exp, 0.0, transform="exp")


def paired(f, g):
    return lambda y: (f(y), g(y))


def rational_coordinate(f, a):
    """f over [a, inf) as an integrand over t in [0, 1): y = a + t/(1 - t),
    dy = dt/(1 - t)^2, the engine's map; each component divided alike."""
    def g(t):
        w = 1.0 - t
        values = f(a + t / w)
        return tuple(v / (w * w) for v in values) if type(values) is tuple else values / (w * w)
    return g


class TestTupleIntegrands:
    """One pass over a tuple-valued integrand: the nodes are shared, the
    sums, estimates and convergence are per component."""

    @pytest.mark.parametrize("f, g, lo, hi", [
        (math.exp, math.sin, 0.1, 0.9), (needle, math.cos, 0.3, 0.4), (step, needle, 0.0, 1.0),
    ])
    def test_panel_components_are_the_scalar_panels(self, f, g, lo, hi):
        # bit for bit; the rational map takes floats only (see below)
        vals, errs = oc._gk15(paired(f, g), lo, hi)
        for i, h in enumerate((f, g)):
            assert (vals[i], errs[i]) == oc._gk15(h, lo, hi)

    @pytest.mark.parametrize("name", ["sin", "reversed", "needle"])
    def test_each_component_matches_its_scalar_pass(self, name):
        f, a, b, kw = FINITE_CASES[name]
        pair = oc.integrate_finite(paired(f, lambda y: f(y) * y * y), a, b, **kw)
        for got, h in zip(pair, (f, lambda y: f(y) * y * y)):
            want = oc.integrate_finite(h, a, b, **kw)
            assert got.value == pytest.approx(want.value, rel=1e-13, abs=1e-15)
            assert got.converged and want.converged

    @pytest.mark.parametrize("name", ["gamma", "planck", "gaussian-offset", "power-tail"])
    def test_each_component_matches_its_scalar_pass_semi_infinite(self, name):
        f, a, kw = SEMI_INFINITE_CASES[name]

        def g(y):
            return f(y) / (1.0 + y)

        # the pair over the map's own coordinate, t in [0, 1), Jacobian written out
        pair = oc.integrate_finite(rational_coordinate(paired(f, g), a), 0.0, 1.0, **kw)
        for got, h in zip(pair, (f, g)):
            want = oc.integrate_semi_infinite(h, a, **kw)
            assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
            assert got.converged and want.converged

    def test_components_of_different_refinement_both_converge(self):
        # the smooth component converges on one panel, the needle needs many
        smooth = oc.integrate_finite(math.exp, 0.0, 1.0)
        pair = oc.integrate_finite(paired(math.exp, needle), 0.0, 1.0)
        assert smooth.evaluations == 15 and pair.evaluations > 15 * 10
        assert pair.converged and all(r.converged for r in pair)
        wants = (math.e - 1.0, oc.integrate_finite(needle, 0.0, 1.0).value)
        for got, want in zip(pair, wants):
            assert abs(got.value - want) <= 1e-10 * abs(want)
            assert got.abs_error_estimate <= 1e-10 * abs(got.value)

    def test_the_result_is_a_tuple_with_int_count_and_bool_convergence(self):
        # 45 evaluations: the constant converges at once, the needle does not
        res = on_engine(oc.integrate_finite, paired(lambda y: 1.0, needle), 0.0, 1.0,
                        max_evals=45)
        assert type(res) is QuadratureResults and isinstance(res, tuple) and len(res) == 2
        assert all(type(r) is QuadratureResult for r in res)
        assert type(res.evaluations) is int and res.evaluations == 45
        assert all(r.evaluations == 45 for r in res)
        assert type(res.converged) is bool and res.converged is False
        assert res[0].converged and not res[1].converged
        assert type(oc.integrate_finite(math.sin, 0.0, 1.0)) is QuadratureResult

    @pytest.mark.parametrize("semi_infinite", [False, True])
    def test_nan_in_the_second_component_names_its_abscissa(self, semi_infinite):
        def bad(y):
            return math.nan if 0.36 < y < 0.3701 else needle(y)

        # [0, inf) through the rational map's coordinate, as a tuple integrand
        # reaches it; the abscissa named is t
        integrate = ((lambda f: oc.integrate_finite(rational_coordinate(f, 0.0), 0.0, 1.0))
                     if semi_infinite else (lambda f: oc.integrate_finite(f, 0.0, 1.0)))
        with pytest.raises(IntegrandError) as want:
            integrate(bad)
        with pytest.raises(IntegrandError) as got:
            integrate(paired(needle, bad))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("lo", [0.0, 1.0 - 2.0**-50])    # without and with a node at t = 1
    def test_a_tuple_integrand_on_the_map_is_a_type_error(self, lo):
        # each node divides its value by its own Jacobian, which a tuple refuses
        # at the first node, before any node reaches t = 1
        seen = []

        def pair(y):
            seen.append(y)
            return math.exp(-y), y * math.exp(-y)

        with pytest.raises(TypeError, match="tuple"):
            oc._gk15(pair, lo, 1.0, 2.0)
        with pytest.raises(TypeError, match="tuple"):
            oc.integrate_semi_infinite(pair, 2.0)
        assert len(seen) == 2


class TestClassicalHelpersMatchReference:
    WEIGHT_GRID = ([0.0, 1e-12, 5e-9, math.nextafter(1e-8, 0.0), 1e-8, 1.5e-8]
                   + [10.0 ** (k / 8.0) for k in range(-60, 21)]
                   + [0.37 * k for k in range(1, 946)]      # up to 349.7
                   + [349.9, 350.0])

    def test_log_sinh2_cosh_is_bit_identical(self):
        for t in self.WEIGHT_GRID:
            want = 2.0 * cg._log_sinh(t) + cg._log_cosh(t)
            assert float.hex(cg._log_sinh2_cosh(t)) == float.hex(want), t

    def test_log_sinh2_cosh_squared_is_bit_identical(self):
        # the kinetic energy moment's weight, as it was written before fusing
        for t in self.WEIGHT_GRID:
            want = 2.0 * cg._log_sinh(t) + cg._log_cosh(t) * 2
            assert float.hex(cg._log_sinh2_cosh(t, 2.0)) == float.hex(want), t

    @pytest.mark.parametrize("c", [1e-6, 0.02, 0.5, 1.0, 3.7, 1e4])
    def test_radial_gaussian_integral(self, c):
        assert bits(cg._radial_gaussian_integral(c)) == bits(_radial_gaussian_integral(c))

    @pytest.mark.parametrize("z", [0.03, 0.5, 1.0, 2.0, 5.0, 40.0])
    def test_kinetic_integrals(self, z):
        # e^{-z} times component 0 of the scaled (k, k + 1) pass matches the
        # unscaled scalar quadrature within 1e-13; the (1, 2) pass matches the
        # reference's two scaled quadratures in fewer evaluations than both
        for k, weight in ((0.0, _sinh2_weight), (1.0, _sinh_cosh_weight)):
            want = integrate_semi_infinite(lambda s: weight(s, z), 0.0, rel_tol=1e-11)
            got = cg.kinetic_radial_integral(z, k)
            assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
            assert got.converged and want.converged
        norm, moment = cg._kinetic_scaled(z, 1.0)
        wants = (_reference_relativistic_radial_scaled(z), _reference_kinetic_moment_scaled(z))
        for got, want in zip((norm, moment), wants):
            assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
            assert got.converged and want.converged
        assert norm.evaluations < sum(want.evaluations for want in wants)

    @pytest.mark.parametrize("m, omega, lam, T", OSCILLATOR_GRID)
    def test_position_radial_integral(self, m, omega, lam, T):
        p = OscillatorParams(m=m, omega=omega, lam=lam)
        t = ThermalState.from_temperature(T)
        # the one pass, at the average energy's rel_tol = 1e-11
        got = cg.position_radial_integral(p, t)
        want = _reference_position_radial_integral(p, t, NATURAL_UNITS, 1e-11)
        assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
        assert got.converged and want.converged

    @pytest.mark.parametrize("m, omega, lam, T", OSCILLATOR_GRID)
    def test_average_energy_quadrature(self, m, omega, lam, T):
        p = OscillatorParams(m=m, omega=omega, lam=lam)
        t = ThermalState.from_temperature(T)
        got = cg._average_energy_moments(p, t)[0]
        assert got == pytest.approx(
            _reference_average_energy_quadrature(p, t, NATURAL_UNITS), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m, omega, lam, T", OSCILLATOR_GRID)
    def test_metropolis_position_chain(self, m, omega, lam, T, monkeypatch):
        # the sampler is replaced by a recorder: what matters is what the
        # position chain is handed
        calls = []

        def record(log_weight, observable, proposal_scale, n_samples, burn_in, seed, x0):
            calls.append((log_weight, proposal_scale, x0))
            return McEstimate(0.0, 0.0, n_samples, seed, 0.5)

        monkeypatch.setattr(oc, "metropolis_expectation", record)
        p = OscillatorParams(m=m, omega=omega, lam=lam)
        t = ThermalState.from_temperature(T)
        cg.average_energy_metropolis(p, t)
        logw, scale, x0 = calls[1]
        want_logw, want_scale, want_x0 = _reference_metropolis_position(p, t)
        assert float.hex(scale) == float.hex(want_scale)
        assert float.hex(x0) == float.hex(want_x0)
        for r in [-1.0, 0.0, 1e-3 * x0, 0.5 * x0, x0, 2.0 * x0, 7.0 * x0]:
            assert float.hex(logw(r)) == float.hex(want_logw(r))


# ---------------------------------------------------------------------------
# the classical passes over their weights' finite support
# ---------------------------------------------------------------------------

KINETIC_Z = [1e-3, 0.03, 0.125, 1.0, 5.0, 33.3, 1e3, 1e6, 1e8, 1e10]
QUARTIC_X = [0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e160]
# (m, omega, lam, beta): a2 = beta m w^2 / 2 from 5e-4 to 1e200, a4 = beta lam
# from 0 to 1e300, so that either term sets the cut
POSITION_WEIGHTS = [
    (1.0, 1.0, 0.0, 1e-3), (1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.01, 0.25), (3.0, 0.7, 4.0, 3.0),
    (1.0, 1.0, 1e-4, 2e200), (1.0, 1.0, 0.5, 2e200), (1.0, 1.0, 1e300, 1.0), (1.0, 1.0, 0.0, 2e200),
]


def finite_pass(monkeypatch, run):
    """run() with cg.integrate_finite recorded: (integrand, top of [0, top], result)."""
    seen = []

    def record(f, a, b, **kw):
        seen.append((f, a, b))
        return oc.integrate_finite(f, a, b, **kw)

    monkeypatch.setattr(cg, "integrate_finite", record)
    result = run()
    [(f, a, top)] = seen
    assert a == 0.0 and 0.0 < top < math.inf
    return f, top, result


def _mapped_kinetic(z: float, j: int) -> QuadratureResult:
    # e^z int_0^inf sinh^2 t cosh^j t e^(-z cosh t) dt, the semi-infinite pass before the cut
    def f(t: float) -> float:
        if t <= 0.0 or t > 350.0:
            return 0.0
        e = 2.0 * cg._log_sinh(t) + cg._log_cosh(t) * j - z * (math.cosh(t) - 1.0)
        return math.exp(e) if e > -745.0 else 0.0

    return oc.integrate_semi_infinite(f, 0.0, rel_tol=1e-11)


def _mapped_quartic(x: float, j: int) -> QuadratureResult:
    # int_0^inf u^(2 + 2j) exp(-4x u^2 - u^4) du over w = c u, before the cut
    c = math.sqrt(math.sqrt(1.0 + (4.0 * x) ** 2))

    def f(w: float) -> float:
        uu = w / c
        e = -4.0 * x * uu * uu - uu**4
        return uu * uu * math.exp(e) * (uu * uu) ** j if e > -745.0 else 0.0

    res = oc.integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
    return QuadratureResult(res.value / c, res.abs_error_estimate / c, res.evaluations,
                            res.converged)


def _mapped_position_moment(p: OscillatorParams, beta: float) -> QuadratureResult:
    # int_0^inf r^2 V(r) exp(-a2 r^2 - a4 r^4) dv, r = v * scale, before the cut
    a2, a4, scale = cg._position_weight(p, beta)

    def f(v: float) -> float:
        r = v * scale
        e = -a2 * r * r - a4 * r**4
        if e <= -745.0:
            return 0.0
        return r * r * math.exp(e) * (0.5 * p.m * p.omega**2 * r * r + p.lam * r**4)

    return oc.integrate_semi_infinite(f, 0.0, rel_tol=1e-11)


def beyond(top: float, end: float = math.inf) -> list[float]:
    # from just past the cut out to the range the semi-infinite pass reached
    return [y for y in (top * (1.0 + s) for s in (1e-12, 1e-9, 1e-3, 0.1, 1.0, 9.0, 1e3, 1e6))
            if y <= end] + ([end] if end < math.inf else [])


class TestFiniteSupport:
    """Each pass integrates over [0, top], past which its integrand is
    exactly 0.0 already, and matches the semi-infinite pass it replaced
    within the two passes' own estimates."""

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("z", KINETIC_Z)
    def test_kinetic_integrand_is_zero_past_the_cut(self, monkeypatch, z, k):
        f, top, res = finite_pass(monkeypatch, lambda: cg._kinetic_scaled(z, k))
        assert res.converged and top <= 350.0
        for t in beyond(top, 350.0):
            assert f(t) == (0.0, 0.0), t

    @pytest.mark.parametrize("x", QUARTIC_X)
    def test_quartic_integrand_is_zero_past_the_cut(self, monkeypatch, x):
        f, top, res = finite_pass(monkeypatch, lambda: cg._quartic_gaussian(x))
        assert res.converged and res[0].value > 0.0
        for w in beyond(top):
            assert f(w) == (0.0, 0.0), w

    @pytest.mark.parametrize("m, omega, lam, beta", POSITION_WEIGHTS)
    def test_position_integrand_is_zero_past_the_cut(self, monkeypatch, m, omega, lam, beta):
        p = OscillatorParams(m=m, omega=omega, lam=lam)
        f, top, res = finite_pass(monkeypatch, lambda: cg._position_integral(p, beta))
        assert res.converged and res[0].value > 0.0
        for v in beyond(top):
            assert f(v) == (0.0, 0.0), v

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("z", KINETIC_Z[:7])
    def test_kinetic_pass_matches_the_semi_infinite_one(self, z, k):
        for got, j in zip(cg._kinetic_scaled(z, float(k)), (k, k + 1)):
            want = _mapped_kinetic(z, j)
            assert want.converged
            assert abs(got.value - want.value) <= got.abs_error_estimate + want.abs_error_estimate

    @pytest.mark.parametrize("x", QUARTIC_X[:-1])
    def test_quartic_pass_matches_the_semi_infinite_one(self, x):
        for j, got in enumerate(cg._quartic_gaussian(x)):
            want = _mapped_quartic(x, j)
            assert want.converged
            assert abs(got.value - want.value) <= got.abs_error_estimate + want.abs_error_estimate

    @pytest.mark.parametrize("m, omega, lam, T", OSCILLATOR_GRID)
    def test_position_pass_matches_the_semi_infinite_one(self, m, omega, lam, T):
        p = OscillatorParams(m=m, omega=omega, lam=lam)
        t = ThermalState.from_temperature(T)
        norm, moment = cg._position_integral(p, t.beta)
        scale = cg._position_weight(p, t.beta)[2]
        wants = (_reference_position_radial_integral(p, t, NATURAL_UNITS, 1e-11).scaled(1 / scale),
                 _mapped_position_moment(p, t.beta))
        for got, want in zip((norm, moment), wants):
            assert want.converged
            assert abs(got.value - want.value) <= got.abs_error_estimate + want.abs_error_estimate
