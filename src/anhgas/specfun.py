"""Self-contained special functions used by the gas modules.

Modified Bessel K of real order (fractional orders are first-class),
its derivative, the upper incomplete gamma function, and Whittaker W on
its incomplete-gamma family mu = +-(kappa + 1/2), the one the series
terms use, where W_{kappa,mu}(z) = e^{z/2} z^-kappa Gamma(2 kappa + 1, z).
Each function has one implementation, in log space, so callers can
multiply huge exponentials by tiny function values without overflow
(DLMF 10.40, 8.11); the value and e^x-scaled forms exponentiate it.

Branch policy for K_nu:

* ``x <= 4``    power series through the base orders in [0, 1] plus the
                stable upward recurrence K_{v+1} = K_{v-1} + (2v/x) K_v;
* large ``x``   the divergent asymptotic series, used only when its
                terms provably shrink below machine precision;
* otherwise     adaptive quadrature of int_0^inf exp(-x cosh t) cosh(vt) dt.

Branch boundaries are covered by cross-branch consistency tests. In an open memo
scope (anhgas.memo), ln Gamma(a, x) at integer a continues x's deepest recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import memo

__all__ = [
    "SpecialFunctionResult",
    "SpecialFunctionDomainError",
    "SpecialFunctionRangeError",
    "SpecialFunctionOverflow",
    "bessel_k",
    "bessel_k_scaled",
    "log_bessel_k",
    "bessel_k_derivative",
    "bessel_k_derivative_scaled",
    "whittaker_w",
    "log_whittaker_w",
    "upper_incomplete_gamma",
    "log_upper_incomplete_gamma",
    "exp1",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# branch boundaries for bessel_k
_SERIES_X_MAX = 4.0
_ASYM_X_MIN = 16.0
_NU_MAX = 50.0
_NEAR_INT = 1e-3          # fractional orders closer than this to an integer
_INT_SNAP = 1e-11         # ...and closer than this are treated as integers
_LOG_HUGE = 700.0         # ln of the unscaled overflow threshold
_W_PARAM_MAX = 60.0       # |kappa|, |mu| bound of whittaker_w
_GAMMA_A_MIN = -2.0 * _W_PARAM_MAX   # lowest Gamma(a, x) order: W's b - 1 = 2 mu


class SpecialFunctionDomainError(ValueError):
    """Argument outside the mathematical domain (e.g. x <= 0 for K_nu)."""


class SpecialFunctionRangeError(ValueError):
    """Arguments inside the domain but outside the supported region."""


class SpecialFunctionOverflow(SpecialFunctionRangeError, OverflowError):
    """The value leaves double range (over- or underflow); use the log variant."""


@dataclass(frozen=True)
class SpecialFunctionResult:
    """A function value with an honest absolute error estimate.

    ``method`` records which evaluation branch produced the value:
    one of ``series``, ``asymptotic``, ``quadrature``, ``recurrence``,
    or ``continued_fraction`` (the Lentz fraction for Gamma(a, x)).
    """

    value: float
    abs_error_estimate: float
    method: str


# ---------------------------------------------------------------------------
# modified Bessel K
# ---------------------------------------------------------------------------

def _i_series(order: float, x: float) -> float:
    # I_order(x) = sum_k (x/2)^(2k+order) / (k! Gamma(order+k+1)),
    # used only for order in (-1, 1) where every Gamma argument is positive.
    half = 0.5 * x
    q = half * half
    term = math.exp(order * math.log(half) - math.lgamma(order + 1.0))
    total = term
    for k in range(1, 400):
        term *= q / (k * (order + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def _k_base_fractional(p: float, x: float) -> float:
    # K_p for non-integer p in (0, 1), x <= _SERIES_X_MAX.
    return 0.5 * math.pi * (_i_series(-p, x) - _i_series(p, x)) / math.sin(math.pi * p)


def _k01_integer_series(x: float) -> tuple[float, float]:
    # (K_0, K_1) by the classical log-type series, x <= _SERIES_X_MAX.
    q = 0.25 * x * x
    lx = math.log(0.5 * x)

    i0 = 1.0
    term = 1.0
    k0 = 0.0
    h = 0.0
    for k in range(1, 200):
        term *= q / (k * k)
        h += 1.0 / k
        i0 += term
        k0 += term * h
        if term <= 1e-18 * i0:
            break
    k0 += -(lx + EULER_GAMMA) * i0

    # K_1 = ln(x/2) I_1 + 1/x - (x/4) sum_k [psi(k+1)+psi(k+2)] q^k / (k!(k+1)!)
    i1 = 1.0
    term = 1.0
    s1 = -2.0 * EULER_GAMMA + 1.0      # psi(1)+psi(2) = -2 gamma + 1
    acc = s1
    psum = 1.0
    for k in range(1, 200):
        term *= q / (k * (k + 1))
        psum += 1.0 / k + 1.0 / (k + 1.0)
        acc += term * (-2.0 * EULER_GAMMA + psum)
        i1 += term
        if term <= 1e-18 * i1:
            break
    i1 *= 0.5 * x
    k1 = lx * i1 + 1.0 / x - 0.25 * x * acc
    return k0, k1


def _log_k_small(nu: float, x: float) -> tuple[float, str]:
    """ln K_nu(x) for 0 <= nu <= _NU_MAX and x <= _SERIES_X_MAX.

    The pair (K_p, K_{p+1}) with p in [0, 1) is built by series, then the
    upward ladder K_{v+1} = K_{v-1} + (2v/x) K_v runs in log space, which
    is stable (all terms positive) and immune to overflow.
    """
    m = round(nu)
    rho = nu - m
    if abs(rho) <= _INT_SNAP:
        k0, k1 = _k01_integer_series(x)
        if m == 0 or m == 1:
            return math.log(k1 if m else k0), "series"
        lo, hi = math.log(k0), math.log(k1)
        order0, steps = 1.0, m - 1
    else:
        rho_hat = abs(rho)
        l_a = math.log(_k_base_fractional(rho_hat, x))        # ln K_{rho_hat}
        l_b = math.log(_k_base_fractional(1.0 - rho_hat, x))  # ln K_{1-rho_hat}
        if rho > 0.0:
            if m == 0:
                return l_a, "series"
            # K_{rho_hat - 1} = K_{1 - rho_hat} by symmetry
            lo, hi = l_b, l_a
            order0, steps = rho_hat, m
        else:
            if m == 1:
                return l_b, "series"
            lo, hi = l_a, l_b
            order0, steps = 1.0 - rho_hat, m - 1
    order = order0
    for _ in range(steps):
        lo, hi = hi, _logaddexp(lo, math.log(2.0 * order / x) + hi)
        order += 1.0
    return hi, "recurrence"


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    if a == -math.inf:
        return a
    return a + math.log1p(math.exp(b - a))


def _k_asymptotic_scaled(nu: float, x: float) -> float | None:
    # K_nu(x) e^x ~ sqrt(pi/2x) sum_k a_k(nu)/x^k; None if the series does
    # not reach machine precision while still decreasing.
    mu = 4.0 * nu * nu
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, 60):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        if abs(term) >= prev:
            return None
        s += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(s):
            return math.sqrt(math.pi / (2.0 * x)) * s
    return None


# classical_gas keeps its own copy: this one feeds the literal closed
# forms through K_nu, that one the oracles that check them
def _log_cosh(u: float) -> float:
    u = abs(u)
    return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))


def _k_quadrature_scaled(nu: float, x: float) -> tuple[float, float]:
    """K_nu(x) e^x by adaptive quadrature of the cosh representation."""
    from .oracles import integrate_semi_infinite

    def integrand(t: float) -> float:
        # exp(-x (cosh t - 1)) cosh(nu t), assembled in log space
        if t >= 350.0:
            return 0.0
        expo = _log_cosh(nu * t) - x * (math.cosh(t) - 1.0)
        if expo < -745.0:
            return 0.0
        return math.exp(expo)

    res = integrate_semi_infinite(integrand, 0.0, rel_tol=1e-12, abs_tol=1e-280)
    return res.value, res.abs_error_estimate


def log_bessel_k(nu: float, x: float) -> SpecialFunctionResult:
    """ln K_nu(x); never overflows on the supported (nu, x) region.

    The one branch dispatch for K: bessel_k and bessel_k_scaled
    exponentiate its result.
    """
    if not (x > 0.0):
        raise SpecialFunctionDomainError(f"bessel_k requires x > 0, got x={x!r}")
    if abs(nu) > _NU_MAX:
        raise SpecialFunctionRangeError(
            f"order |nu|={abs(nu)} outside supported range <= {_NU_MAX}"
        )
    nu = abs(nu)  # K_{-nu} = K_nu
    if x <= _SERIES_X_MAX and not _INT_SNAP < abs(nu - round(nu)) < _NEAR_INT:
        lk, method = _log_k_small(nu, x)
        # the dominant small-x error is series cancellation, growing ~ e^(2x)
        return SpecialFunctionResult(
            lk, 1e-15 * (1.0 + nu) + 5e-16 * math.exp(2.0 * x), method
        )
    scaled = _k_asymptotic_scaled(nu, x) if x >= _ASYM_X_MIN else None
    if scaled is not None:
        return SpecialFunctionResult(math.log(scaled) - x, 1e-14 * max(1.0, x), "asymptotic")
    # near-integer fractional orders at small x come here too
    val, err = _k_quadrature_scaled(nu, x)
    return SpecialFunctionResult(
        math.log(val) - x, (err / val) + 1e-15 * (abs(math.log(val)) + x),
        "quadrature",
    )


def _exp_result(log_res: SpecialFunctionResult, what: str,
                shift: float = 0.0) -> SpecialFunctionResult:
    """exp(log_res.value + shift), its absolute log error carried over as a
    relative one; raises SpecialFunctionOverflow outside double range."""
    lv = log_res.value + shift
    if lv == -math.inf:                 # an exact zero
        return SpecialFunctionResult(0.0, 1e-300, log_res.method)
    if abs(lv) > _LOG_HUGE:
        raise SpecialFunctionOverflow(f"{what} leaves double range; use its log variant")
    v = math.exp(lv)
    return SpecialFunctionResult(
        v, v * (log_res.abs_error_estimate + 2e-16 * abs(lv)), log_res.method
    )


def bessel_k_scaled(nu: float, x: float) -> SpecialFunctionResult:
    """K_nu(x) * e^x, the overflow-tamed form used in closed formulas."""
    return _exp_result(log_bessel_k(nu, x), f"bessel_k_scaled({nu}, {x})", shift=x)


def bessel_k(nu: float, x: float) -> SpecialFunctionResult:
    """K_nu(x) for real order, |nu| <= 50, x > 0.

    Raises SpecialFunctionOverflow, a SpecialFunctionRangeError, when the
    value would not fit in a double; that regime needs log_bessel_k.
    """
    return _exp_result(log_bessel_k(nu, x), f"bessel_k({nu}, {x})")


def _k_derivative(k, nu: float, x: float) -> SpecialFunctionResult:
    # K'_nu = -(K_{nu-1} + K_{nu+1}) / 2, with k = bessel_k or bessel_k_scaled
    a = k(abs(nu) - 1.0, x)
    b = k(abs(nu) + 1.0, x)
    return SpecialFunctionResult(
        -0.5 * (a.value + b.value),
        0.5 * (a.abs_error_estimate + b.abs_error_estimate), "recurrence",
    )


def bessel_k_derivative(nu: float, x: float) -> SpecialFunctionResult:
    """K'_nu(x) via the recurrence K'_nu = -(K_{nu-1} + K_{nu+1}) / 2."""
    return _k_derivative(bessel_k, nu, x)


def bessel_k_derivative_scaled(nu: float, x: float) -> SpecialFunctionResult:
    """K'_nu(x) * e^x (always negative for x > 0)."""
    return _k_derivative(bessel_k_scaled, nu, x)


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

def _lower_p_series(a: float, x: float) -> float:
    # regularized lower gamma P(a, x) by its series, for 0 < x < a + 1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_cf(a: float, x: float) -> float:
    # Lentz continued fraction for Gamma(a, x) e^x x^-a; x >= ~1 or a << x
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        dl = d * c
        h *= dl
        if abs(dl - 1.0) < 1e-16:
            return h
    raise SpecialFunctionRangeError(
        f"incomplete gamma continued fraction failed at a={a}, x={x}"
    )


def log_upper_incomplete_gamma(a: float, x: float) -> SpecialFunctionResult:
    """ln Gamma(a, x) for finite a >= -120 when x > 0, and for a > 0 when x = 0.

    Orders a <= 0 are the extension the mode-series terms need, where the
    orders run through negative integers; Gamma(a, x) is always positive.
    """
    if not (x > 0.0 or (x == 0.0 and a > 0.0)):
        raise SpecialFunctionDomainError(
            f"log_upper_incomplete_gamma needs x > 0, or x = 0 < a; got a={a}, x={x}")
    if not _GAMMA_A_MIN <= a < math.inf:
        # the downward recurrence below takes about -a steps
        raise SpecialFunctionRangeError(
            f"log_upper_incomplete_gamma order a={a} outside the supported "
            f"[{_GAMMA_A_MIN:g}, inf)")
    if x == 0.0:
        v = math.lgamma(a)
        return SpecialFunctionResult(v, 4e-16 * abs(v) + 1e-16, "series")
    if a > 0.0 and x < a + 1.0:
        v = math.lgamma(a) + math.log1p(-_lower_p_series(a, x))
        return SpecialFunctionResult(v, 1e-14 * max(1.0, abs(v)), "series")
    if a > 0.0 or x >= 1.5:
        v = -x + a * math.log(x) + math.log(_upper_cf(a, x))
        return SpecialFunctionResult(v, 1e-14 * max(1.0, abs(v)), "continued_fraction")
    # downward recurrence Gamma(a-1,x) = (Gamma(a,x) - x^(a-1) e^-x) / (a-1) from the
    # first order in (0, 1]; from order 1 (every integer a) the chain starts one step
    # down, at E_1(x) = Gamma(0, x), so chain[k] holds order top - from_e1 - k. In an
    # open memo scope an integer a goes on from the deepest order kept there under x
    integer = a == math.floor(a)
    n_steps = int(math.ceil(-a)) + integer
    top = a + n_steps
    from_e1 = top == 1.0
    chains = memo.current() if integer else None
    chain = chains.setdefault(x, []) if chains is not None else []
    if not chain:
        chain.append(math.log(exp1(x)) if from_e1 else log_upper_incomplete_gamma(top, x).value)
    lg = chain[min(n_steps - from_e1, len(chain) - 1)]
    cur = top - from_e1 - (len(chain) - 1)
    lx = math.log(x)
    for _ in range(n_steps - from_e1 + 1 - len(chain)):
        cur -= 1.0
        l_pow = cur * lx - x            # ln(x^cur e^-x)
        # Gamma(cur, x) = (x^cur e^-x - Gamma(cur+1, x)) / (-cur), both positive
        if l_pow >= lg:
            lg = l_pow + math.log1p(-math.exp(lg - l_pow)) - math.log(-cur)
        else:
            # only possible through rounding at the crossover; fall back
            lg = math.log((math.exp(lg) - math.exp(l_pow)) / cur)
        chain.append(lg)
    return SpecialFunctionResult(lg, 1e-14 * (1 + n_steps) * max(1.0, abs(lg)), "recurrence")


def upper_incomplete_gamma(a: float, x: float) -> SpecialFunctionResult:
    """Gamma(a, x) = int_x^inf t^(a-1) e^-t dt for a > 0, x >= 0."""
    if not (a > 0.0):
        raise SpecialFunctionDomainError(f"upper_incomplete_gamma requires a > 0, got {a}")
    return _exp_result(log_upper_incomplete_gamma(a, x), f"upper_incomplete_gamma({a}, {x})")


def exp1(x: float) -> float:
    """Exponential integral E_1(x) = Gamma(0, x), x > 0."""
    if not (x > 0.0):
        raise SpecialFunctionDomainError(f"exp1 requires x > 0, got {x}")
    if x <= 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 80):
            term *= -x / k
            d = -term / k
            total += d
            if abs(d) <= 1e-18 * max(abs(total), 1e-300):
                break
        return total
    return math.exp(-x) * _upper_cf(0.0, x)


# ---------------------------------------------------------------------------
# Whittaker W
# ---------------------------------------------------------------------------

def log_whittaker_w(kappa: float, mu: float, z: float) -> SpecialFunctionResult:
    """ln W_{kappa,mu}(z) on its incomplete-gamma family mu = +-(kappa + 1/2).

    W is even in mu; with m = kappa + 1/2 it is e^{-z/2} z^{m+1/2} U(1, 1+2m, z),
    and U(1, b, z) = e^z z^{1-b} Gamma(b-1, z) (DLMF 13.18(ii)), so W is
    positive and the Gamma branch that ran is W's. Any other (kappa, mu)
    is a SpecialFunctionRangeError. The one branch dispatch for W:
    whittaker_w exponentiates its result.
    """
    if not (z > 0.0):
        raise SpecialFunctionDomainError(f"Whittaker W requires z > 0, got {z}")
    m = mu if mu - kappa + 0.5 == 1.0 else -mu
    if max(abs(kappa), abs(mu)) > _W_PARAM_MAX or m - kappa + 0.5 != 1.0:
        raise SpecialFunctionRangeError(
            f"whittaker_w({kappa}, {mu}, .): only the incomplete-gamma family "
            f"mu = +-(kappa + 1/2) with |kappa|, |mu| <= {_W_PARAM_MAX:g} is evaluated")
    b = 1.0 + 2.0 * m
    g = log_upper_incomplete_gamma(b - 1.0, z)
    return SpecialFunctionResult(
        -0.5 * z + (m + 0.5) * math.log(z) + (z + (1.0 - b) * math.log(z) + g.value),
        1e-13, g.method,
    )


def whittaker_w(kappa: float, mu: float, z: float) -> SpecialFunctionResult:
    """W_{kappa,mu}(z) for z > 0, |kappa|,|mu| <= 60 and mu = +-(kappa + 1/2)."""
    return _exp_result(log_whittaker_w(kappa, mu, z), f"whittaker_w({kappa}, {mu}, {z})")
