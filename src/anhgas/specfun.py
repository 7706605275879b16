"""Self-contained special functions used by the gas modules.

Modified Bessel K of real order (fractional orders are first-class),
its derivative, the upper incomplete gamma function, and Whittaker W on
its incomplete-gamma family mu = +-(kappa + 1/2), for verify's identity
row and specfun-eval, where W_{kappa,mu}(z) = e^{z/2} z^-kappa Gamma(2 kappa + 1, z).
Each function has one implementation, in log space, so callers can
multiply huge exponentials by tiny function values without overflow
(DLMF 10.40, 8.11); the value forms exponentiate it. K's one pass,
bessel_k_pair, gives ln(e^x K_nu) and t = K_{nu+1}/K_nu - 1 together: the
log, the value and the derivative K' = K (nu/x - 1 - t) all read it.

Branch policy for K_nu, on either side of x_c = 2:

* ``x <= 2``    power series for the base pair (K_0, K_1) or (K_p, K_{1-p}),
                p in (0, 1); orders within 1e-3 of an integer but not at it
                are refused, since their series cancels;
* ``x > 2``     Steed's continued fraction CF2 for the base orders in
                [-1/2, 1/2], to the largest double.

Both climb to nu by the upward recurrence K_{v+1} = K_{v-1} + (2v/x) K_v,
carried as (ln K, t) with positive terms.
Branch boundaries are covered by cross-branch consistency tests. GammaLadder's one
downward walk gives every caller ln Gamma(a, x) at the orders a <= 0 below x = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SpecialFunctionResult", "SpecialFunctionDomainError", "SpecialFunctionRangeError",
    "SpecialFunctionOverflow",
    "bessel_k_pair", "bessel_k", "log_bessel_k", "bessel_k_derivative",
    "whittaker_w", "log_whittaker_w",
    "upper_incomplete_gamma", "log_upper_incomplete_gamma", "GammaLadder", "exp1",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# branch boundaries for bessel_k
_SERIES_X_MAX = 2.0       # x_c: the series at or below, CF2 above (Numerical Recipes' bessik)
_NU_MAX = 50.0
_NEAR_INT = 1e-3          # orders closer than this to an integer are refused at x <= x_c,
_INT_SNAP = 1e-11         # ...and closer than this are treated as integers
_LOG_HUGE = 700.0         # ln of the unscaled overflow threshold
_W_PARAM_MAX = 60.0       # |kappa|, |mu| bound of whittaker_w
_GAMMA_A_MIN = -2.0 * _W_PARAM_MAX   # lowest Gamma(a, x) order: W's b - 1 = 2 mu
_GAMMA_LADDER_X_MAX = 4.0   # x_c: orders a <= 0 walk down below it, take the fraction above
_GAMMA_AMP_MAX = 1e4        # largest rounding amplification an incomplete-gamma route may carry


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
    one of ``series``, ``recurrence`` or ``continued_fraction`` (Steed's
    CF2 for K_nu, the Lentz fraction for Gamma(a, x)).
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


def _k_series(nu: float, x: float) -> tuple[float, float, float]:
    """(p, ln(e^x K_p(x)), t_p) at the base order p = nu - m in [0, 1), x <= _SERIES_X_MAX.

    Integer orders take the pair (K_0, K_1), the others (K_p, K_{1-p}); either way
    K_{p+1} = K_{1-p} + (2p/x) K_p gives t_p = K_{p+1}/K_p - 1.
    """
    if abs(nu - round(nu)) <= _INT_SNAP:
        p, (k, k_mirror) = 0.0, _k01_integer_series(x)
    else:
        p = nu - math.floor(nu)
        k, k_mirror = _k_base_fractional(p, x), _k_base_fractional(1.0 - p, x)
    return p, math.log(k) + x, k_mirror / k + 2.0 * p / x - 1.0


def _k_cf2(nu: float, x: float) -> tuple[float, float, float]:
    """(mu, ln(e^x K_mu(x)), t_mu) for mu = nu - round(nu) in [-1/2, 1/2], x > _SERIES_X_MAX.

    Steed's evaluation of the continued fraction CF2 (Temme, J. Comput.
    Phys. 19, 1975; Thompson & Barnett, J. Comput. Phys. 64, 1986) gives
    e^x K_mu and K_{mu+1}/K_mu - 1 with plain arithmetic and no cancellation.
    It stops as soon as a term is negligible, before the q_i, which grow
    like (2x)^i, can overflow: at x > 1e17 that is the first term.
    """
    mu = nu - round(nu)
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)     # inf beyond 9e307, where d = h = 0 and s = 1 hold to rounding
    d = h = delh = 1.0 / b
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    i = 1
    while abs(q * delh) > 1e-17 * s:
        i += 1
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d_next = 1.0 / (b + a * d)
        delh *= -a * d * d_next     # (b d_next - 1) delh, without its cancellation
        d = d_next
        h += delh
        s += q * delh
    # e^x K_mu = sqrt(pi/2x) / s and K_{mu+1}/K_mu = 1 + (mu + 1/2 - a1 h) / x
    return mu, 0.5 * (math.log(0.5 * math.pi) - math.log(x)) - math.log(s), (mu + 0.5 - a1 * h) / x


def bessel_k_pair(nu: float, x: float) -> tuple[SpecialFunctionResult, float]:
    """One pass of K_nu at x, |nu| <= 50 and finite x > 0: ln(e^x K_nu(x)), with
    its absolute error estimate and branch, and t = K_{nu+1}(x)/K_nu(x) - 1.

    The one branch dispatch for K; every other K function reads this pass. The
    base order's pair climbs to nu by the upward ladder K_{v+1} = K_{v-1} +
    (2v/x) K_v, carried as (ln K, t), whose terms are positive. At x <= 2 the
    series cancels for orders near, but not at, an integer; that band is refused
    by name.
    """
    if not (0.0 < x < math.inf):
        raise SpecialFunctionDomainError(f"bessel_k requires x > 0 and finite, got x={x!r}")
    if not abs(nu) <= _NU_MAX:
        raise SpecialFunctionRangeError(
            f"order |nu|={abs(nu)} outside supported range <= {_NU_MAX}"
        )
    nu = abs(nu)  # K_{-nu} = K_nu
    if x > _SERIES_X_MAX:
        base, lk, t = _k_cf2(nu, x)
    elif _INT_SNAP < abs(nu - round(nu)) < _NEAR_INT:
        raise SpecialFunctionRangeError(
            f"bessel_k({nu}, {x}): orders in the near-integer band {_INT_SNAP:g} < "
            f"|nu - round(nu)| < {_NEAR_INT:g} are not evaluated at x <= "
            f"{_SERIES_X_MAX:g}, where their series cancels")
    else:
        base, lk, t = _k_series(nu, x)
    steps = round(nu - base)
    for v in range(1, steps + 1):
        lk += math.log1p(t)
        t = 2.0 * (base + v) / x - t / (1.0 + t)
    # rounding of the ln terms and of each ladder step
    err = 1e-15 * (1.0 + nu) + 4e-16 * abs(lk)
    if x > _SERIES_X_MAX:
        method = "continued_fraction"
    else:   # I_{-p} - I_p cancels by about e^(2x) / sin(pi p)
        err += 1e-15 * math.exp(2.0 * x) / (math.sin(math.pi * base) if base else 1.0)
        method = "recurrence" if steps else "series"
    return SpecialFunctionResult(lk, err, method), t


def _log_k(lks: SpecialFunctionResult, x: float) -> SpecialFunctionResult:
    # ln K_nu(x) from the pass's ln(e^x K_nu(x)), with the subtraction's rounding
    lk = lks.value - x
    return SpecialFunctionResult(lk, lks.abs_error_estimate + 2.2e-16 * abs(lk), lks.method)


def log_bessel_k(nu: float, x: float) -> SpecialFunctionResult:
    """ln K_nu(x) for |nu| <= 50 and finite x > 0: the pass minus x; never overflows."""
    return _log_k(bessel_k_pair(nu, x)[0], x)


def _exp_result(log_res: SpecialFunctionResult, what: str) -> SpecialFunctionResult:
    """exp(log_res.value), its absolute log error carried over as a relative
    one; raises SpecialFunctionOverflow outside double range."""
    lv = log_res.value
    if lv == -math.inf:                 # an exact zero
        return SpecialFunctionResult(0.0, 1e-300, log_res.method)
    if abs(lv) > _LOG_HUGE:
        raise SpecialFunctionOverflow(f"{what} leaves double range; use its log variant")
    v = math.exp(lv)
    return SpecialFunctionResult(
        v, v * (log_res.abs_error_estimate + 2e-16 * abs(lv)), log_res.method
    )


def bessel_k(nu: float, x: float) -> SpecialFunctionResult:
    """K_nu(x) for real order, |nu| <= 50, x > 0.

    Raises SpecialFunctionOverflow, a SpecialFunctionRangeError, when the
    value would not fit in a double; that regime needs log_bessel_k.
    """
    return _exp_result(log_bessel_k(nu, x), f"bessel_k({nu}, {x})")


def bessel_k_derivative(nu: float, x: float) -> SpecialFunctionResult:
    """K'_nu(x) = K_nu(x) (|nu|/x - 1 - t) (DLMF 10.29.2), from one pass; always negative."""
    lks, t = bessel_k_pair(nu, x)
    lk = _log_k(lks, x)
    d = 1.0 + t - abs(nu) / x               # -K'/K > 0
    # t's absolute error is about (1 + t) times the log's; d carries it relative to itself
    d_err = ((1.0 + t) * lks.abs_error_estimate + 4e-16 * (1.0 + t + abs(nu) / x)) / d
    log_mag = SpecialFunctionResult(lk.value + math.log(d), lk.abs_error_estimate + d_err,
                                    lk.method)
    mag = _exp_result(log_mag, f"bessel_k_derivative({nu}, {x})")
    return SpecialFunctionResult(-mag.value, mag.abs_error_estimate, mag.method)


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


def _log_gamma_direct(a: float, x: float) -> tuple[float, float, str]:
    # (ln Gamma(a, x), its rounding amplification, branch) at x > 0 by the Lentz fraction,
    # or by the lower series, whose 1 - P amplifies P's rounding by Gamma(a) / Gamma(a, x)
    if x >= a + 1.0:
        return -x + a * math.log(x) + math.log(_upper_cf(a, x)), 1.0, "continued_fraction"
    v = math.lgamma(a) + math.log1p(-_lower_p_series(a, x))
    if not (units := math.exp(math.lgamma(a) - v)) <= _GAMMA_AMP_MAX:
        raise SpecialFunctionRangeError(f"log_upper_incomplete_gamma({a}, {x}): its series "
                                        f"route amplifies rounding {units:.3g}-fold, > 1e4")
    return v, units, "series"


class GammaLadder:
    """ln Gamma(a, x) at one x > 0 by order a >= -120, as log_upper_incomplete_gamma.

    Below x_c = 4 the orders a = top - k <= 0, top in [0, 1), come from one walk
    Gamma(a-1, x) = (Gamma(a, x) - x^(a-1) e^-x) / (a-1) down from Gamma(top, x),
    E_1(x) at top = 0, as deep as the deepest order asked so far. Each log keeps its
    rounding amplification beside it; the first step past 1e4, every order below it
    and every order off the ladder are refused. Other orders take _log_gamma_direct."""

    def __init__(self, x: float, top: float = 0.0):
        # logs[k] = ln Gamma(top - k, x), amps[k] its rounding amplification
        self.x, self.top, self.logs, self.amps = x, top, [], []

    def __call__(self, a: float) -> float:
        x, top, logs = self.x, self.top, self.logs
        if not _GAMMA_A_MIN <= a < math.inf:    # the walk takes about -a steps
            raise SpecialFunctionRangeError(
                f"incomplete gamma order a={a} outside the supported [{_GAMMA_A_MIN:g}, inf)")
        if a > 0.0 or x >= _GAMMA_LADDER_X_MAX:
            return _log_gamma_direct(a, x)[0]
        if abs(top - a - (k := round(top - a))) > 1e-12 * (1.0 - a):
            raise SpecialFunctionRangeError(f"order a={a} is off the ladder {top} - k at x={x}")
        if k < len(logs):
            return logs[k]
        if not logs:    # the start: E_1(x) at top = 0, else the series or the fraction
            lg, units = _log_gamma_direct(top, x)[:2] if top else (math.log(exp1(x)), 1.0)
            logs.append(lg)
            self.amps.append(units)
        lg, units, cur, lx = logs[-1], self.amps[-1], top - (len(logs) - 1), math.log(x)
        while len(logs) <= k:
            cur -= 1.0
            l_pow = cur * lx - x            # ln(x^cur e^-x)
            r = math.exp(lg - l_pow)        # Gamma(cur+1, x) / (x^cur e^-x)
            # the step amplifies the error of Gamma(cur+1, x) by r / (1 - r), adds a rounding
            units = 1.0 + (units + 1.0) * r / (1.0 - r) if r < 1.0 else math.inf
            if not units <= _GAMMA_AMP_MAX:
                raise SpecialFunctionRangeError(f"log_upper_incomplete_gamma({a}, {x}): its "
                                                f"recurrence route amplifies rounding "
                                                f"{units:.3g}-fold, > 1e4")
            # Gamma(cur, x) = (x^cur e^-x - Gamma(cur+1, x)) / (-cur), both positive
            lg = l_pow + math.log1p(-r) - math.log(-cur)
            logs.append(lg)
            self.amps.append(units)
        return lg


def log_upper_incomplete_gamma(a: float, x: float) -> SpecialFunctionResult:
    """ln Gamma(a, x) for finite a >= -120 when x > 0, and for a > 0 when x = 0.

    Orders a <= 0 are the extension the mode-series terms need, where the
    orders run through negative integers; Gamma(a, x) is always positive.
    Below x_c they are one read of a GammaLadder with top = a + ceil(-a). A route
    whose cancellation amplifies rounding more than 1e4-fold is refused; below
    that, the estimate carries the amplification (Gautschi, ACM TOMS 5(4), 1979).
    """
    if not (x > 0.0 or (x == 0.0 and a > 0.0)):
        raise SpecialFunctionDomainError(
            f"log_upper_incomplete_gamma needs x > 0, or x = 0 < a; got a={a}, x={x}")
    if not _GAMMA_A_MIN <= a < math.inf:
        raise SpecialFunctionRangeError(
            f"log_upper_incomplete_gamma order a={a} outside the supported "
            f"[{_GAMMA_A_MIN:g}, inf)")
    if x == 0.0:
        v = math.lgamma(a)
        return SpecialFunctionResult(v, 4e-16 * abs(v) + 1e-16, "series")
    if a > 0.0 or x >= _GAMMA_LADDER_X_MAX:
        v, units, method = _log_gamma_direct(a, x)
    else:
        ladder = GammaLadder(x, (a + math.ceil(-a)) % 1.0)
        v, units, method = ladder(a), ladder.amps[-1], "recurrence"
    # v carries units roundings of 1e-14 |v|
    return SpecialFunctionResult(v, 1e-14 * units * max(1.0, abs(v)), method)


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
    """ln W_{kappa,mu}(z) on its incomplete-gamma family mu = +-(kappa + 1/2), for
    verify's identity row and specfun-eval; the triple series does not use W.

    W is even in mu; with m = kappa + 1/2 it is e^{-z/2} z^{m+1/2} U(1, 1+2m, z),
    and U(1, b, z) = e^z z^{1-b} Gamma(b-1, z) (DLMF 13.18(ii)), so W is
    positive and the Gamma branch that ran is W's. Any other (kappa, mu) is a
    SpecialFunctionRangeError; whittaker_w exponentiates the result.
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
    lz = math.log(z)
    # the Gamma branch's error, plus the rounding of the four log terms added to it
    rounding = 4e-16 * (1.5 * z + (abs(m + 0.5) + abs(1.0 - b)) * abs(lz) + abs(g.value))
    return SpecialFunctionResult(
        -0.5 * z + (m + 0.5) * lz + (z + (1.0 - b) * lz + g.value),
        g.abs_error_estimate + rounding, g.method,
    )


def whittaker_w(kappa: float, mu: float, z: float) -> SpecialFunctionResult:
    """W_{kappa,mu}(z) for z > 0, |kappa|,|mu| <= 60 and mu = +-(kappa + 1/2)."""
    return _exp_result(log_whittaker_w(kappa, mu, z), f"whittaker_w({kappa}, {mu}, {z})")
