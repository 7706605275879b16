"""Independent ground-truth machinery.

Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals,
truncated-basis diagonalization, and a seeded Metropolis sampler.
Everything here is the oracle side of a two-route check, so it
deliberately shares no code with the closed-form evaluations it
validates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureResults",
    "McEstimate",
    "IntegrandError",
    "integrate_finite",
    "integrate_semi_infinite",
    "diagonalize_truncated",
    "metropolis_expectation",
]


class IntegrandError(RuntimeError):
    """The integrand returned NaN; the message carries the location."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def scaled(self, factor: float) -> QuadratureResult:
        """factor times the integral: the value and error estimate scale,
        the evaluation count and convergence carry over."""
        return QuadratureResult(self.value * factor, self.abs_error_estimate * factor,
                                self.evaluations, self.converged)


class QuadratureResults(tuple):
    """A QuadratureResult per component of a tuple integrand, from one pass:
    the pass's evaluation count, converged only if every component is."""

    evaluations = property(lambda self: self[0].evaluations)
    converged = property(lambda self: all(r.converged for r in self))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    acceptance_rate: float
    tuning_flagged: bool = False


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 adaptive quadrature
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
_ABS_TOL = 1e-300   # the absolute floor of every tolerance test: a zero integral converges
_MAX_EVALS = 200_000    # the integrand evaluations one pass may spend


def _gk15(f: Callable[[float], float | tuple[float, ...]], lo: float, hi: float,
          a: float | None = None):
    """One Gauss-Kronrod panel on [lo, hi]; returns (K15 value, error estimate), or
    for an f that returns a tuple of floats, a list of each, per component and
    bit for bit that component's float panel.  With a lower limit ``a`` the panel
    lies in (0, 1) and a float f is integrated over [a, inf) through the rational
    map y = a + t/w, w = 1 - t: each node divides its value by its own Jacobian
    w^2, so a tuple f is a TypeError there.  The nodes are written out (a loop
    over them made the classical sweep 1.36x slower): the centre, then the seven
    -/+ pairs from the outermost in, K15 and G7 accumulating in that order.  NaN
    is looked for in each K15 sum; a node at t = 1, where y = inf, is a
    ValueError naming the map and the panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    if a is None:
        fc = f(mid)
        l0, r0 = f(mid - d0), f(mid + d0)
        l1, r1 = f(mid - d1), f(mid + d1)
        l2, r2 = f(mid - d2), f(mid + d2)
        l3, r3 = f(mid - d3), f(mid + d3)
        l4, r4 = f(mid - d4), f(mid + d4)
        l5, r5 = f(mid - d5), f(mid + d5)
        l6, r6 = f(mid - d6), f(mid + d6)
    else:
        try:
            fc = f(a + mid / (w := 1.0 - mid)) / (w * w)
            l0 = f(a + (t := mid - d0) / (w := 1.0 - t)) / (w * w)
            r0 = f(a + (t := mid + d0) / (w := 1.0 - t)) / (w * w)
            l1 = f(a + (t := mid - d1) / (w := 1.0 - t)) / (w * w)
            r1 = f(a + (t := mid + d1) / (w := 1.0 - t)) / (w * w)
            l2 = f(a + (t := mid - d2) / (w := 1.0 - t)) / (w * w)
            r2 = f(a + (t := mid + d2) / (w := 1.0 - t)) / (w * w)
            l3 = f(a + (t := mid - d3) / (w := 1.0 - t)) / (w * w)
            r3 = f(a + (t := mid + d3) / (w := 1.0 - t)) / (w * w)
            l4 = f(a + (t := mid - d4) / (w := 1.0 - t)) / (w * w)
            r4 = f(a + (t := mid + d4) / (w := 1.0 - t)) / (w * w)
            l5 = f(a + (t := mid - d5) / (w := 1.0 - t)) / (w * w)
            r5 = f(a + (t := mid + d5) / (w := 1.0 - t)) / (w * w)
            l6 = f(a + (t := mid - d6) / (w := 1.0 - t)) / (w * w)
            r6 = f(a + (t := mid + d6) / (w := 1.0 - t)) / (w * w)
        except ZeroDivisionError as exc:
            # a node at t = 1 fails in this frame (t/0); anything raised
            # inside f, or with no node at t = 1, passes through unchanged
            if exc.__traceback__.tb_next is not None or mid + d0 < 1.0:
                raise
            raise ValueError(
                f"the rational map of [{a!r}, inf) put a node at t = 1, "
                f"where y = inf, in the panel [{lo!r}, {hi!r}]"
            ) from exc
    if one := type(fc) is not tuple:    # one component; indexing beats zipping the nodes
        fc, l0, r0, l1, r1, l2, r2 = (fc,), (l0,), (r0,), (l1,), (r1,), (l2,), (r2,)
        l3, r3, l4, r4, l5, r5, l6, r6 = (l3,), (r3,), (l4,), (r4,), (l5,), (r5,), (l6,), (r6,)
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    vals, errs = [], []
    for i in range(len(fc)):
        c, s1, s3, s5 = fc[i], l1[i] + r1[i], l3[i] + r3[i], l5[i] + r5[i]
        kron = (k7 * c + k0 * (l0[i] + r0[i]) + k1 * s1 + k2 * (l2[i] + r2[i]) + k3 * s3
                + k4 * (l4[i] + r4[i]) + k5 * s5 + k6 * (l6[i] + r6[i]))
        gauss = g3 * c + g0 * s1 + g1 * s3 + g2 * s5
        if kron != kron:
            # a NaN node poisons the sum; name the first one (an inf - inf
            # cancellation has no NaN node and returns the NaN estimate)
            xs = [mid] + [mid + s * d for d in (d0, d1, d2, d3, d4, d5, d6) for s in (-1.0, 1.0)]
            for x, v in zip(xs, (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6)):
                if v[i] != v[i]:
                    raise IntegrandError(f"integrand returned NaN at {x!r}")
        vals.append(kron * half)
        errs.append(abs(kron - gauss) * half)
    return (vals[0], errs[0]) if one else (vals, errs)


def _adaptive(
    f: Callable[[float], float | tuple[float, ...]],
    lo: float,
    hi: float,
    rel_tol: float,
    a: float | None = None,
) -> QuadratureResult | QuadratureResults:
    """Adaptive bisection of [lo, hi] with _gk15 panels, one pass for all components
    of f: split the panel of largest priority (its estimate e for a float f, else
    max_i e_i / s_i with s_i = max(|first-panel value_i|, _ABS_TOL / rel_tol)) until
    each component meets max(_ABS_TOL, rel_tol |value_i|), or the _MAX_EVALS budget or
    float resolution stops it, then re-sum each component's panels in sorted order."""
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    val, err = _gk15(f, lo, hi, a)
    if one := type(val) is float:
        val, err = [val], [err]
    scales = [max(_ABS_TOL / rel_tol, abs(v)) for v in val]

    def priority(e: list[float]) -> float:
        return e[0] if one else max([ei / s for ei, s in zip(e, scales)])

    heap: list[tuple] = [(-priority(err), lo, hi, val, err)]
    total, total_err = val[:], err[:]
    parts = range(len(val))
    evals = 15
    unmet = any(total_err[i] > max(_ABS_TOL, rel_tol * abs(total[i])) for i in parts)
    while unmet and evals + 30 <= _MAX_EVALS:
        neg, p_lo, p_hi, v, e = heapq.heappop(heap)
        midpoint = 0.5 * (p_lo + p_hi)
        if midpoint == p_lo or midpoint == p_hi:
            # interval at float resolution; keep its estimate
            heapq.heappush(heap, (0.0, p_lo, p_hi, v, e))
            break
        v1, e1 = _gk15(f, p_lo, midpoint, a)
        v2, e2 = _gk15(f, midpoint, p_hi, a)
        if one:
            v1, e1, v2, e2 = [v1], [e1], [v2], [e2]
        evals += 30
        unmet = False
        for i in parts:
            t = total[i] = total[i] + (v1[i] + v2[i] - v[i])
            te = total_err[i] = total_err[i] + (e1[i] + e2[i] - e[i])
            unmet = unmet or te > max(_ABS_TOL, rel_tol * abs(t))
        heapq.heappush(heap, (-priority(e1), p_lo, midpoint, v1, e1))
        heapq.heappush(heap, (-priority(e2), midpoint, p_hi, v2, e2))
    # re-sum in a fixed order for reproducibility and to refresh the error
    panels = sorted((p_lo, p_hi, v, e) for _, p_lo, p_hi, v, e in heap)
    results = QuadratureResults(
        QuadratureResult(value, error, evals, error <= max(_ABS_TOL, rel_tol * abs(value)))
        for value, error in ((math.fsum(p[2][i] for p in panels),
                              math.fsum(p[3][i] for p in panels)) for i in parts))
    return results[0] if one else results


def integrate_finite(
    f: Callable[[float], float | tuple[float, ...]],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult | QuadratureResults:
    """Adaptive Gauss-Kronrod on [a, b] in at most _MAX_EVALS evaluations; a tuple
    integrand gives QuadratureResults."""
    return _adaptive(f, a, b, rel_tol)


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Integral of a float f over [a, inf) through y = a + t/(1-t); a tuple f is a TypeError.

    The map is in units of y and built for tails like e^{-y}: an integrand of
    another width, with an edge at a, with a tail the map should reach another
    way, or with a finite support, is integrated over a coordinate its caller
    chooses, with the Jacobian in the integrand, by integrate_finite.
    """
    return _adaptive(f, 0.0, 1.0, rel_tol, a)


# ---------------------------------------------------------------------------
# truncated-basis diagonalization
# ---------------------------------------------------------------------------

def diagonalize_truncated(h: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues of a dense symmetric matrix, ascending."""
    import numpy as np

    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    n = h.shape[0]
    if n > 2000:
        raise ValueError(f"dimension {n} exceeds the supported 2000")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside 1..{n}")
    scale = max(1.0, float(np.max(np.abs(h))))
    asym = float(np.max(np.abs(h - h.T)))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-12 * scale")
    return np.linalg.eigvalsh(h)[:k]


# ---------------------------------------------------------------------------
# seeded Metropolis sampler
# ---------------------------------------------------------------------------

def metropolis_expectation(
    log_weight: Callable[[float], float],
    observable: Callable[[float], float],
    proposal_scale: float,
    n_samples: int,
    burn_in: int,
    seed: int,
    x0: float = 1.0,
) -> McEstimate:
    """Random-walk Metropolis estimate of <observable> under exp(log_weight).

    Deterministic for a fixed seed; the standard error comes from 32 batch
    means, so short-range autocorrelation is accounted for.
    """
    import numpy as np

    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4")
    rng = np.random.default_rng(seed)
    total = burn_in + n_samples
    steps = rng.normal(0.0, proposal_scale, size=total)
    log_us = np.log(rng.random(size=total))
    x = float(x0)
    lw = log_weight(x)
    if not math.isfinite(lw):
        raise ValueError(f"log_weight not finite at start point {x0}")
    accepted = 0
    values = np.empty(n_samples)
    for i in range(total):
        prop = x + steps[i]
        lw_prop = log_weight(prop)
        if lw_prop - lw > log_us[i]:
            x = prop
            lw = lw_prop
            accepted += 1
        if i >= burn_in:
            values[i - burn_in] = observable(x)
    acc = accepted / total
    n_batches = 32
    usable = (n_samples // n_batches) * n_batches
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(values.mean())
    std_error = float(batches.std(ddof=1) / math.sqrt(n_batches))
    return McEstimate(
        mean=mean,
        std_error=std_error,
        samples=n_samples,
        seed=seed,
        acceptance_rate=acc,
        tuning_flagged=not (0.1 <= acc <= 0.9),
    )
