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
    "SeriesTruncation",
    "McEstimate",
    "IntegrandError",
    "integrate_finite",
    "integrate_semi_infinite",
    "diagonalize_truncated",
    "diagonalize_converged",
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


@dataclass(frozen=True)
class SeriesTruncation:
    n_max: int
    i_max: int = 0
    j_max: int = 0


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


def _gk15(f: Callable[[float], float], lo: float, hi: float,
          transform: str | None = None, a: float = 0.0) -> tuple[float, float]:
    """One Gauss-Kronrod panel on [lo, hi]; returns (K15 value, error estimate).

    With a ``transform`` the panel lies in (0, 1) and f is integrated over
    [a, inf) through that map, applied here at each node: ``rational`` is
    y = a + t/w with Jacobian 1/w^2, ``exp`` is y = a - ln w with
    Jacobian 1/w, where w = 1 - t.  The nodes are written out (no loop, no
    wrapper call per node): the centre, then the seven -/+ pairs from the
    outermost in, and K15 and G7 accumulate in that order.  NaN is looked
    for once per panel, in the K15 sum.  A node at t = 1, where y = inf,
    raises a ValueError that names the map and the panel.  Written out
    because a loop over the nodes with the same maps and float order made
    the classical sweep about 1.36x slower.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    if transform is None:
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
            if transform == "rational":
                # y = a + t/w with dy = dt/w^2
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
            else:
                # y = a - ln w with dy = dt/w
                log = math.log
                fc = f(a - log(w := 1.0 - mid)) / w
                l0 = f(a - log(w := 1.0 - (mid - d0))) / w
                r0 = f(a - log(w := 1.0 - (mid + d0))) / w
                l1 = f(a - log(w := 1.0 - (mid - d1))) / w
                r1 = f(a - log(w := 1.0 - (mid + d1))) / w
                l2 = f(a - log(w := 1.0 - (mid - d2))) / w
                r2 = f(a - log(w := 1.0 - (mid + d2))) / w
                l3 = f(a - log(w := 1.0 - (mid - d3))) / w
                r3 = f(a - log(w := 1.0 - (mid + d3))) / w
                l4 = f(a - log(w := 1.0 - (mid - d4))) / w
                r4 = f(a - log(w := 1.0 - (mid + d4))) / w
                l5 = f(a - log(w := 1.0 - (mid - d5))) / w
                r5 = f(a - log(w := 1.0 - (mid + d5))) / w
                l6 = f(a - log(w := 1.0 - (mid - d6))) / w
                r6 = f(a - log(w := 1.0 - (mid + d6))) / w
        except (ValueError, ZeroDivisionError) as exc:
            # at a node t = 1 the map itself fails, in this frame: ln 0 or
            # t/0.  Anything raised inside f, or with no node at t = 1,
            # passes through unchanged
            if exc.__traceback__.tb_next is not None or mid + d0 < 1.0:
                raise
            raise ValueError(
                f"the {transform} map of [{a!r}, inf) put a node at t = 1, "
                f"where y = inf, in the panel [{lo!r}, {hi!r}]"
            ) from exc
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    kron = (k7 * fc + k0 * (l0 + r0) + k1 * s1 + k2 * (l2 + r2) + k3 * s3
            + k4 * (l4 + r4) + k5 * s5 + k6 * (l6 + r6))
    gauss = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    if kron != kron:
        # a NaN node poisons the sum; name the first one (an inf - inf
        # cancellation has no NaN node and returns the NaN estimate)
        nodes = (mid, mid - d0, mid + d0, mid - d1, mid + d1, mid - d2, mid + d2,
                 mid - d3, mid + d3, mid - d4, mid + d4, mid - d5, mid + d5,
                 mid - d6, mid + d6)
        fx = (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6)
        for x, v in zip(nodes, fx):
            if v != v:
                raise IntegrandError(f"integrand returned NaN at {x!r}")
    return kron * half, abs(kron - gauss) * half


def _adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float,
    abs_tol: float,
    max_evals: int,
    transform: str | None = None,
    a: float = 0.0,
) -> QuadratureResult:
    """Adaptive bisection of [lo, hi] with _gk15 panels: split the panel
    with the largest error estimate until the budget, the tolerance or
    float resolution stops it, then re-sum the panels in sorted order."""
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    val, err = _gk15(f, lo, hi, transform, a)
    heap: list[tuple[float, float, float, float, float]] = [(-err, lo, hi, val, err)]
    total, total_err = val, err
    evals = 15
    while total_err > max(abs_tol, rel_tol * abs(total)) and evals + 30 <= max_evals:
        neg, p_lo, p_hi, v, e = heapq.heappop(heap)
        midpoint = 0.5 * (p_lo + p_hi)
        if midpoint == p_lo or midpoint == p_hi:
            # interval at float resolution; keep its estimate
            heapq.heappush(heap, (0.0, p_lo, p_hi, v, e))
            break
        v1, e1 = _gk15(f, p_lo, midpoint, transform, a)
        v2, e2 = _gk15(f, midpoint, p_hi, transform, a)
        evals += 30
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, p_lo, midpoint, v1, e1))
        heapq.heappush(heap, (-e2, midpoint, p_hi, v2, e2))
    # re-sum in a fixed order for reproducibility and to refresh the error
    panels = sorted((p_lo, p_hi, v, e) for _, p_lo, p_hi, v, e in heap)
    total = math.fsum(p[2] for p in panels)
    total_err = math.fsum(p[3] for p in panels)
    converged = total_err <= max(abs_tol, rel_tol * abs(total))
    return QuadratureResult(total, total_err, evals, converged)


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-300,
    max_evals: int = 200_000,
) -> QuadratureResult:
    """Adaptive bisection with Gauss-Kronrod panels on [a, b]."""
    return _adaptive(f, a, b, rel_tol, abs_tol, max_evals)


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
    y = a + t/(1-t), ``exp`` uses y = a - ln(1-t), which stops at y = a + 36.7,
    where t rounds to 1.  Both maps are in units of y: an integrand of
    another width, or with an edge at a, is integrated over a coordinate
    its caller chooses (y = y0 + L s, with the Jacobian L in the integrand).
    The two maps must agree within tolerances (transform invariance).
    """
    if transform not in ("rational", "exp"):
        raise ValueError(f"unknown transform {transform!r}")
    return _adaptive(f, 0.0, 1.0, rel_tol, abs_tol, max_evals, transform, a)


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


def diagonalize_converged(
    build: Callable[[int], np.ndarray],
    k: int,
    n_start: int = 200,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Double the basis, up to 2000 states, until the k lowest eigenvalues
    drift by at most 1e-8 relative.

    Returns (eigenvalues, per-eigenvalue converged flags, basis size used).
    """
    import numpy as np

    drift_tol, n_cap = 1e-8, 2000
    n = n_start
    vals = diagonalize_truncated(build(n), k)
    while 2 * n <= n_cap:
        n *= 2
        new = diagonalize_truncated(build(n), k)
        drift = np.abs(new - vals) / np.maximum(np.abs(new), 1e-300)
        vals = new
        if np.all(drift <= drift_tol):
            return vals, np.ones(k, dtype=bool), n
    new = diagonalize_truncated(build(min(2 * n, n_cap)), k) if n < n_cap else vals
    drift = np.abs(new - vals) / np.maximum(np.abs(new), 1e-300)
    return new, drift <= drift_tol, min(2 * n, n_cap)


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
