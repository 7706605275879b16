"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure and respecting its runtime budget.

FLAGGED comparison outcomes are acceptable where noted (they document
printed-formula deviations); silent disagreement is not.
"""

import math
import time
from unittest import mock

import pytest

from anhgas import classical_gas as cg
from anhgas import quantum_gas as qg
from anhgas.cli import main as cli_main
from anhgas.oracles import diagonalize_truncated, integrate_semi_infinite
from anhgas.params import OscillatorParams, ThermalState
from anhgas.reports import Status
from anhgas import specfun as sf


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def done(self, label, detail=""):
        dt = time.perf_counter() - self.t0
        assert dt < self.limit, f"{label}: {dt:.2f}s exceeded {self.limit}s budget"
        print(f"\nACCEPTANCE {label}: PASS ({dt:.2f}s) {detail}")


def t_of(temperature):
    return ThermalState.from_temperature(temperature)


def test_criterion_1_blackbody_reduction():
    budget = Budget(1.0)
    p = OscillatorParams(m=1.0, omega=1.0, lam=0.0, mu=0.0)
    worst = 0.0
    for temperature in (0.5, 1.0, 2.0):
        t = t_of(temperature)
        rep = qg.energy_density_massless(p, t)
        want = math.pi**2 / 15.0 * t.T ** 4
        rel = abs(rep.literal - want) / want
        worst = max(worst, rel)
        assert rel <= 1e-8
    budget.done("1 blackbody-reduction", f"worst rel dev {worst:.2e}")


def test_criterion_2_kinetic_radial_identity():
    budget = Budget(1.0)
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 5.0):
        def sinh2(s, z=z):
            if s <= 0.0 or s > 350.0:
                return 0.0
            e = 2.0 * cg._log_sinh(s) - z * math.cosh(s)
            return math.exp(e) if e > -745.0 else 0.0

        quad = integrate_semi_infinite(sinh2, 0.0, rel_tol=1e-11).value
        want = sf.bessel_k(1.0, z).value / z
        rel = abs(quad - want) / want
        assert rel <= 1e-8

        def sinh2cosh(s, z=z):
            if s <= 0.0 or s > 350.0:
                return 0.0
            e = 2.0 * cg._log_sinh(s) + cg._log_cosh(s) - z * math.cosh(s)
            return math.exp(e) if e > -745.0 else 0.0

        quad_c = integrate_semi_infinite(sinh2cosh, 0.0, rel_tol=1e-11).value
        corr = cg.g_function_corrected(z) / z**3
        rel_c = abs(quad_c - corr) / corr
        assert rel_c <= 1e-8
        worst = max(worst, rel, rel_c)
    budget.done("2 kinetic-radial-identity", f"worst rel dev {worst:.2e}")


def test_criterion_3_vibrational_closed_form():
    budget = Budget(5.0)
    # representative independence of the operational definition
    t = t_of(1.0)
    x = 0.7
    values = []
    for (m, omega) in ((1.0, 1.0), (4.0, 0.5), (0.3, 2.0)):
        lam = m * m * omega**4 / (64.0 * x * x)
        # F through this (m, w, lam, T): the radial quadrature over (T/lam)^(3/4)
        values.append(cg.position_radial_integral(
            OscillatorParams(m=m, omega=omega, lam=lam), t).value / (t.T / lam) ** 0.75)
    assert max(values) - min(values) <= 1e-9 * min(values)

    assert cg.f_oracle(0.0).value == pytest.approx(math.gamma(0.75) / 4.0, rel=1e-9)

    statuses = {}
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        closed, oracle = cg.f_closed_form(x), cg.f_oracle(x).value
        rel = abs(closed - oracle) / oracle
        statuses[x] = "PASS" if rel <= 1e-6 else "FLAGGED"
        # FLAGGED is acceptable; silence is not: deviation must be recorded
        assert math.isfinite(rel)
        if statuses[x] == "FLAGGED":
            assert closed / oracle == pytest.approx(4.0, rel=1e-8)
    assert set(statuses.values()) == {"FLAGGED"}
    budget.done("3 vibrational-closed-form",
                f"statuses {sorted(statuses.items())}")


def test_criterion_4_average_energy_dual_path():
    budget = Budget(30.0)
    points = [
        OscillatorParams(m=1.0, omega=1.0, lam=1.0),
        OscillatorParams(m=1.0, omega=1.0, lam=0.5),
        OscillatorParams(m=1.0, omega=2.0, lam=1.0),
        OscillatorParams(m=2.0, omega=1.0, lam=1.0),
        OscillatorParams(m=1.0, omega=1.5, lam=2.0),
    ]
    outcomes = []
    for p in points:
        rep = cg.average_energy_classical(p, t_of(1.0))
        assert rep.status in (Status.PASS, Status.FLAGGED)
        assert math.isfinite(rep.rel_dev)           # deviation recorded
        outcomes.append(rep.status.value)

    p = points[0]
    mc_mean, mc_err, _ = cg.average_energy_metropolis(
        p, t_of(1.0), n_samples=100_000, burn_in=5_000, seed=2008)
    want = cg._average_energy_moments(p, t_of(1.0))[0]
    assert abs(mc_mean - want) <= 3.0 * mc_err
    budget.done("4 average-energy-dual-path",
                f"statuses {outcomes}, MC dev {abs(mc_mean - want):.4f} "
                f"<= 3 x {mc_err:.4f}")


def test_criterion_5_quartic_shift():
    budget = Budget(10.0)
    p = OscillatorParams(m=1.0, omega=1.0, lam=1e-3)
    for n in range(6):
        lit = qg.literal_shift(n, p, "first")
        gen = qg.rspt_shift(n, p, "first")
        assert gen == pytest.approx(lit, rel=1e-13)

    resid = {}
    for lam_tilde in (1e-3, 5e-4):
        pl = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * lam_tilde)
        evals = diagonalize_truncated(qg.oscillator_hamiltonian(220, pl), 4)
        resid[lam_tilde] = [
            abs(evals[n] - ((n + 0.5) + qg.rspt_shift(n, pl, "both")))
            for n in range(4)
        ]
    ratios = [resid[1e-3][n] / resid[5e-4][n] for n in range(4)]
    for ratio in ratios:
        assert 8.0 * 0.8 <= ratio <= 8.0 * 1.2
    budget.done("5 quartic-shift", f"halving ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_6_cubic_shift_comparison():
    budget = Budget(10.0)
    ratios = []
    for n in range(4):
        res = {}
        for mu_tilde in (1e-2, 5e-3):
            p = OscillatorParams(m=1.0, omega=1.0, mu=mu_tilde)
            evals = diagonalize_truncated(qg.oscillator_hamiltonian(260, p), 6)
            e_pt = (n + 0.5) + qg.rspt_shift(n, p, "both")
            res[mu_tilde] = abs(evals[n] - e_pt)
        ratio = res[1e-2] / res[5e-3]
        ratios.append(ratio)
        assert 16.0 * 0.75 <= ratio <= 16.0 * 1.25

    # the printed-coefficient deviation must be reported, never suppressed
    rep = qg.perturbative_shift(0, OscillatorParams(m=1.0, omega=1.0, mu=1e-2),
                                "second")
    assert rep.status is Status.FLAGGED
    assert rep.rel_dev == pytest.approx(abs(5 / 16 - 11 / 8) / (11 / 8), rel=1e-10)
    budget.done("6 cubic-shift-comparison",
                f"halving ratios {[f'{r:.2f}' for r in ratios]}, "
                f"printed-vs-engine rel dev {rep.rel_dev:.4f} (FLAGGED)")


def test_criterion_7_positivity_cutoff():
    budget = Budget(1.0)
    d = qg.DimensionlessCouplings.from_values(-1.0, 3.0)
    assert d.kappa_sq == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert abs(d.y_star - 1.0) <= 1e-10
    for k in range(100):
        y = d.y_star * (k + 0.5) / 100.0
        assert qg.massless_integrand(y, d, d.y_star) == 0.0
    budget.done("7 positivity-cutoff", f"y_star {d.y_star!r}, 100 zeros below")


def test_criterion_8_series_term_identity():
    budget = Budget(10.0)
    d = qg.DimensionlessCouplings.from_values(-0.4e-3, 1e-3)
    y0 = 3.0 * d.kappa_sq
    worst = 0.0
    n_flagged = 0
    for n in range(1, 21):
        for i in range(3):
            for j in range(3):
                f_t, g_t = qg.whittaker_series_term(i, j, n, d, y0=y0)
                for decay, got in ((n, f_t), (n + 1, g_t)):
                    oracle = _term_tail_oracle(i, j, n, d, y0, decay)
                    rel = abs(got - oracle) / abs(oracle)
                    if rel > 1e-7:
                        n_flagged += 1    # tolerated as a recorded deviation
                    worst = max(worst, rel)
    assert n_flagged == 0
    assert sf.upper_incomplete_gamma(4.0, 1.0).value == pytest.approx(
        16.0 / math.e, rel=1e-12)
    budget.done("8 series-term-identity",
                f"worst rel dev {worst:.2e} over 378 tail integrals")


def _term_tail_oracle(i, j, n, d, y0, decay):
    p1, p2, p3 = qg._line_powers(i, j)
    coeffs = (d.a_A * (n * n + 6 * n), d.a_B * (2 * n * n + 2 * n), float(n))
    total = 0.0
    for c, power in zip(coeffs, (p1, p2, p3)):
        if c == 0.0:
            continue

        def f(y, power=power):
            if y <= y0:
                return 0.0
            e = power * math.log(y) - decay * y
            return math.exp(e) if e > -745.0 else 0.0

        total += c * integrate_semi_infinite(f, y0, rel_tol=1e-11).value
    return total


def test_criterion_9_series_vs_quadrature():
    budget = Budget(60.0)
    details = []
    for a_b in (1e-3, 1e-4):
        # matching cubic coupling through a fixed infrared ratio kappa^2=0.4
        p = OscillatorParams(m=1.0, omega=1.0, lam=4.0 * a_b / 3.0,
                             mu=4.0 * math.sqrt(0.4 * a_b))
        rep = qg.series_energy_density(p, t_of(1.0))
        assert rep.rel_dev <= 0.01
        # the box (n, i, j) <= (50, 3, 3) doubled
        with mock.patch.multiple(qg, _N_MAX=100, _I_MAX=6, _J_MAX=6):
            rep2 = qg.series_energy_density(p, t_of(1.0))
        moved = abs(rep2.literal - rep.literal)
        assert 0.0 < moved <= rep.options_used["tail_estimate"]
        details.append(f"a_B={a_b}: rel {rep.rel_dev:.2e}, "
                       f"box move {moved:.2e} <= tail {rep.options_used['tail_estimate']:.2e}")
    budget.done("9 series-vs-quadrature", "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    budget = Budget(120.0)
    args = ["verify", "--seed", "20080"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 2
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 2
    for name in ("verify_matrix.txt", "verify_reports.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    import json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
        "thermal_grid": [0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    }))
    for cmd in ("classical", "quantum"):
        cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / "t1"),
                  "--threads", "1"])
        cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / "t8"),
                  "--threads", "8"])
    for name in ("classical.csv", "classical_reports.json", "quantum.csv",
                 "spectral_density.csv", "quantum_reports.json", "spectrum.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t8" / name).read_bytes(), f"{name} differs across thread counts"
    budget.done("10 determinism", "verify reruns and 1-vs-8-thread sweeps byte-identical")
