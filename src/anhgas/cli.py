"""Command-line surface: config ingestion, temperature sweeps, CSV/JSON
emission, and the literal-vs-oracle verification matrix.

Output determinism is part of the contract: grid points are computed in
a thread pool but written strictly in input order, floats are serialized
with 17 significant digits, and a fixed seed pins the Monte Carlo rows,
so reruns and thread-count changes are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import classical_gas as cg
from . import quantum_gas as qg
from . import specfun as sf
from .oracles import SeriesTruncation, integrate_semi_infinite, metropolis_expectation
from .params import FormalVolumes, OscillatorParams, ThermalState, UnitSystem
from .reports import ComparisonReport, Status, compare

THREADS_ENV = "ANHGAS_THREADS"

CSV_HEADER = "T,quantity,literal,oracle,rel_dev,status"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULT_OPTIONS: dict = {
    "cutoff_convention": "y_star",
    "g1_includes_y": False,
    "perturbation_order": "both",
    "n_levels": 6,
    "series_n_max": 50,
    "series_i_max": 3,
    "series_j_max": 3,
    "rel_tol": 1e-9,
    "seed": 20080,
    "spectral_samples": 48,
    "massive_gas_mass": 1.0,
}


@dataclass
class RunConfig:
    """Serializable run description; round-trips losslessly through JSON."""

    unit_system: UnitSystem = field(default_factory=UnitSystem)
    oscillator: OscillatorParams = field(
        default_factory=lambda: OscillatorParams(m=1.0, omega=1.0, lam=1.0, mu=0.0)
    )
    thermal_grid: list[float] = field(default_factory=lambda: [1.0])
    options: dict = field(default_factory=lambda: dict(_DEFAULT_OPTIONS))

    def to_dict(self) -> dict:
        return {
            "unit_system": dataclasses.asdict(self.unit_system),
            "oscillator": dataclasses.asdict(self.oscillator),
            "thermal_grid": list(self.thermal_grid),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {"unit_system", "oscillator", "thermal_grid", "options"}
        for key in raw:
            if key not in known:
                raise ValueError(f"unknown config key: {key}")
        opts = dict(_DEFAULT_OPTIONS)
        for key, val in raw.get("options", {}).items():
            if key not in _DEFAULT_OPTIONS:
                raise ValueError(f"unknown config key: options.{key}")
            opts[key] = val
        if opts["cutoff_convention"] not in ("y_star", "kappa_literal"):
            raise ValueError("options.cutoff_convention: must be 'y_star' or "
                             f"'kappa_literal', got {opts['cutoff_convention']!r}")
        mass = opts["massive_gas_mass"]
        if not (isinstance(mass, (int, float)) and mass > 0.0):
            raise ValueError(f"options.massive_gas_mass: must be a number > 0, got {mass!r}")
        try:
            units = UnitSystem(**raw.get("unit_system", {}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"unit_system: {exc}") from exc
        osc_raw = {"m": 1.0, "omega": 1.0, "lam": 1.0, "mu": 0.0}
        osc_raw.update(raw.get("oscillator", {}))
        try:
            osc = OscillatorParams(**osc_raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"oscillator: {exc}") from exc
        grid = [float(t) for t in raw.get("thermal_grid", [1.0])]
        if not grid:
            raise ValueError("thermal_grid: must contain at least one temperature")
        return cls(unit_system=units, oscillator=osc, thermal_grid=grid, options=opts)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get(THREADS_ENV)
    return max(1, int(env)) if env else 1


def _ordered_parallel(fn: Callable, items: Iterable, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_csv(path: Path, rows: list[tuple]) -> None:
    lines = [CSV_HEADER]
    for t, name, literal, oracle, rel, status in rows:
        lit = _fmt(literal) if literal is not None else ""
        ora = _fmt(oracle) if oracle is not None else ""
        rl = _fmt(rel) if rel is not None else ""
        lines.append(f"{_fmt(t)},{name},{lit},{ora},{rl},{status}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_reports_json(path: Path, reports: list[ComparisonReport]) -> None:
    payload = [r.to_dict() for r in reports]
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n",
        encoding="utf-8", newline="\n",
    )


def _exit_code(statuses: Iterable[str]) -> int:
    codes = set(statuses)
    if Status.ERROR.value in codes:
        return 1
    if Status.FLAGGED.value in codes:
        return 2
    return 0


# ---------------------------------------------------------------------------
# classical sweep
# ---------------------------------------------------------------------------

def _classical_point(cfg: RunConfig, temperature: float):
    u = cfg.unit_system
    p = cfg.oscillator
    vol = FormalVolumes()
    t = ThermalState.from_temperature(temperature, u)
    rows: list[tuple] = []
    reports: list[ComparisonReport] = []

    def add(rep: ComparisonReport):
        reports.append(rep)
        rows.append((temperature, rep.quantity_name, rep.literal, rep.oracle,
                     rep.rel_dev, rep.status.value))

    add(cg.harmonic_partition_z1_report(p, t, u, vol))
    add(cg.relativistic_harmonic_partition_z2(p, t, u, vol))
    if p.lam > 0.0:
        x = cg.coupling_x(p, t, u)
        z = cg.relativistic_z(p, t, u)
        f_literal = cg.f_closed_form(x)
        zxi_literal = 4.0 * math.pi * (t.kt(u) / p.lam) ** 0.75 * f_literal
        pos = cg.position_radial_integral(p, t, u)
        add(compare("vibrational_partition", zxi_literal, 4.0 * math.pi * pos.value, 1e-6,
                    "printed closed form vs radial quadrature", {"T": temperature},
                    () if pos.converged else ("int r^2 e^{-beta V(r)} dr",)))
        f_x = cg.f_oracle(x)
        add(compare("f_function", f_literal, f_x.value, 1e-6,
                    "printed quartic-Gaussian closed form vs defining integral",
                    {"x": x},
                    () if f_x.converged else ("F(x) = int u^2 e^{-4x u^2 - u^4} du",)))
        g_q = cg.sinh2_cosh_integral(z)
        add(compare("g_function", cg.g_function(z), g_q.value * z**3, 1e-6,
                    "printed Bessel combination vs its defining integral", {"z": z},
                    () if g_q.converged else ("int sinh^2 s cosh s e^{-z cosh s} ds",)))
        add(cg.average_energy_classical(p, t, u, f_x=f_x))
    else:
        for name in ("vibrational_partition", "f_function", "g_function",
                     "average_energy_classical"):
            rows.append((temperature, name, None, None, None, "SKIPPED"))
    return rows, reports


def cmd_classical(cfg: RunConfig, out_dir: Path, threads: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _ordered_parallel(lambda T: _classical_point(cfg, T),
                                cfg.thermal_grid, threads)
    rows = [row for point_rows, _ in results for row in point_rows]
    reports = [r for _, point_reports in results for r in point_reports]
    _write_csv(out_dir / "classical.csv", rows)
    _write_reports_json(out_dir / "classical_reports.json", reports)
    return _exit_code(r[5] for r in rows)


# ---------------------------------------------------------------------------
# quantum sweep
# ---------------------------------------------------------------------------

def _quantum_point(cfg: RunConfig, temperature: float):
    u = cfg.unit_system
    p = cfg.oscillator
    opts = cfg.options
    t = ThermalState.from_temperature(temperature, u)
    rows: list[tuple] = []
    reports: list[ComparisonReport] = []
    spectral: list[tuple] = []

    def add(rep: ComparisonReport, name: str | None = None):
        reports.append(rep)
        rows.append((temperature, name or rep.quantity_name, rep.literal,
                     rep.oracle, rep.rel_dev, rep.status.value))

    def add_error(name: str, exc: ValueError):
        cause = ("positivity window failure" if isinstance(exc, qg.PositivityWindowError)
                 else "evaluation failure")
        reports.append(ComparisonReport(
            name, math.nan, math.nan, math.nan, math.nan, Status.ERROR,
            f"{cause}: {exc}", 0.0, {"T": temperature}))
        rows.append((temperature, name, None, None, None, Status.ERROR.value))

    g1y = bool(opts["g1_includes_y"])
    integrals: dict = {}    # shared by the two conventions' reports
    for convention in ("y_star", "kappa_literal"):
        name = f"energy_density_massless[{convention}]"
        try:
            add(qg.energy_density_massless(
                p, t, u, convention, g1y, float(opts["rel_tol"]), integrals=integrals,
            ), name)
        except ValueError as exc:
            add_error(name, exc)
    try:
        add(qg.energy_density_massive(
            p, float(opts["massive_gas_mass"]), t, u,
            cutoff_convention=str(opts["cutoff_convention"]), g1_includes_y=g1y,
            rel_tol=float(opts["rel_tol"]),
        ))
    except ValueError as exc:
        add_error("energy_density_massive", exc)
    if p.lam > 0.0 or p.mu == 0.0:
        d = qg.dimensionless_couplings(p, t, u, g1y)
        if d.a_B <= 0.1:
            trunc = SeriesTruncation(
                n_max=int(opts["series_n_max"]),
                i_max=int(opts["series_i_max"]),
                j_max=int(opts["series_j_max"]),
            )
            add(qg.series_energy_density(
                p, t, u, trunc=trunc,
                cutoff_convention=str(opts["cutoff_convention"]),
                g1_includes_y=g1y, rel_tol=float(opts["rel_tol"]),
            ))
        # spectral-density samples for plotting: (y, integrand)
        n_samp = int(opts["spectral_samples"])
        y_lo = max(d.y_star, 1e-3)
        for k in range(n_samp):
            y = y_lo + (20.0 - y_lo) * (k + 0.5) / n_samp
            spectral.append((temperature, y, qg.massless_integrand(y, d, d.y_star)))
    return rows, reports, spectral


def cmd_quantum(cfg: RunConfig, out_dir: Path, threads: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    u = cfg.unit_system
    p = cfg.oscillator
    opts = cfg.options

    # spectrum table is temperature-independent
    lines = ["n,literal,generic_rspt,abs_dev"]
    statuses = []
    for n in range(int(opts["n_levels"])):
        e0 = u.hbar * p.omega * (n + 0.5)
        lit = e0 + qg.literal_shift(n, p, str(opts["perturbation_order"]), u)
        gen = e0 + qg.rspt_shift(n, p, str(opts["perturbation_order"]), u)
        lines.append(f"{n},{_fmt(lit)},{_fmt(gen)},{_fmt(abs(lit - gen))}")
    (out_dir / "spectrum.csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8", newline="\n")

    results = _ordered_parallel(lambda T: _quantum_point(cfg, T),
                                cfg.thermal_grid, threads)
    rows = [row for r, _, _ in results for row in r]
    reports = [rep for _, rs, _ in results for rep in rs]
    spectral = [s for _, _, sp in results for s in sp]
    _write_csv(out_dir / "quantum.csv", rows)
    _write_reports_json(out_dir / "quantum_reports.json", reports)
    sp_lines = ["T,y,integrand"]
    for t_, y_, v_ in spectral:
        sp_lines.append(f"{_fmt(t_)},{_fmt(y_)},{_fmt(v_)}")
    (out_dir / "spectral_density.csv").write_text("\n".join(sp_lines) + "\n",
                                                  encoding="utf-8", newline="\n")
    return _exit_code(r[5] for r in rows)


# ---------------------------------------------------------------------------
# verification matrix
# ---------------------------------------------------------------------------

def _verify_rows(cfg: RunConfig) -> list[tuple[str, str, ComparisonReport]]:
    """The fixed matrix of desk-scale identity checks, grouped by section."""
    u = cfg.unit_system
    seed = int(cfg.options["seed"])
    rows: list[tuple[str, str, ComparisonReport]] = []

    def add(section: str, name: str, rep: ComparisonReport):
        rows.append((section, name, rep))

    # --- specfun ----------------------------------------------------------
    half = sf.bessel_k(0.5, 1.0).value
    add("specfun", "half-integer closed form",
        compare("bessel_k(1/2,1)", half, math.sqrt(math.pi / 2.0) * math.exp(-1.0),
                1e-12, "half-integer order reduces to an elementary function"))
    add("specfun", "three-term recurrence",
        compare("bessel_k(9/4,3) via recurrence",
                sf.bessel_k(0.25, 3.0).value
                + 2.0 * 1.25 / 3.0 * sf.bessel_k(1.25, 3.0).value,
                sf.bessel_k(2.25, 3.0).value, 1e-9,
                "adjacent-order recurrence consistency"))
    add("specfun", "upper incomplete gamma",
        compare("Gamma(4,1)", sf.upper_incomplete_gamma(4.0, 1.0).value,
                16.0 / math.e, 1e-12, "finite-sum closed form"))
    w = sf.whittaker_w(1.5, 2.0, 1.0).value
    add("specfun", "Whittaker-gamma identity",
        compare("Gamma(4,1) via W", math.exp(-0.5) * w, 16.0 / math.e, 1e-9,
                "incomplete gamma expressed through Whittaker W"))

    # --- oracles ----------------------------------------------------------
    q = integrate_semi_infinite(lambda y: y**3 * math.exp(-y) if y < 700 else 0.0, 0.0)
    add("oracles", "gamma integral",
        compare("int y^3 e^-y", q.value, 6.0, 1e-10, "factorial integral"))
    q = integrate_semi_infinite(
        lambda y: y**3 / math.expm1(y) if 0.0 < y < 700.0 else 0.0, 0.0)
    add("oracles", "zeta integral",
        compare("int y^3/(e^y-1)", q.value, math.pi**4 / 15.0, 1e-10,
                "Bose integral in closed form"))
    mc = metropolis_expectation(lambda x: -0.5 * x * x, lambda x: x * x,
                                1.2, 20000, 2000, seed=seed)
    add("oracles", "Metropolis Gaussian variance",
        compare("<x^2> under exp(-x^2/2)", mc.mean, 1.0,
                3.0 * mc.std_error, "Gaussian second moment",
                {"std_error": mc.std_error, "acceptance": mc.acceptance_rate}))

    # --- classical --------------------------------------------------------
    for z in (0.5, 1.0, 2.0, 5.0):
        qv = cg.sinh2_integral(z).value
        add("classical", f"sinh-squared identity z={z}",
            compare(f"int sinh^2 e^-zcosh, z={z}", qv,
                    sf.bessel_k(1.0, z).value / z, 1e-8,
                    "kinetic radial integral reduces to K_1(z)/z"))
        qc = cg.sinh2_cosh_integral(z).value
        add("classical", f"energy-weighted corollary z={z}",
            compare(f"int sinh^2 cosh e^-zcosh, z={z}", qc,
                    cg.g_function_corrected(z) / z**3, 1e-8,
                    "one z-derivative of the kinetic radial integral"))
    add("classical", "quartic limit of F",
        compare("F(0)", cg.f_oracle(0.0).value, math.gamma(0.75) / 4.0, 1e-9,
                "pure-quartic Gaussian integral"))
    add("classical", "closed form for F vs oracle",
        compare("f_closed_form(1)", cg.f_closed_form(1.0), cg.f_oracle(1.0).value,
                1e-6, "printed closed form against the defining integral"))
    p_nat = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
    t_nat = ThermalState.from_temperature(1.0, u)
    vol = FormalVolumes()
    add("classical", "harmonic partition vs phase-space quadrature",
        cg.harmonic_partition_z1_report(p_nat, t_nat, u, vol))
    add("classical", "relativistic harmonic partition",
        cg.relativistic_harmonic_partition_z2(p_nat, t_nat, u, vol))
    add("classical", "anharmonic partition dual route",
        cg.anharmonic_relativistic_partition(p_nat, t_nat, u, vol))
    add("classical", "average energy dual route",
        cg.average_energy_classical(p_nat, t_nat, u))

    # --- quantum ----------------------------------------------------------
    p_q = OscillatorParams(m=1.0, omega=1.0, lam=1e-3)
    add("quantum", "quartic first-order shift n=0",
        qg.perturbative_shift(0, p_q, "first", u))
    p_c = OscillatorParams(m=1.0, omega=1.0, mu=1e-2)
    add("quantum", "cubic second-order shift n=0",
        qg.perturbative_shift(0, p_c, "second", u))
    d_test = qg.DimensionlessCouplings.from_values(-1.0, 3.0)
    add("quantum", "positivity cutoff root",
        compare("y_star for (-1, 3)", d_test.y_star, 1.0, 1e-10,
                "closed-form cutoff vs bracketed root"))
    t1 = ThermalState.from_temperature(1.0, u)
    p_free = OscillatorParams(m=1.0, omega=1.0)
    bb = qg.energy_density_massless(p_free, t1, u)
    add("quantum", "blackbody limit",
        compare("energy density at zero couplings", bb.literal,
                qg.blackbody_energy_density(t1, u), 1e-8,
                "uncoupled mode sum collapses to the blackbody integral"))
    t2 = ThermalState.from_temperature(2.0, u)
    add("quantum", "T^4 scaling",
        compare("density(2T)/density(T)",
                qg.energy_density_massless(p_free, t2, u).literal
                / bb.literal, 16.0, 1e-10, "quartic temperature scaling"))
    p_s = OscillatorParams(m=1.0, omega=1.0, lam=4e-4 / 3.0,
                           mu=4.0 * math.sqrt(0.4e-4))
    add("quantum", "series vs quadrature",
        qg.series_energy_density(p_s, t1, u))
    return rows


def cmd_verify(cfg: RunConfig, out_dir: Path, only: str | None = None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _verify_rows(cfg)
    if only:
        rows = [r for r in rows if r[0] == only]
        if not rows:
            print(f"no verification rows in section {only!r}", file=sys.stderr)
            return 1
    lines = []
    reports = []
    for section, name, rep in rows:
        mark = rep.status.value
        lines.append(f"[{mark}] {section}: {name} rel_dev={_fmt(rep.rel_dev)}")
        reports.append(rep)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    (out_dir / "verify_matrix.txt").write_text(text, encoding="utf-8", newline="\n")
    _write_reports_json(out_dir / "verify_reports.json", reports)
    return _exit_code(rep.status.value for _, _, rep in rows)


# ---------------------------------------------------------------------------
# specfun-eval (debugging subcommand)
# ---------------------------------------------------------------------------

_SPECFUN_TABLE = {
    "bessel_k": (sf.bessel_k, 2),
    "bessel_k_derivative": (sf.bessel_k_derivative, 2),
    "log_bessel_k": (sf.log_bessel_k, 2),
    "whittaker_w": (sf.whittaker_w, 3),
    "upper_incomplete_gamma": (sf.upper_incomplete_gamma, 2),
    "log_upper_incomplete_gamma": (sf.log_upper_incomplete_gamma, 2),
}


def cmd_specfun_eval(func: str, args: list[float]) -> int:
    if func not in _SPECFUN_TABLE:
        print(f"unknown function {func!r}; choose from {sorted(_SPECFUN_TABLE)}",
              file=sys.stderr)
        return 1
    fn, arity = _SPECFUN_TABLE[func]
    if len(args) != arity:
        print(f"{func} takes {arity} arguments, got {len(args)}", file=sys.stderr)
        return 1
    res = fn(*args)
    print(json.dumps({
        "function": func,
        "args": args,
        "value": res.value,
        "abs_error_estimate": res.abs_error_estimate,
        "method": res.method,
    }, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anhgas",
        description="Anharmonic-gas thermodynamics with literal-vs-oracle reporting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classical", "quantum", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--print-config", action="store_true")
        if name == "verify":
            sp.add_argument("--only", type=str, default=None,
                            choices=["specfun", "oracles", "classical", "quantum"])
        else:
            sp.add_argument("--threads", type=int, default=None)
    se = sub.add_parser("specfun-eval")
    se.add_argument("function", type=str)
    se.add_argument("values", type=float, nargs="*")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "specfun-eval":
        return cmd_specfun_eval(args.function, list(args.values))
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.options["seed"] = args.seed
        if args.print_config:
            sys.stdout.write(cfg.dumps())
            return 0
        out_dir = Path(args.out)
        if args.command == "classical":
            return cmd_classical(cfg, out_dir, _thread_count(args))
        if args.command == "quantum":
            return cmd_quantum(cfg, out_dir, _thread_count(args))
        return cmd_verify(cfg, out_dir, only=args.only)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config or input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
