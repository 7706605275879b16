"""Command-line surface: config ingestion, temperature sweeps, CSV/JSON
emission, and the literal-vs-oracle verification matrix.

Each sweep and verify row is a thunk run by one row runner, _row, which turns an
evaluation failure into an ERROR row. Grid points run one after another on one
thread, each in its own memo scope (anhgas.memo); verify runs its rows, or with
--only one section's, in one scope. Rows are written in input order, floats have
17 significant digits and a fixed seed pins the Monte Carlo row, so reruns are
byte-identical. The sweeps' --threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import classical_gas as cg
from . import quantum_gas as qg
from . import specfun as sf
from .memo import memo_scope, shared_value
from .oracles import IntegrandError, integrate_semi_infinite, metropolis_expectation
from .params import OscillatorParams, ThermalState
from .reports import ComparisonReport, Status, compare

CSV_HEADER = "T,quantity,literal,oracle,rel_dev,status"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULT_OPTIONS: dict = {
    "cutoff_convention": "y_star",
    "seed": 20080,
    "massive_gas_mass": 1.0,
}


def _positive_number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 < value <= sys.float_info.max:
        raise ValueError(f"{path}: must be a finite number > 0, got {value!r}")
    return float(value)


def _seed(value) -> int:
    # a JSON integer >= 0: not a bool, a float or a string
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"options.seed: must be an integer >= 0, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Serializable run description; round-trips losslessly through JSON."""

    oscillator: OscillatorParams = field(
        default_factory=lambda: OscillatorParams(m=1.0, omega=1.0, lam=1.0, mu=0.0)
    )
    thermal_grid: list[float] = field(default_factory=lambda: [1.0])
    options: dict = field(default_factory=lambda: dict(_DEFAULT_OPTIONS))

    def to_dict(self) -> dict:
        return {
            "oscillator": dataclasses.asdict(self.oscillator),
            "thermal_grid": list(self.thermal_grid),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("config: must be a JSON object")
        for key, val in raw.items():
            if key not in ("oscillator", "thermal_grid", "options"):
                raise ValueError(f"unknown config key: {key}")
            if key != "thermal_grid" and not isinstance(val, dict):
                raise ValueError(f"{key}: must be a JSON object, got {val!r}")
        opts = dict(_DEFAULT_OPTIONS)
        for key, val in raw.get("options", {}).items():
            if key not in _DEFAULT_OPTIONS:
                raise ValueError(f"unknown config key: options.{key}")
            opts[key] = val
        if opts["cutoff_convention"] not in ("y_star", "kappa_literal"):
            raise ValueError("options.cutoff_convention: must be 'y_star' or "
                             f"'kappa_literal', got {opts['cutoff_convention']!r}")
        _positive_number("options.massive_gas_mass", opts["massive_gas_mass"])
        _seed(opts["seed"])
        fields = {f.name for f in dataclasses.fields(OscillatorParams)}
        for name, val in raw.get("oscillator", {}).items():
            if name not in fields:
                raise ValueError(f"unknown config key: oscillator.{name}")
            if isinstance(val, bool) or not isinstance(val, (int, float)) \
                    or not -sys.float_info.max <= val <= sys.float_info.max:
                raise ValueError(f"oscillator.{name}: must be a finite number, got {val!r}")
        try:
            oscillator = dataclasses.replace(cls().oscillator, **raw.get("oscillator", {}))
        except ValueError as exc:
            raise ValueError(f"oscillator: {exc}") from exc
        grid = raw.get("thermal_grid", [1.0])
        if not (isinstance(grid, list) and grid):
            raise ValueError("thermal_grid: must be a non-empty list of temperatures, "
                             f"got {grid!r}")
        grid = [_positive_number(f"thermal_grid[{k}]", t) for k, t in enumerate(grid)]
        return cls(oscillator=oscillator, thermal_grid=grid, options=opts)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8", newline="\n")


def _field(x: float) -> str:
    # a CSV field: a non-finite value is left empty
    return _fmt(x) if math.isfinite(x) else ""


def _csv_line(t: float, name: str, rep: ComparisonReport) -> str:
    values = map(_field, (rep.literal, rep.oracle, rep.rel_dev))
    return ",".join((_fmt(t), name, *values, rep.status.value))


def _json_value(value):
    # strict JSON: a non-finite float, also one inside options_used, is null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


def _write_reports_json(path: Path, reports: list[ComparisonReport]) -> None:
    payload = [_json_value(r.to_dict()) for r in reports]
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_fmt) + "\n",
        encoding="utf-8", newline="\n",
    )


def _exit_code(reports: Iterable[ComparisonReport]) -> int:
    statuses = {r.status for r in reports}
    return 1 if Status.ERROR in statuses else 2 if Status.FLAGGED in statuses else 0


# ---------------------------------------------------------------------------
# the row runner, and sweeps: each grid point declares its rows as (name, thunk)
# ---------------------------------------------------------------------------

# what makes one row ERROR instead of ending the run
_ROW_FAILURES = (ValueError, ArithmeticError, IntegrandError)


def _row(options_used: dict, name: str,
         thunk: Callable[[], ComparisonReport] | str) -> ComparisonReport:
    """The report of one sweep or verify row: the thunk's, or an ERROR report that
    names the failure the thunk raised. A row declared with a reason in place of a
    thunk is SKIPPED; both kinds carry the caller's options_used."""
    status, provenance = Status.SKIPPED, thunk
    if callable(thunk):
        try:
            return thunk()
        except _ROW_FAILURES as exc:
            cause = ("positivity window failure" if isinstance(exc, qg.PositivityWindowError)
                     else "evaluation failure")
            status, provenance = Status.ERROR, f"{cause}: {exc}"
    nan = math.nan
    return ComparisonReport(name, nan, nan, nan, nan, status, provenance, 0.0, options_used)


def _sweep(cfg: RunConfig, point: Callable, out_dir: Path, stem: str) -> tuple[int, list]:
    """Run point(cfg, T), which returns its rows as (name, thunk) and its
    extra samples, in one memo scope per grid point. Write every row, in input
    order, to <stem>.csv and <stem>_reports.json; return the code and samples."""
    rows, samples = [], []
    for temperature in cfg.thermal_grid:
        with memo_scope():
            point_rows, point_samples = point(cfg, temperature)
            rows += [(temperature, name, _row({"T": temperature}, name, thunk))
                     for name, thunk in point_rows]
        samples += point_samples
    reports = [rep for _, _, rep in rows]
    _write_lines(out_dir / f"{stem}.csv", [CSV_HEADER, *(_csv_line(*row) for row in rows)])
    _write_reports_json(out_dir / f"{stem}_reports.json", reports)
    return _exit_code(reports), samples


def _classical_point(cfg: RunConfig, temperature: float):
    p = cfg.oscillator
    t = ThermalState.from_temperature(temperature)

    def vibrational():
        pos = cg.position_radial_integral(p, t)     # the average energy's norm
        f_literal = shared_value(cg.f_closed_form, cg.coupling_x(p, t))
        return compare("vibrational_partition",
                       4.0 * math.pi * (t.T / p.lam) ** 0.75 * f_literal,
                       4.0 * math.pi * pos.value, 1e-6,
                       "printed closed form vs radial quadrature", {"T": temperature},
                       {"int r^2 e^{-beta V(r)} dr": pos})

    def f_function():
        x = cg.coupling_x(p, t)
        f_q = cg.f_oracle(x)
        return compare("f_function", shared_value(cg.f_closed_form, x), f_q.value, 1e-6,
                       "printed quartic-Gaussian closed form vs defining integral",
                       {"x": x},
                       {"F(x) = int u^2 e^{-4x u^2 - u^4} du": f_q})

    def g_function():
        z = cg.relativistic_z(p, t)
        g_q = cg.kinetic_radial_integral(z, 1.0)
        return compare("g_function", cg.g_function(z), g_q.value * z**3, 1e-6,
                       "printed Bessel combination vs its defining integral", {"z": z},
                       {"int sinh^2 s cosh s e^{-z cosh s} ds": g_q})

    rows = [
        ("harmonic_partition_z1", lambda: cg.harmonic_partition_z1_report(p, t)),
        ("relativistic_harmonic_partition_z2",
         lambda: cg.relativistic_harmonic_partition_z2(p, t)),
        ("vibrational_partition", vibrational),
        ("f_function", f_function),
        ("g_function", g_function),
        ("average_energy_classical", lambda: cg.average_energy_classical(p, t)),
    ]
    if p.lam <= 0.0:
        # the last four rows need the quartic coupling
        rows[2:] = [(name, "needs a positive quartic coupling lam") for name, _ in rows[2:]]
    return rows, []


def cmd_classical(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    return _sweep(cfg, _classical_point, out_dir, "classical")[0]


def _quantum_point(cfg: RunConfig, temperature: float):
    p = cfg.oscillator
    t = ThermalState.from_temperature(temperature)
    cutoff = str(cfg.options["cutoff_convention"])
    mass = float(cfg.options["massive_gas_mass"])
    rows = [(f"energy_density_massless[{c}]",
             functools.partial(qg.energy_density_massless, p, t, c))
            for c in ("y_star", "kappa_literal")]
    rows.append(("energy_density_massive",
                 lambda: qg.energy_density_massive(p, mass, t, cutoff)))
    series = ("series_energy_density",
              lambda: qg.series_energy_density(p, t, cutoff_convention=cutoff))
    try:
        d = qg.dimensionless_couplings(p, t)
    except qg.PositivityWindowError:
        return rows, []
    except _ROW_FAILURES:
        # the series row cannot be placed; its own call reports the failure
        return rows + [series], []
    if d.a_B <= qg.SERIES_MAX_A_B:
        rows.append(series)
    # spectral-density samples for plotting, (T, y, integrand), on [y*, 20]
    y_lo = max(d.y_star, 1e-3)
    ys = [y_lo + (20.0 - y_lo) * (k + 0.5) / 48 for k in range(48)] if y_lo < 20.0 else []
    return rows, [(temperature, y, qg.massless_integrand(y, d, d.y_star)) for y in ys]


def cmd_quantum(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    p = cfg.oscillator

    def level(n: int, shift: Callable) -> float:
        # a failing or non-finite level is an empty field, as in a sweep row
        try:
            return p.omega * (n + 0.5) + shift(n, p, "both")
        except _ROW_FAILURES:
            return math.nan

    # spectrum table of the lowest six levels, temperature-independent
    lines = ["n,literal,generic_rspt,abs_dev"]
    for n in range(6):
        lit, gen = level(n, qg.literal_shift), level(n, qg.rspt_shift)
        lines.append(",".join((str(n), *map(_field, (lit, gen, abs(lit - gen))))))
    _write_lines(out_dir / "spectrum.csv", lines)

    code, spectral = _sweep(cfg, _quantum_point, out_dir, "quantum")
    _write_lines(out_dir / "spectral_density.csv",
                 ["T,y,integrand", *(",".join(map(_fmt, s)) for s in spectral)])
    return code


# ---------------------------------------------------------------------------
# verification matrix
# ---------------------------------------------------------------------------

def _verify_rows(cfg: RunConfig) -> list[tuple[str, str, Callable[[], ComparisonReport]]]:
    """The fixed matrix of desk-scale identity checks, in print order, as
    (section, name, thunk) rows; building it computes nothing."""
    p_nat = OscillatorParams(m=1.0, omega=1.0, lam=1.0)
    p_free = OscillatorParams(m=1.0, omega=1.0)
    t1 = ThermalState.from_temperature(1.0)

    def metropolis():
        mc = metropolis_expectation(lambda x: -0.5 * x * x, lambda x: x * x,
                                    1.2, 20000, 2000, seed=cfg.options["seed"])
        return compare("<x^2> under exp(-x^2/2)", mc.mean, 1.0, 3.0 * mc.std_error,
                       "Gaussian second moment",
                       {"std_error": mc.std_error, "acceptance": mc.acceptance_rate})

    def kinetic(z: float):
        return [
            ("classical", f"sinh-squared identity z={z}", lambda: compare(
                f"int sinh^2 e^-zcosh, z={z}", cg.kinetic_radial_integral(z, 0.0).value,
                sf.bessel_k(1.0, z).value / z, 1e-8,
                "kinetic radial integral reduces to K_1(z)/z")),
            ("classical", f"energy-weighted corollary z={z}", lambda: compare(
                f"int sinh^2 cosh e^-zcosh, z={z}", cg.kinetic_radial_integral(z, 1.0).value,
                cg.g_function_corrected(z) / z**3, 1e-8,
                "one z-derivative of the kinetic radial integral")),
        ]

    def free_density(T: float) -> float:
        # the blackbody and T^4 rows share these quadratures through the memo scope
        return qg.energy_density_massless(p_free, ThermalState.from_temperature(T)).literal

    return [
        ("specfun", "half-integer closed form", lambda: compare(
            "bessel_k(1/2,1)", sf.bessel_k(0.5, 1.0).value,
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), 1e-12,
            "half-integer order reduces to an elementary function")),
        ("specfun", "three-term recurrence", lambda: compare(
            "bessel_k(9/4,3) via recurrence",
            sf.bessel_k(0.25, 3.0).value + 2.0 * 1.25 / 3.0 * sf.bessel_k(1.25, 3.0).value,
            sf.bessel_k(2.25, 3.0).value, 1e-9, "adjacent-order recurrence consistency")),
        ("specfun", "upper incomplete gamma", lambda: compare(
            "Gamma(4,1)", sf.upper_incomplete_gamma(4.0, 1.0).value, 16.0 / math.e, 1e-12,
            "finite-sum closed form")),
        ("specfun", "Whittaker-gamma identity", lambda: compare(
            "Gamma(4,1) via W", math.exp(-0.5) * sf.whittaker_w(1.5, 2.0, 1.0).value,
            16.0 / math.e, 1e-9, "incomplete gamma expressed through Whittaker W")),
        ("oracles", "gamma integral", lambda: compare(
            "int y^3 e^-y", integrate_semi_infinite(
                lambda y: y**3 * math.exp(-y) if y < 700 else 0.0, 0.0).value,
            6.0, 1e-10, "factorial integral")),
        ("oracles", "zeta integral", lambda: compare(
            "int y^3/(e^y-1)", integrate_semi_infinite(
                lambda y: y**3 / math.expm1(y) if 0.0 < y < 700.0 else 0.0, 0.0).value,
            math.pi**4 / 15.0, 1e-10, "Bose integral in closed form")),
        ("oracles", "Metropolis Gaussian variance", metropolis),
        *(row for z in (0.5, 1.0, 2.0, 5.0) for row in kinetic(z)),
        ("classical", "quartic limit of F", lambda: compare(
            "F(0)", cg.f_oracle(0.0).value, math.gamma(0.75) / 4.0, 1e-9,
            "pure-quartic Gaussian integral")),
        ("classical", "closed form for F vs oracle", lambda: compare(
            "f_closed_form(1)", cg.f_closed_form(1.0), cg.f_oracle(1.0).value, 1e-6,
            "printed closed form against the defining integral")),
        *(("classical", name, functools.partial(report, p_nat, t1)) for name, report in (
            ("harmonic partition vs phase-space quadrature", cg.harmonic_partition_z1_report),
            ("relativistic harmonic partition", cg.relativistic_harmonic_partition_z2),
            ("anharmonic partition dual route", cg.anharmonic_relativistic_partition),
            ("average energy dual route", cg.average_energy_classical))),
        ("quantum", "quartic first-order shift n=0", lambda: qg.perturbative_shift(
            0, OscillatorParams(m=1.0, omega=1.0, lam=1e-3), "first")),
        ("quantum", "cubic second-order shift n=0", lambda: qg.perturbative_shift(
            0, OscillatorParams(m=1.0, omega=1.0, mu=1e-2), "second")),
        ("quantum", "positivity cutoff root", lambda: compare(
            "y_star for (-1, 3)", qg.DimensionlessCouplings.from_values(-1.0, 3.0).y_star,
            1.0, 1e-10, "closed-form cutoff vs the exact root y* = 1 at kappa^2 = 1/3")),
        ("quantum", "blackbody limit", lambda: compare(
            "energy density at zero couplings", free_density(1.0),
            qg.blackbody_energy_density(t1), 1e-8,
            "uncoupled mode sum collapses to the blackbody integral")),
        ("quantum", "T^4 scaling", lambda: compare(
            "density(2T)/density(T)", free_density(2.0) / free_density(1.0), 16.0, 1e-10,
            "quartic temperature scaling")),
        ("quantum", "series vs quadrature", lambda: qg.series_energy_density(
            OscillatorParams(m=1.0, omega=1.0, lam=4e-4 / 3.0, mu=4.0 * math.sqrt(0.4e-4)),
            t1)),
    ]


def cmd_verify(cfg: RunConfig, out_dir: Path, only: str | None = None) -> int:
    """Run the matrix's rows, or only those of section `only`, in one memo
    scope; print each and write verify_matrix.txt and verify_reports.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with memo_scope():
        rows = [(section, name, _row({}, name, thunk))
                for section, name, thunk in _verify_rows(cfg) if only in (None, section)]
    reports = [rep for _, _, rep in rows]
    lines = [f"[{rep.status.value}] {section}: {name} rel_dev={_fmt(rep.rel_dev)}"
             for section, name, rep in rows]
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    _write_lines(out_dir / "verify_matrix.txt", lines)
    _write_reports_json(out_dir / "verify_reports.json", reports)
    return _exit_code(reports)


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
    try:
        res = fn(*args)
    except (ValueError, OverflowError) as exc:
        print(f"specfun-eval error: {exc}", file=sys.stderr)
        return 1
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
        sp.add_argument("--print-config", action="store_true")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=None)
            sections = dict.fromkeys(row[0] for row in _verify_rows(RunConfig()))
            sp.add_argument("--only", type=str, default=None, choices=list(sections))
        else:
            sp.add_argument("--threads", type=int, default=None,
                            help="accepted and ignored; sweeps run on one thread")
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
        if args.command == "verify" and args.seed is not None:
            cfg.options["seed"] = _seed(args.seed)
        if args.print_config:
            sys.stdout.write(cfg.dumps())
            return 0
        out_dir = Path(args.out)
        if args.command == "classical":
            return cmd_classical(cfg, out_dir)
        if args.command == "quantum":
            return cmd_quantum(cfg, out_dir)
        return cmd_verify(cfg, out_dir, only=args.only)
    except (ValueError, KeyError, OSError, ArithmeticError, json.JSONDecodeError) as exc:
        print(f"config or input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
