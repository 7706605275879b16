"""CLI contract: config round-trip, CSV schema, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhgas import classical_gas as cg
from anhgas import cli, memo, oracles
from anhgas import quantum_gas as qg
from anhgas.cli import CSV_HEADER, RunConfig
from anhgas.oracles import IntegrandError
from anhgas.params import OscillatorParams
from anhgas.reports import Status


def run(argv):
    return cli.main(argv)


class TestRunConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        again = RunConfig.from_dict(json.loads(cfg.dumps()))
        assert again.to_dict() == cfg.to_dict()

    @given(
        m=st.floats(min_value=0.1, max_value=10.0),
        omega=st.floats(min_value=0.1, max_value=10.0),
        lam=st.floats(min_value=0.0, max_value=5.0),
        mu=st.floats(min_value=-2.0, max_value=2.0),
        temps=st.lists(st.floats(min_value=0.05, max_value=20.0),
                       min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configs_round_trip(self, m, omega, lam, mu, temps, seed):
        raw = {
            "oscillator": {"m": m, "omega": omega, "lam": lam, "mu": mu},
            "thermal_grid": temps,
            "options": {"seed": seed, "cutoff_convention": "kappa_literal"},
        }
        cfg = RunConfig.from_dict(raw)
        again = RunConfig.from_dict(json.loads(cfg.dumps()))
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected_with_path(self):
        # a misspelling, the options removed because nothing read them, and
        # those removed because nothing set them to a second value
        for key in ("cutof_convention", "series_rel_tol", "mc_samples", "mc_burn_in",
                    "use_closed_form_f", "g1_includes_y", "perturbation_order",
                    "n_levels", "series_n_max", "series_i_max", "series_j_max",
                    "rel_tol", "spectral_samples"):
            with pytest.raises(ValueError, match=f"options.{key}"):
                RunConfig.from_dict({"options": {key: 1}})
        with pytest.raises(ValueError, match="oscilator"):
            RunConfig.from_dict({"oscilator": {}})

    @pytest.mark.parametrize("key, value", [
        ("cutoff_convention", "ystar"),
        ("cutoff_convention", None),
        ("massive_gas_mass", 0.0),
        ("massive_gas_mass", -1.0),
        ("massive_gas_mass", float("nan")),
        ("massive_gas_mass", "heavy"),
        ("massive_gas_mass", "3.5"),
        ("massive_gas_mass", None),
    ])
    def test_bad_option_values_rejected_with_path(self, key, value):
        with pytest.raises(ValueError, match=f"options.{key}"):
            RunConfig.from_dict({"options": {key: value}})

    def test_good_option_values_accepted(self):
        for convention in ("y_star", "kappa_literal"):
            RunConfig.from_dict({"options": {"cutoff_convention": convention}})
        for mass in (1e-6, 2):
            RunConfig.from_dict({"options": {"massive_gas_mass": mass}})

    @pytest.mark.parametrize("options", [{"cutoff_convention": "ystar"},
                                         {"massive_gas_mass": 0}])
    def test_bad_option_value_exits_one_before_any_compute(self, tmp_path, capsys, options):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                                   "thermal_grid": [1.0, 2.0], "options": options}))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"options.{next(iter(options))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classical", "quantum"])
    @pytest.mark.parametrize("text, path", [
        ('{"thermal_grid": 5}', "thermal_grid"),
        ('{"thermal_grid": []}', "thermal_grid"),
        ('{"thermal_grid": [1.0, null]}', "thermal_grid[1]"),
        ('{"thermal_grid": [1e999]}', "thermal_grid[0]"),
        ('{"thermal_grid": [1.0, -1.0]}', "thermal_grid[1]"),
        ('{"thermal_grid": [1.0, NaN]}', "thermal_grid[1]"),
        ('{"thermal_grid": [true, "2"]}', "thermal_grid[0]"),
        ('{"oscillator": 5}', "oscillator"),
        ('{"oscillator": {"lam": 0.5, "mu": "0.1"}}', "oscillator.mu"),
        ('{"oscillator": {"mu": 1e999}}', "oscillator.mu"),
        ('{"oscillator": {"lam": NaN}}', "oscillator.lam"),
        ('{"options": [1]}', "options"),
        ('{"options": {"massive_gas_mass": true}}', "options.massive_gas_mass"),
        ('[1.0]', "config"),
    ])
    def test_malformed_config_is_one_line_and_no_output(self, tmp_path, capsys,
                                                        command, text, path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config or input error: {path}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classical", "quantum"])
    @pytest.mark.parametrize("section, key", [
        ({"unit_system": {"hbar": 1.0, "c": 1.0, "k_B": 1.0}}, "unit_system"),
        ({"oscillator": {"amplitude_a": 2.0}}, "oscillator.amplitude_a"),
    ])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, command,
                                               section, key):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(section))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config or input error: unknown config key: {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("options, argv", [
        ({"seed": 1.5}, []), ({"seed": True}, []), ({"seed": "7"}, []),
        ({"seed": 1e300}, []), ({"seed": -1}, []), ({}, ["--seed", "-1"]),
    ])
    def test_a_seed_that_is_not_an_integer_at_least_zero_exits_one(self, tmp_path, capsys,
                                                                   options, argv):
        # a JSON integer >= 0, in the config or from --seed: not a bool, a float
        # or a string, and refused before any row runs or any directory is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"options": options}))
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config or input error: options.seed: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_print_config_lists_every_flag(self, capsys, tmp_path):
        assert run(["verify", "--print-config"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert set(parsed["options"]) == set(cli._DEFAULT_OPTIONS)

    def test_thread_inputs_are_inert(self, monkeypatch, tmp_path):
        # --threads and ANHGAS_THREADS are accepted and ignored: a sweep
        # starts no thread and writes the bytes of a plain run
        grids = {"classical": [0.1, 1.0, 5.0], "quantum": [1.0, 2.0, 3.0]}
        for command, grid in grids.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                                       "thermal_grid": grid}))
            assert run([command, "--config", str(cfg),
                        "--out", str(tmp_path / command / "plain")]) == 2

        def refuse(thread):
            raise RuntimeError(f"a sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setenv("ANHGAS_THREADS", "5")
        for command in grids:
            plain, inert = tmp_path / command / "plain", tmp_path / command / "inert"
            assert run([command, "--config", str(tmp_path / f"{command}.json"),
                        "--out", str(inert), "--threads", "8"]) == 2
            names = sorted(f.name for f in plain.iterdir())
            assert names == sorted(f.name for f in inert.iterdir())
            for name in names:
                assert (inert / name).read_bytes() == (plain / name).read_bytes(), name


class TestClassicalCommand:
    def test_csv_schema_and_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 1.0},
            "thermal_grid": [1.0],
        }))
        out = tmp_path / "out"
        # by-design FLAGGED rows (printed-formula deviations) give exit 2
        assert run(["classical", "--config", str(cfg), "--out", str(out)]) == 2
        text = (out / "classical.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        # floats carry 17 significant digits and parse back exactly
        oracle_field = lines[1].split(",")[3]
        assert cli._fmt(float(oracle_field)) == oracle_field
        assert cli._fmt(math.pi) == "3.1415926535897931"

    def test_degenerate_harmonic_marks_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.0},
            "thermal_grid": [1.0],
        }))
        out = tmp_path / "out"
        run(["classical", "--config", str(cfg), "--out", str(out)])
        rows = (out / "classical.csv").read_text().splitlines()[1:]
        skipped = [r for r in rows if r.endswith("SKIPPED")]
        assert len(skipped) == 4
        for r in skipped:
            t, name, lit, ora, rel, status = r.split(",")
            assert lit == "" and ora == "" and rel == ""

    def test_one_report_per_row_in_row_order(self, tmp_path):
        # the SKIPPED rows of lam = 0 have their reports too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oscillator": {"lam": 0.0}, "thermal_grid": [0.5, 2.0]}))
        out = tmp_path / "out"
        assert run(["classical", "--config", str(cfg), "--out", str(out)]) == 2
        rows = [r.split(",") for r in (out / "classical.csv").read_text().splitlines()[1:]]
        reports = json.loads((out / "classical_reports.json").read_text())
        assert [(float(r[0]), r[1], r[5]) for r in rows] == [
            (rep["options_used"]["T"], rep["quantity_name"], rep["status"]) for rep in reports]
        assert [rep["status"] for rep in reports].count("SKIPPED") == 8
        for rep in reports:
            if rep["status"] == "SKIPPED":
                assert rep["literal"] is None and rep["oracle"] is None
                assert rep["provenance"] == "needs a positive quartic coupling lam"

    def test_an_overflowing_temperature_keeps_the_finite_rows(self, tmp_path, capsys):
        osc = {"lam": 0.5, "mu": 0.1}
        for name, grid in (("one", [1.0]), ("both", [1.0, 1e300])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"oscillator": osc, "thermal_grid": grid}))
            run(["classical", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert capsys.readouterr().err == ""
        one = (tmp_path / "one/classical.csv").read_text().splitlines()
        both = (tmp_path / "both/classical.csv").read_text().splitlines()
        assert both[:7] == one
        assert [r.split(",", 1)[0] for r in both[7:]] == ["1.0000000000000001e+300"] * 6
        assert all(r.endswith(",ERROR") for r in both[7:])

    def test_a_huge_temperature_names_the_harmonic_power(self, tmp_path):
        # (2 pi T/(w sqrt(m)))^3 leaves double range above T ~ 1e102, the
        # phase-space oracle's c^(-3/2) only above T ~ 1.6e205
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                                   "thermal_grid": [1e150, 1e200]}))
        assert run(["classical", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        reports = json.loads((tmp_path / "out/classical_reports.json").read_text())
        assert not any("(34," in r["provenance"] for r in reports)
        z1 = [r for r in reports if r["quantity_name"] == "harmonic_partition_z1"]
        assert [(r["status"], r["provenance"]) for r in z1] == [
            ("ERROR", f"evaluation failure: (2 pi T/(w sqrt(m)))^3 overflows at T={t!r}, "
                      "omega=1.0, m=1.0") for t in (1e150, 1e200)]

    def test_an_extreme_frequency_names_each_overflow(self, tmp_path):
        # w^2 = 1e400 leaves double range although m w^2 = 1e200 does not,
        # and z = m/T underflows to 0 at T = 1e308
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oscillator": {"m": 1e-200, "omega": 1e200, "lam": 0.5},
                                   "thermal_grid": [1.0, 1e308]}))
        assert run(["classical", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        reports = json.loads((tmp_path / "out/classical_reports.json").read_text())
        assert [r["status"] for r in reports] == ["ERROR"] * 12
        assert not any("(34," in r["provenance"] or "requires x > 0" in r["provenance"]
                       for r in reports)
        w2 = "evaluation failure: beta m w^2 / 2: w^2 overflows at omega=1e+200"
        z0 = "evaluation failure: z = m/T = 0.0 leaves double range at m=1e-200, T=1e+308"
        one, hot = ({r["quantity_name"]: r["provenance"] for r in reports[k:k + 6]}
                    for k in (0, 6))
        for prov in (one, hot):
            assert prov["harmonic_partition_z1"] == prov["vibrational_partition"] == w2
        assert hot["relativistic_harmonic_partition_z2"] == hot["g_function"] == z0

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"options": {"not_a_flag": 1}}))
        assert run(["classical", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "not_a_flag" in capsys.readouterr().err

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5},
            "thermal_grid": [0.7, 1.0, 1.4, 2.0],
        }))
        run(["classical", "--config", str(cfg), "--out", str(tmp_path / "a"),
             "--threads", "1"])
        run(["classical", "--config", str(cfg), "--out", str(tmp_path / "b"),
             "--threads", "8"])
        assert (tmp_path / "a/classical.csv").read_bytes() == \
            (tmp_path / "b/classical.csv").read_bytes()
        assert (tmp_path / "a/classical_reports.json").read_bytes() == \
            (tmp_path / "b/classical_reports.json").read_bytes()


class TestQuantumCommand:
    def test_outputs_exist_with_planck_curve(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.0, "mu": 0.0},
            "thermal_grid": [1.0],
        }))
        out = tmp_path / "out"
        code = run(["quantum", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2)
        for name in ("quantum.csv", "spectrum.csv", "spectral_density.csv",
                     "quantum_reports.json"):
            assert (out / name).exists()
        # zero couplings: spectral samples lie on y^3/(e^y - 1)
        rows = (out / "spectral_density.csv").read_text().splitlines()[1:]
        for row in rows[:10]:
            _, y, v = (float(tok) for tok in row.split(","))
            assert v == pytest.approx(y**3 / math.expm1(y), rel=1e-9)

    def test_spectrum_table_has_both_modes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.0, "mu": 0.01},
            "thermal_grid": [1.0],
        }))
        out = tmp_path / "out"
        run(["quantum", "--config", str(cfg), "--out", str(out)])
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,literal,generic_rspt,abs_dev"
        devs = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(d > 0.0 for d in devs)   # printed cubic shift disagrees


    def test_no_positivity_window_errors_both_conventions(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.0, "mu": 0.01},
            "thermal_grid": [1.0],
        }))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
        rows = (out / "quantum.csv").read_text().splitlines()[1:3]
        assert rows == [f"1,energy_density_massless[{c}],,,,ERROR"
                        for c in ("y_star", "kappa_literal")]
        reports = json.loads((out / "quantum_reports.json").read_text())[:2]
        assert [r["quantity_name"] for r in reports] == [
            "energy_density_massless[y_star]", "energy_density_massless[kappa_literal]"]
        assert reports[0]["provenance"] == reports[1]["provenance"]
        assert reports[0]["provenance"].startswith("positivity window failure: cubic")

    def test_window_decided_where_the_couplings_are(self, tmp_path):
        # lam > 0, but a_B underflows to 0 while a_A < 0: dimensionless_couplings
        # finds no window, so the sweep writes ERROR rows and no spectral samples
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 5e-324, "mu": 0.1},
            "thermal_grid": [2.0],
        }))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
        rows = (out / "quantum.csv").read_text().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["ERROR"] * 3
        assert (out / "spectral_density.csv").read_text() == "T,y,integrand\n"

    def test_a_failing_convention_errors_only_its_own_row(self, tmp_path, monkeypatch):
        # at T = 0.01 the kappa_literal oracle integral (exp coordinate above
        # the cut 3 kappa^2 = 50) is made to raise; the y_star row, which
        # integrates above that cut too but as a literal, is unaffected
        real = qg._massless_oracle

        def failing(d, lower):
            if lower == 50.0:
                raise ValueError("exp map failure above the kappa_literal cut")
            return real(d, lower)

        monkeypatch.setattr(qg, "_massless_oracle", failing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
            "thermal_grid": [0.01],
        }))
        out = tmp_path / "out"
        run(["quantum", "--config", str(cfg), "--out", str(out)])
        rows = (out / "quantum.csv").read_text().splitlines()[1:3]
        assert rows[0].startswith("0.01,energy_density_massless[y_star],9.88")
        assert rows[0].endswith(",PASS")
        assert rows[1] == "0.01,energy_density_massless[kappa_literal],,,,ERROR"
        reports = json.loads((out / "quantum_reports.json").read_text())
        assert reports[1]["provenance"] == ("evaluation failure: exp map failure "
                                            "above the kappa_literal cut")

    def test_quadrature_failures_error_with_their_cause(self, tmp_path, monkeypatch):
        # with the oracle's exp coordinate unscaled (y = lower - ln(1 - t)), it
        # puts a node at t = 1, where y = inf, at T = 0.05, because the mode-sum
        # weight reaches past y = lower + 36.7.  The massive coordinate
        # y = lower + v^2 reaches y = lower + 1350 before t rounds to 1, so its
        # integrand is made to return NaN past v = 1.  Each row is ERROR and
        # names its failure
        monkeypatch.setattr(qg, "_width", lambda d: 1.0)
        real = qg.integrate_semi_infinite

        def nan_in_massive(f, a, **kwargs):
            if f.__qualname__.startswith("energy_density_massive."):
                return real(lambda v: math.nan if v > 1.0 else f(v), a, **kwargs)
            return real(f, a, **kwargs)

        monkeypatch.setattr(qg, "integrate_semi_infinite", nan_in_massive)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
            "thermal_grid": [0.05],
        }))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
        names = ["energy_density_massless[y_star]",
                 "energy_density_massless[kappa_literal]", "energy_density_massive"]
        rows = (out / "quantum.csv").read_text().splitlines()[1:]
        assert rows == [f"0.050000000000000003,{n},,,,ERROR" for n in names]
        reports = json.loads((out / "quantum_reports.json").read_text())
        assert [r["quantity_name"] for r in reports] == names
        assert all(r["status"] == "ERROR" for r in reports)
        for r in reports[:2]:
            assert r["provenance"].startswith("evaluation failure: the exp map of [")
            assert "put a node at t = 1" in r["provenance"]
        assert reports[2]["provenance"].startswith(
            "evaluation failure: integrand returned NaN at ")

    def test_low_temperatures_have_values(self, tmp_path):
        # the mode-sum weight peaks near y = (8 a_B)^(1/3): 29 at T = 0.05,
        # 72 at T = 0.02 and 290 at T = 0.005, which both maps reach over
        # y = lower + L s, L four times that width; the two maps of each
        # massless row then agree
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
            "thermal_grid": [0.005, 0.01, 0.02, 0.05, 0.1],
        }))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 2
        reports = json.loads((out / "quantum_reports.json").read_text())
        assert len(reports) == 15
        assert all(r["status"] != "ERROR" for r in reports)
        massless = [r for r in reports if r["quantity_name"].startswith("energy_density_massless")]
        assert len(massless) == 10
        for r in massless:
            assert r["status"] == "PASS" and r["oracle"] > 0.0 and r["rel_dev"] <= 1e-8

    def test_unconverged_quadratures_error_each_row(self, tmp_path, monkeypatch):
        # with a 15-evaluation budget no density quadrature converges; every
        # row, the series row's oracle included, is ERROR and names its integral
        monkeypatch.setattr(oracles, "_MAX_EVALS", 15)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
            "thermal_grid": [2.0],
        }))
        out = tmp_path / "out"
        assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
        named = {
            "energy_density_massless[y_star]": ["int y^2 <E>(y) dy, rational map",
                                                "int y^2 <E>(y) dy, exp map"],
            "energy_density_massless[kappa_literal]": ["int y^2 <E>(y) dy, rational map",
                                                       "int y^2 <E>(y) dy, exp map"],
            "energy_density_massive": ["printed-radicand density integral over v",
                                       "dispersion density integral over v"],
            "series_energy_density": ["int y^2 <f e^-f> (1 - e^-y) dy"],
        }
        rows = [line.split(",")[1] for line in
                (out / "quantum.csv").read_text().splitlines()[1:]]
        assert rows == list(named)
        reports = json.loads((out / "quantum_reports.json").read_text())
        for row, r in zip(rows, reports):
            assert r["status"] == "ERROR"
            head, _, names = r["provenance"].partition("; unconverged quadrature: ")
            assert head and names.split("; ") == named[row]


@pytest.mark.parametrize("command, raw", [
    ("classical", {"oscillator": {"m": 1e200, "lam": 0.5}, "thermal_grid": [1.0, 0.01, 1e-5]}),
    ("quantum", {"oscillator": {"m": 1e200, "lam": 0.5}, "thermal_grid": [1.0, 0.01, 1e-5]}),
    ("quantum", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1e300]}),
    # no power overflows, but the quotient a_B does: no spectral sample is drawn
    ("quantum", {"oscillator": {"lam": 1e307}, "thermal_grid": [1e-5]}),
])
def test_an_overflowing_power_names_its_expression(tmp_path, command, raw):
    # a float power that leaves double range raises OverflowError(34, ...);
    # the row names the expression and its inputs instead
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    provenance = [r["provenance"]
                  for r in json.loads((out / f"{command}_reports.json").read_text())]
    assert not any("(34," in p for p in provenance)
    want = ("x = sqrt(m^2 w^4 / (64 T lam)): m^2 w^4 overflows at m=1e+200, omega=1.0"
            if command == "classical" else "a_A = -mu^2/(16 m^3 T^5), a_B = 3 lam/(4 m^2 T^3)")
    n_named = sum(want in p for p in provenance)
    assert n_named == (9 if command == "classical" else len(provenance))


@pytest.mark.parametrize("mass", [1e-200, 1e200])
def test_an_extreme_gas_mass_names_t_over_m_squared(tmp_path, mass):
    # (T/M)^2 overflows at M = 1e-200 and underflows to 0 at M = 1e200: the
    # massive row is ERROR and names the expression, not an errno or a 1/0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1.0],
                               "options": {"massive_gas_mass": mass}}))
    out = tmp_path / "out"
    assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 1
    rows = (out / "quantum.csv").read_text().splitlines()[1:]
    assert rows[2] == "1,energy_density_massive,,,,ERROR"
    assert [r.rsplit(",", 1)[1] for r in rows[:2]] == ["PASS", "PASS"]
    text = (out / "quantum_reports.json").read_text()
    assert "Numerical result out of range" not in text and "division by zero" not in text
    reports = json.loads(text)
    assert reports[2]["provenance"] == ("evaluation failure: (T/M)^2 leaves double range "
                                        f"at T=1.0, M={mass!r}")


@pytest.mark.parametrize("mass", [1e-148, 1e-152])
def test_a_tiny_gas_mass_gives_a_value_or_names_the_radicand(tmp_path, mass):
    # the massive integrand returns 0 where the mode-sum weight is 0 before it
    # forms the radicand, which overflowed there (an errno message at 1e-148, an
    # inf times 0 and a NaN integrand at 1e-152); a radicand that overflows where
    # the weight is not 0 is an ERROR naming (q y)^2 with T and M
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1.0],
                               "options": {"massive_gas_mass": mass}}))
    out = tmp_path / "out"
    code = run(["quantum", "--config", str(cfg), "--out", str(out)])
    text = (out / "quantum_reports.json").read_text()
    assert "Numerical result out of range" not in text and "NaN" not in text
    massive = json.loads(text)[2]
    assert massive["quantity_name"] == "energy_density_massive"
    if mass == 1e-148:
        assert code == 2 and massive["status"] == "FLAGGED"
        assert 0.0 < massive["literal"] < massive["oracle"] < math.inf
    else:
        assert code == 1 and massive["status"] == "ERROR"
        assert massive["provenance"].startswith(
            "evaluation failure: (q y)^2 leaves double range at T=1.0, M=1e-152, y=")


@pytest.mark.parametrize("command, raw, n_rows", [
    ("classical", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1e300]}, 6),
    ("quantum", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1e300]}, 4),
    # kappa^2 = -a_A/a_B overflows: no row may PASS on y* = inf
    ("quantum", {"oscillator": {"lam": 1e-320, "mu": 0.1}, "thermal_grid": [1.0]}, 4),
    # m^2 underflows to 0 in the spectrum table, whose fields are then empty
    ("quantum", {"oscillator": {"m": 1e-300, "lam": 0.5}, "thermal_grid": [1.0]}, 4),
    # z = 1e8: the kinetic pass finds no weight, named, not a division by zero
    ("classical", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1e-8]}, 6),
])
def test_extreme_finite_config_ends_without_traceback(tmp_path, capsys, command, raw,
                                                      n_rows):
    # an overflow, a division by zero or a NaN integrand escaping main
    # would be a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rows = (out / f"{command}.csv").read_text().splitlines()[1:]
    reports = json.loads((out / f"{command}_reports.json").read_text())
    assert len(reports) == len(rows) == n_rows
    assert all(r["status"] != "PASS" for r in reports)
    errors = [r["provenance"] for r in reports if r["status"] == "ERROR"]
    # a classical row may also be ERROR on the quadrature it names
    assert errors and all(p.startswith("evaluation failure: ") or (
        command == "classical" and "; unconverged quadrature: " in p) for p in errors)
    # each failure names its expression, not a bare float error
    assert not any(bare in p for p in errors
                   for bare in ("(34,", "float division by zero", "math range error"))
    if command == "quantum":
        assert "nan" not in (out / "spectral_density.csv").read_text()
        assert "inf" not in (out / "spectrum.csv").read_text()


def test_the_printed_f_names_its_cancellation(tmp_path, capsys):
    # omega = 1e-10 gives x = 1e-20 at T = 1, where the printed F's 2wt - 1 is
    # exactly 0: both rows that print F are ERROR and name the cancellation,
    # where the parent wrote a FLAGGED 73728 against an oracle of 0.306
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"omega": 1e-10, "lam": 0.015625, "mu": 0.1},
                               "thermal_grid": [1.0]}))
    out = tmp_path / "out"
    assert run(["classical", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    reports = {r["quantity_name"]: r for r in
               json.loads((out / "classical_reports.json").read_text())}
    for name in ("vibrational_partition", "f_function"):
        assert reports[name]["status"] == "ERROR"
        assert reports[name]["provenance"].startswith(
            "evaluation failure: F's printed closed form cancels at x=1.0000000000000001e-20")

@pytest.mark.parametrize("oscillator", [
    # the generic second-order shift overflows at omega = 1e-100
    {"omega": 1e-100},
    # every second-order term of the generic shift overflows
    {"lam": 1e300},
])
def test_spectrum_table_leaves_failed_levels_empty(tmp_path, capsys, oscillator):
    # a level that raises or is not finite is an empty field, as in a sweep
    # row; the sweep rows and samples are still written, and the exit code
    # is theirs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": oscillator, "thermal_grid": [1.0]}))
    out = tmp_path / "out"
    assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,literal,generic_rspt,abs_dev" and len(lines) == 7
    fields = [f for line in lines[1:] for f in line.split(",")[1:]]
    assert "" in fields
    assert all(f == "" or math.isfinite(float(f)) for f in fields)
    assert len((out / "quantum.csv").read_text().splitlines()) == 4
    assert len((out / "spectral_density.csv").read_text().splitlines()) == 49


def test_spectrum_printed_levels_at_zero_cubic_coupling(tmp_path):
    # omega^4 underflows to 0, but at mu = 0 the printed cubic term is not
    # evaluated: every literal level is the finite quartic one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"omega": 1e-100, "mu": 0},
                               "thermal_grid": [1.0]}))
    out = tmp_path / "out"
    assert run(["quantum", "--config", str(cfg), "--out", str(out)]) == 2
    lines = (out / "spectrum.csv").read_text().splitlines()[1:]
    p = OscillatorParams(m=1.0, omega=1e-100, lam=1.0)
    literals = [float(line.split(",")[1]) for line in lines]
    assert literals == [1e-100 * (n + 0.5) + qg.literal_shift(n, p, "first")
                        for n in range(6)]


def test_no_spectral_samples_below_the_cutoff(tmp_path):
    # y* = 5e49: the whole sampling range [max(y*, 1e-3), 20] is empty
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"lam": 1e-300, "mu": 1e-100},
                               "thermal_grid": [1.0]}))
    out = tmp_path / "out"
    run(["quantum", "--config", str(cfg), "--out", str(out)])
    assert len((out / "quantum.csv").read_text().splitlines()) == 5
    assert (out / "spectral_density.csv").read_text() == "T,y,integrand\n"


class TestRowRunner:
    @pytest.mark.parametrize("exc, provenance", [
        (ValueError("bad"), "evaluation failure: bad"),
        (OverflowError("big"), "evaluation failure: big"),
        (ZeroDivisionError("zero"), "evaluation failure: zero"),
        (IntegrandError("nan at y=1"), "evaluation failure: nan at y=1"),
        (qg.PositivityWindowError("none"), "positivity window failure: none"),
    ])
    def test_a_failure_is_an_error_report_naming_its_cause(self, exc, provenance):
        def thunk():
            raise exc

        rep = cli._row({"T": 2.0}, "some_row", thunk)
        assert (rep.quantity_name, rep.status, rep.provenance) == (
            "some_row", Status.ERROR, provenance)
        assert rep.options_used == {"T": 2.0}
        assert math.isnan(rep.literal) and math.isnan(rep.oracle)

    def test_any_other_exception_ends_the_sweep(self):
        # a mode sum that never converges is a defect, not a row outcome
        def thunk():
            raise RuntimeError("mode sums did not converge")

        with pytest.raises(RuntimeError, match="did not converge"):
            cli._row({"T": 1.0}, "some_row", thunk)


def test_an_engine_defect_moves_the_bessel_rows(monkeypatch):
    # the printed Bessel forms run on specfun, their oracles on the quadrature
    # engine: an engine that returns 1.001 times each integral must show in
    # every kinetic-identity row of verify and in the classical g_function
    # and relativistic Z2 rows at T = 0.1 (z = 10)
    quad = oracles.integrate_semi_infinite

    def defective(*args, **kwargs):
        res = quad(*args, **kwargs)
        if isinstance(res, oracles.QuadratureResults):
            return oracles.QuadratureResults(r.scaled(1.001) for r in res)
        return res.scaled(1.001)

    for module in (oracles, cg):
        monkeypatch.setattr(module, "integrate_semi_infinite", defective)
    cfg = RunConfig.from_dict({"oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5}})
    with memo.memo_scope():
        kinetic = [cli._row({}, name, thunk) for _, name, thunk in cli._verify_rows(cfg)
                   if name.startswith(("sinh-squared identity", "energy-weighted corollary"))]
    with memo.memo_scope():
        rows, _ = cli._classical_point(cfg, 0.1)
        bessel = [cli._row({"T": 0.1}, name, thunk) for name, thunk in rows
                  if name in ("g_function", "relativistic_harmonic_partition_z2")]
    assert len(kinetic) == 8 and len(bessel) == 2
    for report in kinetic + bessel:
        assert report.rel_dev >= 5e-4, (report.quantity_name, report.rel_dev)


class TestMemoScopes:
    @pytest.mark.parametrize("command, grid", [
        ("classical", [1.3, 0.1, 1.3]),
        ("quantum", [2.0, 1.0, 2.0]),
    ])
    def test_each_grid_point_computes_its_own_shared_values(self, monkeypatch, tmp_path,
                                                            command, grid):
        # quadratures counted per grid point: a repeated temperature reuses
        # nothing from its twin, and no count depends on --threads
        cells = []
        point = getattr(cli, f"_{command}_point")
        quad = oracles.integrate_semi_infinite

        def counted_point(cfg, temperature):
            cells.append([temperature, 0])
            return point(cfg, temperature)

        def counted_quad(*args, **kwargs):
            cells[-1][1] += 1
            return quad(*args, **kwargs)

        monkeypatch.setattr(cli, f"_{command}_point", counted_point)
        for module in (cg, qg, oracles):
            monkeypatch.setattr(module, "integrate_semi_infinite", counted_quad)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                                   "thermal_grid": grid}))
        counts = []
        for threads in ("1", "2"):
            cells.clear()
            run([command, "--config", str(cfg), "--out", str(tmp_path / threads),
                 "--threads", threads])
            counts.append(sorted(map(tuple, cells)))
        one, two = counts
        assert one == two
        assert one[1] == one[2] and one[1][1] > 0
        if command == "classical":
            assert one == [(0.1, 3), (1.3, 3), (1.3, 3)]

    @pytest.mark.parametrize("command", ["classical", "quantum"])
    def test_no_scope_outlives_main(self, tmp_path, command):
        # T = 1e300 makes ERROR rows: a row's failure closes its scope too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                                   "thermal_grid": [1.0, 1e300]}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--threads", "1"]) == 1
        assert memo.current() is None


def _refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


@pytest.mark.parametrize("command, raw", [
    # at T = 1e300 the powers of T in a_A and a_B overflow: ERROR rows
    ("quantum", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1e300, 0.05, 0.1],
                 "options": {"cutoff_convention": "kappa_literal"}}),
    ("classical", {"oscillator": {"lam": 0.5, "mu": 0.1}, "thermal_grid": [1.0, 1e300]}),
])
def test_non_finite_values_are_null_and_empty(tmp_path, command, raw):
    # ERROR reports carry non-finite values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    run([command, "--config", str(cfg), "--out", str(out)])
    reports = json.loads((out / f"{command}_reports.json").read_text(),
                         parse_constant=_refuse)
    assert any(r["rel_dev"] is None for r in reports)
    for row in (out / f"{command}.csv").read_text().splitlines()[1:]:
        for value in row.split(",")[2:5]:
            assert value == "" or math.isfinite(float(value))


def _modules_loaded_by(code: str) -> str:
    # numpy, mpmath and the thread-pool and context-variable modules in
    # sys.modules after running code in a fresh interpreter
    src = Path(cli.__file__).resolve().parents[1]
    unused = {"numpy", "mpmath", "concurrent.futures", "contextvars"}
    probe = f"import sys\n{code}\nprint(sorted({unused!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported only by the diagonalization, Metropolis and
    # matrix-element functions that use it; the CLI imports no thread pool
    assert _modules_loaded_by("import anhgas.cli") == "[]"


def test_the_sweeps_leave_numpy_unloaded(tmp_path):
    # the spectrum table's level shifts come from closed-form ladder
    # elements, so neither sweep loads numpy; --threads 2 loads no pool
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oscillator": {"lam": 0.5, "mu": 0.1},
                               "thermal_grid": [1.0, 2.0]}))
    code = "\n".join(
        f"anhgas.cli.main(['{cmd}', '--config', {str(cfg)!r}, '--out', {str(tmp_path / cmd)!r},"
        " '--threads', '2'])"
        for cmd in ("quantum", "classical"))
    assert _modules_loaded_by(f"import anhgas.cli\n{code}") == "[]"
    assert (tmp_path / "quantum" / "spectrum.csv").exists()
    assert (tmp_path / "classical" / "classical.csv").exists()


def test_verify_sections_but_oracles_leave_numpy_unloaded(tmp_path):
    # --only computes only its section, and only the oracles section's
    # Metropolis row imports numpy
    code = "\n".join(
        f"anhgas.cli.main(['verify', '--only', '{section}', '--out', {str(tmp_path / section)!r}])"
        for section in ("specfun", "classical", "quantum"))
    assert _modules_loaded_by(f"import anhgas.cli\n{code}") == "[]"
    assert (tmp_path / "quantum" / "verify_matrix.txt").exists()


def test_verify_and_specfun_eval_run_without_mpmath(tmp_path):
    # mpmath is a test dependency only: with its import blocked, verify
    # exits 2 (FLAGGED rows by design) and each specfun-eval entry exits 0
    args = {"bessel_k": ["0.25", "2"], "bessel_k_derivative": ["0.25", "2"],
            "log_bessel_k": ["50", "1e-6"], "whittaker_w": ["1.5", "2", "1"],
            "upper_incomplete_gamma": ["4", "1"], "log_upper_incomplete_gamma": ["-2.5", "0.5"]}
    assert set(args) == set(cli._SPECFUN_TABLE)
    calls = [["verify", "--out", str(tmp_path)]] + [
        ["specfun-eval", name, *values] for name, values in args.items()]
    probe = ("import sys\nsys.modules['mpmath'] = None\nimport anhgas.cli\n"
             f"print([anhgas.cli.main(argv) for argv in {calls!r}])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == str([2] + [0] * len(args))


@pytest.fixture(scope="module")
def full_verify(tmp_path_factory):
    # the full matrix at the default seed: its lines and its strict-JSON reports
    out = tmp_path_factory.mktemp("verify")
    assert cli.main(["verify", "--out", str(out)]) == 2
    return ((out / "verify_matrix.txt").read_text(encoding="utf-8").splitlines(keepends=True),
            json.loads((out / "verify_reports.json").read_text(), parse_constant=_refuse))


class TestVerifyCommand:
    def test_clean_sections_exit_zero(self, tmp_path):
        assert run(["verify", "--only", "oracles", "--out", str(tmp_path)]) == 0

    def test_full_matrix_reports_known_deviations(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "[FLAGGED] classical: closed form for F vs oracle" in out
        assert "[FLAGGED] quantum: cubic second-order shift n=0" in out
        assert "[PASS] quantum: blackbody limit" in out

    def test_kinetic_identity_rows_pass_at_rounding(self):
        # e^{-z} times the scaled kinetic quadrature; the reference literals
        # come from the unscaled quadrature, so the two agree to rounding
        ref_file = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "verify-seed1.json"
        ref = {row[0]: row[1] for row in json.loads(ref_file.read_text())["rows"]}
        rows = [(f"{section}: {name}", thunk())
                for section, name, thunk in cli._verify_rows(RunConfig())
                if name.startswith(("sinh-squared identity", "energy-weighted corollary"))]
        assert len(rows) == 8
        for name, rep in rows:
            assert rep.status is Status.PASS and rep.rel_dev <= 1e-15, name
            assert rep.literal == pytest.approx(ref[name], rel=1e-14, abs=0.0), name

    @pytest.mark.parametrize("section, code", [
        ("specfun", 0), ("oracles", 0), ("classical", 2), ("quantum", 2)])
    def test_only_writes_its_sections_rows_of_the_full_matrix(self, tmp_path, full_verify,
                                                               section, code):
        lines, reports = full_verify
        keep = [k for k, line in enumerate(lines) if line.split("] ", 1)[1].startswith(
            f"{section}: ")]
        assert run(["verify", "--only", section, "--out", str(tmp_path)]) == code
        assert (tmp_path / "verify_matrix.txt").read_text(encoding="utf-8") == "".join(
            lines[k] for k in keep)
        assert json.loads((tmp_path / "verify_reports.json").read_text()) == [
            reports[k] for k in keep]

    @pytest.mark.parametrize("exc", [IntegrandError("NaN integrand at x=1"),
                                     ValueError("no walk")])
    def test_a_raising_row_is_an_error_row_and_the_matrix_goes_on(self, tmp_path, monkeypatch,
                                                                 full_verify, exc):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "metropolis_expectation", raising)
        assert run(["verify", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "verify_matrix.txt").read_text(encoding="utf-8").splitlines(
            keepends=True)
        reports = json.loads((tmp_path / "verify_reports.json").read_text(),
                             parse_constant=_refuse)
        full_lines, full_reports = full_verify
        k = next(k for k, line in enumerate(full_lines) if "Metropolis" in line)
        assert lines[k] == "[ERROR] oracles: Metropolis Gaussian variance rel_dev=nan\n"
        assert lines[:k] + lines[k + 1:] == full_lines[:k] + full_lines[k + 1:]
        assert reports[:k] + reports[k + 1:] == full_reports[:k] + full_reports[k + 1:]
        assert (reports[k]["status"], reports[k]["provenance"], reports[k]["options_used"]) == (
            "ERROR", f"evaluation failure: {exc}", {})

    def test_unconverged_row_quadratures_error_their_rows(self, tmp_path, monkeypatch,
                                                          full_verify):
        # the twelve rows that read a quadrature hand it to compare: with the same
        # values, but unconverged, each is ERROR and names its integral, where the
        # converged matrix has PASS (FLAGGED for F's printed closed form)
        def unconverged(real):
            return lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs),
                                                               converged=False)

        monkeypatch.setattr(cli, "integrate_semi_infinite",
                            unconverged(cli.integrate_semi_infinite))
        monkeypatch.setattr(cli, "cg", types.SimpleNamespace(**{
            **vars(cg), "kinetic_radial_integral": unconverged(cg.kinetic_radial_integral),
            "f_oracle": unconverged(cg.f_oracle)}))
        assert run(["verify", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "verify_matrix.txt").read_text(encoding="utf-8").splitlines(
            keepends=True)
        reports = json.loads((tmp_path / "verify_reports.json").read_text(),
                             parse_constant=_refuse)
        full_lines, full_reports = full_verify
        rows = ("gamma integral", "zeta integral", "sinh-squared identity",
                "energy-weighted corollary", "quartic limit of F", "closed form for F vs oracle")
        hit = [k for k, line in enumerate(full_lines)
               if line.split(": ", 1)[1].startswith(rows)]
        assert len(hit) == 12
        for k, (line, rep, full_line) in enumerate(zip(lines, reports, full_lines)):
            if k not in hit:
                assert (line, rep) == (full_line, full_reports[k])
                continue
            assert full_line.startswith("[FLAGGED]" if "closed form for F" in line else "[PASS]")
            assert line == "[ERROR]" + full_line.split("]", 1)[1].split(" rel_dev=")[0] \
                + " rel_dev=nan\n"
            head, _, names = rep["provenance"].partition("; unconverged quadrature: ")
            assert head == full_reports[k]["provenance"] and names.startswith(
                ("int ", "F(")), rep["provenance"]

    def test_unknown_section_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["verify", "--only", "nonsense", "--out", str(tmp_path)])

    def test_takes_no_thread_count(self, tmp_path):
        # only the sweeps accept --threads, which they ignore
        with pytest.raises(SystemExit):
            run(["verify", "--threads", "2", "--out", str(tmp_path)])

    def test_only_verify_takes_a_seed(self, tmp_path, capsys):
        # the Metropolis row is the only seeded computation
        for command in ("classical", "quantum"):
            with pytest.raises(SystemExit):
                run([command, "--seed", "3", "--out", str(tmp_path / command)])
            assert not (tmp_path / command).exists()
        assert run(["verify", "--seed", "3", "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["options"]["seed"] == 3


class TestSpecfunEval:
    def test_json_payload(self, capsys):
        assert run(["specfun-eval", "bessel_k", "0.25", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "series"
        assert payload["value"] == pytest.approx(0.11537827684086016, rel=1e-12)

    def test_whittaker_names_the_branch_that_ran(self, capsys):
        # W_{-5,-9/2}(0.04) is e^{0.02} 0.04^5 Gamma(-9, 0.04), from the
        # downward recurrence; W_{-2,1/2} is off the incomplete-gamma family
        assert run(["specfun-eval", "whittaker_w", "-5", "-4.5", "0.04"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "recurrence"
        assert run(["specfun-eval", "whittaker_w", "-2", "0.5", "0.8"]) == 1
        assert "family" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cause", [
        # refused before the recurrence takes its first of ~1e300 steps
        (["log_upper_incomplete_gamma", "--", "-1e300", "0.5"], "outside the supported"),
        # the series' 1 - P cancels, and the ladder's step from a top near 1
        (["upper_incomplete_gamma", "1e-13", "1"], "series route amplifies rounding"),
        (["log_upper_incomplete_gamma", "--", "-1e-10", "1"], "recurrence route amplifies"),
    ])
    def test_gamma_refusals_are_one_line_and_exit_one(self, capsys, argv, cause):
        assert run(["specfun-eval", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specfun-eval error: ")
        assert cause in captured.err and captured.err.count("\n") == 1

    def test_wrong_arity(self, capsys):
        assert run(["specfun-eval", "bessel_k", "1.0"]) == 1

    def test_unknown_function(self, capsys):
        assert run(["specfun-eval", "bessel_j", "1.0", "1.0"]) == 1

    @pytest.mark.parametrize("values, message", [
        (["50", "1e-6"], "leaves double range"),     # beyond double range
        (["0.5", "-1"], "requires x > 0"),           # outside the domain
    ])
    def test_evaluation_error_is_one_line_and_exit_one(self, capsys, values, message):
        assert run(["specfun-eval", "bessel_k", *values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specfun-eval error: ")
        assert message in captured.err and captured.err.count("\n") == 1
