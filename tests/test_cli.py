"""CLI contract: config round-trip, CSV schema, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhgas import cli
from anhgas.cli import CSV_HEADER, RunConfig


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
        # a misspelling, and the options removed because nothing read them
        for key in ("cutof_convention", "series_rel_tol", "mc_samples", "mc_burn_in",
                    "use_closed_form_f"):
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

    def test_print_config_lists_every_flag(self, capsys, tmp_path):
        assert run(["verify", "--print-config"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert set(parsed["options"]) == set(cli._DEFAULT_OPTIONS)

    def test_thread_count_env_override(self, monkeypatch):
        import argparse

        args = argparse.Namespace(threads=None)
        monkeypatch.setenv(cli.THREADS_ENV, "5")
        assert cli._thread_count(args) == 5
        monkeypatch.delenv(cli.THREADS_ENV)
        assert cli._thread_count(args) == 1
        assert cli._thread_count(argparse.Namespace(threads=3)) == 3


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

    def test_a_failing_convention_errors_only_its_own_row(self, tmp_path):
        # at T = 0.01 the kappa_literal oracle integral raises a math domain
        # error (a node at t = 1 of the exp map); the y_star row is unaffected
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "oscillator": {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1},
            "thermal_grid": [0.01],
        }))
        out = tmp_path / "out"
        run(["quantum", "--config", str(cfg), "--out", str(out)])
        rows = (out / "quantum.csv").read_text().splitlines()[1:3]
        assert rows[0].startswith("0.01,energy_density_massless[y_star],9.88")
        assert rows[0].endswith(",FLAGGED")
        assert rows[1] == "0.01,energy_density_massless[kappa_literal],,,,ERROR"

    def test_quadrature_failures_error_with_their_cause(self, tmp_path):
        # at T = 0.05 every density integral puts a node at t = 1 of the exp
        # map; each row is ERROR with a report that names that failure
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
        for r in reports:
            assert r["status"] == "ERROR"
            assert r["provenance"].startswith("evaluation failure: the exp map of [")
            assert "put a node at t = 1" in r["provenance"]


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported only by the diagonalization, Metropolis and
    # matrix-element functions that use it
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, anhgas.cli; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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

    def test_unknown_section_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["verify", "--only", "nonsense", "--out", str(tmp_path)])

    def test_takes_no_thread_count(self, tmp_path):
        # verify runs serially; only the sweeps take --threads
        with pytest.raises(SystemExit):
            run(["verify", "--threads", "2", "--out", str(tmp_path)])


class TestSpecfunEval:
    def test_json_payload(self, capsys):
        assert run(["specfun-eval", "bessel_k", "0.25", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "series"
        assert payload["value"] == pytest.approx(0.11537827684086016, rel=1e-12)

    def test_whittaker_names_the_branch_that_ran(self, capsys):
        # W_{-2,1/2} lands on U(3, 2, .), which has no closed form here
        assert run(["specfun-eval", "whittaker_w", "-2", "0.5", "0.8"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "mpmath"

    def test_wrong_arity(self, capsys):
        assert run(["specfun-eval", "bessel_k", "1.0"]) == 1

    def test_unknown_function(self, capsys):
        assert run(["specfun-eval", "bessel_j", "1.0", "1.0"]) == 1
