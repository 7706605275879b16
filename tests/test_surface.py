"""The public surface is what a command runs.

Every function in a library module's ``__all__``, and every method that a
class in ``__all__`` defines in that module, must be called by ``verify``, one
classical point, one quantum point or one ``specfun-eval`` call per table
entry. A name only tests call is either a row to add or code to delete; the
few that stay are declared below with their reason.
"""

import inspect
import json
import sys

from anhgas import classical_gas, cli, memo, oracles, params, quantum_gas, reports, specfun

LIBRARY = (specfun, oracles, params, reports, classical_gas, quantum_gas, memo)

# test support, reached by no command
DECLARED = {
    "classical_gas.average_energy_metropolis":
        "acceptance criterion 4's Monte Carlo reference (tests/test_acceptance.py), "
        "until it becomes a verify row",
    "oracles.diagonalize_truncated":
        "acceptance criteria 5-6's eigenvalue reference, until it becomes a verify row",
    "quantum_gas.oscillator_hamiltonian":
        "the Hamiltonian that acceptance criteria 5-6 diagonalize",
    "quantum_gas.position_power_matrix":
        "the x^k matrices of that Hamiltonian",
    "memo.current":
        "the innermost scope's memo, through which tests read and seed memo entries",
}

# one call per specfun-eval entry, each inside its supported domain
SPECFUN_ARGS = {
    "bessel_k": [0.25, 2.0], "bessel_k_derivative": [0.25, 2.0], "log_bessel_k": [50.0, 1e-6],
    "whittaker_w": [1.5, 2.0, 1.0], "upper_incomplete_gamma": [4.0, 1.0],
    "log_upper_incomplete_gamma": [-2.5, 0.5],
}


def _public_code(mod) -> dict:
    """Qualified name -> code object of each function in mod.__all__ and each
    method that a class in mod.__all__ defines in mod (generated methods, such
    as a dataclass's __init__, live elsewhere and are not counted); a decorated
    function counts as the function it wraps."""
    short = mod.__name__.rsplit(".", 1)[1]
    found = {}
    for name in mod.__all__:
        obj = getattr(mod, name)
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)    # classmethod, staticmethod
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    found[f"{short}.{name}.{attr}"] = code
        elif callable(obj):
            found[f"{short}.{name}"] = inspect.unwrap(obj).__code__
    return found


def _run_commands(tmp_path) -> set:
    """The code objects that the four commands call."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sweep = {"oscillator": {"lam": 0.5, "mu": 0.1}}
    runs = [["verify", "--out", str(tmp_path / "verify")]]
    for command, temperature in (("classical", 1.0), ("quantum", 2.3)):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**sweep, "thermal_grid": [temperature]}))
        runs.append([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
        codes += [cli.cmd_specfun_eval(name, args) for name, args in SPECFUN_ARGS.items()]
    finally:
        sys.setprofile(None)
    assert codes == [2, 2, 2] + [0] * len(SPECFUN_ARGS)
    return called


def test_every_public_name_is_run_by_a_command(tmp_path, capsys):
    assert set(SPECFUN_ARGS) == set(cli._SPECFUN_TABLE)
    public = {k: v for mod in LIBRARY for k, v in _public_code(mod).items()}
    assert set(DECLARED) <= set(public), "a declared name is not public"
    called = _run_commands(tmp_path)
    capsys.readouterr()
    unreached = sorted(name for name, code in public.items() if code not in called)
    assert unreached == sorted(DECLARED)
