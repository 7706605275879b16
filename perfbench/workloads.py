"""Workload inputs, generated from the seed alone, and the ops that run them.

All workloads are closed loop with one client: each op starts when the
previous one has finished. An op is one complete CLI command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# the oscillator of every sweep
OSCILLATOR = {"m": 1.0, "omega": 1.0, "lam": 0.5, "mu": 0.1}
# quantum grid: one log-uniform draw per stratum of [0.5, 3]. Three strata
# lie above T = 1.5536, where a_B = 3 lam / (4 m^2 T^3) <= 0.1 and the
# series row (and specfun's Whittaker route) runs, and three below it, two
# of them at T <= 1; so every seed has the same rows and nearly the same cost
QUANTUM_STRATA = ((0.5, 0.7), (0.7, 1.0), (1.0, 1.5),
                  (1.6, 2.1), (2.1, 2.55), (2.55, 3.0))
# classical grid: log-spaced over [0.03, 8] with seeded jitter; z = 1/T puts
# about 40 points on bessel_k's asymptotic branch (z > 16), 75 on its
# quadrature branch (4 < z <= 16) and the rest on its series branch
CLASSICAL_POINTS = 300
CLASSICAL_RANGE = (0.03, 8.0)
CLASSICAL_JITTER = 0.4          # in units of the log spacing
CLASSICAL_QUANTITIES = ("harmonic_partition_z1", "relativistic_harmonic_partition_z2",
                        "vibrational_partition", "f_function", "g_function",
                        "average_energy_classical")
QUANTUM_QUANTITIES = ("energy_density_massless[y_star]",
                      "energy_density_massless[kappa_literal]",
                      "energy_density_massive")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "verify", "quantum" or "classical"
    threads: int
    in_process: bool
    why: str
    gated: bool = True   # listed in BENCHMARK.json, so its end-to-end bounds apply


WORKLOADS = {w.name: w for w in (
    Workload("verify-cold", "verify", 1, False,
             "fresh-interpreter anhgas verify; start-up is about two thirds of each op"),
    Workload("quantum-sweep", "quantum", 1, True,
             "6-point quantum sweep, bound by Bose-Einstein mode sums under G7/K15 quadrature"),
    Workload("classical-sweep", "classical", 1, True,
             "300-point classical sweep: cheap integrands, no mode sums; contrast for quantum-sweep"),
    Workload("quantum-sweep-t2", "quantum", 2, True,
             "quantum-sweep inputs with --threads 2; the only workload where parallel dispatch works",
             # GIL hand-offs between two threads on two cores amplify host noise:
             # its op wall spread 0.12-0.25 run to run, too wide for any bound
             gated=False),
)}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def quantum_grid(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [_log_uniform(rng, lo, hi) for lo, hi in QUANTUM_STRATA]


def classical_grid(seed: int) -> list[float]:
    rng = random.Random(seed)
    lo, hi = CLASSICAL_RANGE
    step = math.log(hi / lo) / (CLASSICAL_POINTS - 1)
    grid = []
    for k in range(CLASSICAL_POINTS):
        u = rng.uniform(-CLASSICAL_JITTER, CLASSICAL_JITTER)
        if k == 0 or k == CLASSICAL_POINTS - 1:
            u = 0.0
        grid.append(lo * math.exp((k + u) * step))
    return grid


def generate(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the inputs for ``seed`` into ``directory``; return the argv
    prefix of an op (``--out`` is added per op) and the temperature grid."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.kind == "verify":
        verify_seed = random.Random(seed).randrange(1, 2**31)
        return {"argv": ["verify", "--seed", str(verify_seed)], "grid": None}
    grid = quantum_grid(seed) if workload.kind == "quantum" else classical_grid(seed)
    config = {"oscillator": OSCILLATOR, "thermal_grid": grid}
    path = directory / f"{workload.kind}-seed{seed}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"argv": [workload.kind, "--config", str(path),
                     "--threads", str(workload.threads)],
            "grid": grid}


def expected_keys(kind: str, grid: list[float] | None) -> list[str] | None:
    """Row keys an op must produce for a generated grid (None for verify,
    whose rows do not depend on the seed and come from the reference)."""
    if grid is None:
        return None
    keys = []
    for t in grid:
        if kind == "classical":
            names = CLASSICAL_QUANTITIES
        else:
            a_b = 3.0 * OSCILLATOR["lam"] / (4.0 * OSCILLATOR["m"] ** 2 * t**3)
            names = QUANTUM_QUANTITIES + (("series_energy_density",) if a_b <= 0.1 else ())
        keys += [f"{t:.17g},{name}" for name in names]
    return keys


def run_in_process(cli, argv: list[str]) -> int:
    """One op through ``cli.main``; stdout (verify's matrix) is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_subprocess(argv: list[str], src: Path) -> int:
    """One op as a fresh ``python -m anhgas.cli`` interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("ANHGAS_THREADS", None)
    proc = subprocess.run([sys.executable, "-m", "anhgas.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    return proc.returncode
