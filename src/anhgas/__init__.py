"""anhgas: anharmonic oscillator gas thermodynamics with built-in oracles.

Every printed closed form is evaluated literally and paired with an
independently implemented numerical check (adaptive quadrature, exact
diagonalization, brute-force summation, seeded Monte Carlo).  Deviations
are reported as FLAGGED results, never silently patched.
"""

from .params import OscillatorParams, ThermalState
from .reports import ComparisonReport, Status, compare

__version__ = "0.1.0"

__all__ = [
    "OscillatorParams",
    "ThermalState",
    "ComparisonReport",
    "Status",
    "compare",
    "__version__",
]
