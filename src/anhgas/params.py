"""Physical parameter records shared by the classical and quantum modules.

Every quantity is in natural units, hbar = c = k_B = 1, and the formally
infinite volumes V, V_P and Q are unit factors.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OscillatorParams", "ThermalState"]


@dataclass(frozen=True)
class OscillatorParams:
    """One oscillator or gas species.

    ``lam`` is the quartic coupling, ``mu`` the cubic one.
    """

    m: float
    omega: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not (self.m > 0.0):
            raise ValueError(f"mass must be positive, got {self.m}")
        if not (self.omega > 0.0):
            raise ValueError(f"frequency must be positive, got {self.omega}")
        if self.lam < 0.0:
            raise ValueError(f"quartic coupling must be >= 0, got {self.lam}")

    def require_anharmonic(self):
        if self.lam <= 0.0:
            raise ValueError("anharmonic operation requires a positive quartic coupling")


@dataclass(frozen=True)
class ThermalState:
    """Temperature plus the derived inverse temperature beta = 1/T."""

    T: float
    beta: float

    @classmethod
    def from_temperature(cls, T: float) -> "ThermalState":
        if not (T > 0.0):
            raise ValueError(f"temperature must be positive, got {T}")
        return cls(T=T, beta=1.0 / T)
