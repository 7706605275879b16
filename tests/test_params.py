"""Parameter-record validation and construction identities."""

import pytest

from anhgas.params import OscillatorParams, ThermalState


class TestOscillatorParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="mass"):
            OscillatorParams(m=0.0, omega=1.0)
        with pytest.raises(ValueError, match="frequency"):
            OscillatorParams(m=1.0, omega=-2.0)
        with pytest.raises(ValueError, match="quartic"):
            OscillatorParams(m=1.0, omega=1.0, lam=-0.1)

    def test_cubic_coupling_may_take_either_sign(self):
        assert OscillatorParams(m=1.0, omega=1.0, mu=-0.3).mu == -0.3

    def test_anharmonic_guard(self):
        with pytest.raises(ValueError, match="quartic"):
            OscillatorParams(m=1.0, omega=1.0, lam=0.0).require_anharmonic()


class TestThermalState:
    @pytest.mark.parametrize("temperature", [0.1, 0.7, 1.0, 3.7, 250.0])
    def test_inverse_temperature_as_constructed(self, temperature):
        t = ThermalState.from_temperature(temperature)
        assert t.beta == 1.0 / temperature
        assert t.T == temperature

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            ThermalState.from_temperature(0.0)
