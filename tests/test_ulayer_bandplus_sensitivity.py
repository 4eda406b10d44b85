"""Tests for the coupling-sensitivity sweep (ext_sensitivity)."""

import pytest

from repro.experiments.ext_sensitivity import run as sensitivity_run, scaled_soc
from repro.hardware.soc import get_soc


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


class TestSensitivity:
    def test_scaled_soc_scales_coupling(self, kirin):
        doubled = scaled_soc(kirin, 2.0)
        for pair, value in kirin.coupling.items():
            assert doubled.coupling[pair] == pytest.approx(2 * value)

    def test_scaled_soc_validation(self, kirin):
        with pytest.raises(ValueError):
            scaled_soc(kirin, -1.0)

    def test_ordering_robust_across_scales(self, kirin):
        points = sensitivity_run(coupling_scales=(0.0, 1.0, 2.0), num_combinations=3)
        assert len(points) == 3
        for point in points:
            # H2P dominates serial MNN and stays competitive with Band
            # regardless of how strong contention is assumed to be.
            assert point.speedup_vs_mnn > 1.5
            assert point.speedup_vs_band > 0.9
