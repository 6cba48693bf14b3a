"""Tests for the ablation and energy experiment modules."""

import pytest

from repro.experiments import ablations, energy
from repro.experiments.harness import clear_cache


class TestCoalescing:
    def test_rates_bounded(self):
        stats = ablations.coalescing_effectiveness(
            graphs=["WK"], algorithms=["sssp"]
        )
        assert len(stats) == 1
        assert 0.0 <= stats[0].rate < 1.0
        assert stats[0].inserts > 0

    def test_zero_inserts_rate(self):
        stat = ablations.CoalescingStat("x", "y", inserts=0, coalesced=0)
        assert stat.rate == 0.0


class TestOverheadSensitivity:
    def test_advantage_grows_with_floor(self):
        points = ablations.software_overhead_sensitivity(
            overheads_us=(0.0, 200.0), batch_sizes=(8,)
        )
        assert points[0].advantage < points[1].advantage


class TestEnergy:
    @pytest.fixture(scope="class", autouse=True)
    def fresh_cache(self):
        clear_cache()
        yield

    def test_gain_positive(self):
        points = energy.run(graphs=["WK"], algorithms=["sssp"])
        assert len(points) == 1
        assert points[0].efficiency_gain > 1.0
        assert points[0].jetstream_mj > 0

    def test_render_has_gmean(self):
        points = energy.run(graphs=["WK"], algorithms=["sssp"])
        text = energy.render(points)
        assert "GMean" in text

    def test_mean_gain(self):
        points = [
            energy.EnergyPoint("a", "g", jetstream_mj=1.0, graphpulse_mj=4.0),
            energy.EnergyPoint("a", "h", jetstream_mj=1.0, graphpulse_mj=16.0),
        ]
        assert energy.mean_gain(points) == pytest.approx(8.0)

    def test_zero_energy_gain_inf(self):
        point = energy.EnergyPoint("a", "g", jetstream_mj=0.0, graphpulse_mj=1.0)
        assert point.efficiency_gain == float("inf")
