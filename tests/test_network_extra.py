"""Tests for the trace-driven connectivity model."""

import pytest

from repro.sim.network import NetworkState, TraceConnectivity


class TestTraceConnectivity:
    def test_replays_states_in_order(self):
        trace = TraceConnectivity(
            [NetworkState.OFF, NetworkState.CELL, NetworkState.WIFI]
        )
        assert trace.step() is NetworkState.OFF
        assert trace.step() is NetworkState.CELL
        assert trace.step() is NetworkState.WIFI

    def test_last_state_persists(self):
        trace = TraceConnectivity([NetworkState.CELL])
        for _ in range(5):
            assert trace.step() is NetworkState.CELL

    def test_bandwidth_follows_state(self):
        trace = TraceConnectivity([NetworkState.WIFI, NetworkState.OFF])
        trace.step()
        wifi_capacity = trace.capacity_per_round(10.0)
        assert wifi_capacity > 0
        trace.step()
        assert trace.capacity_per_round(10.0) == 0.0
        assert not trace.connected

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceConnectivity([])

    def test_custom_bandwidth_validated(self):
        with pytest.raises(ValueError):
            TraceConnectivity(
                [NetworkState.CELL], bandwidth_bps={NetworkState.CELL: 1.0}
            )

    def test_works_as_device_network(self):
        """TraceConnectivity satisfies the ConnectivityModel protocol."""
        from repro.sim.battery import BatterySample, BatteryTrace
        from repro.sim.device import MobileDevice

        device = MobileDevice(
            user_id=1,
            network=TraceConnectivity([NetworkState.OFF, NetworkState.CELL]),
            battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
        )
        device.begin_round(0.0, 3600.0)
        assert not device.connected
        device.begin_round(3600.0, 3600.0)
        assert device.connected
        assert device.stats.rounds_connected == 1
