"""Connectivity, battery, energy and fault models of the simulated device.

Connectivity follows the paper's two regimes (``NetworkMode``): the
WIFI/CELL/OFF :class:`MarkovNetworkModel` and :class:`CellularOnlyNetwork`;
:class:`TraceConnectivity` replays a scripted state sequence.
"""

from repro.sim.network import (
    CellularOnlyNetwork,
    MarkovNetworkModel,
    NetworkState,
    TraceConnectivity,
)
from repro.sim.energy import (
    GSM_PROFILE,
    THREEG_PROFILE,
    WIFI_PROFILE,
    RadioProfile,
    TransferEnergyModel,
)
from repro.sim.battery import BatterySample, BatteryTrace, DiurnalBatteryModel
from repro.sim.device import DeviceStats, MobileDevice
from repro.sim.faults import (
    NO_FAULTS,
    FaultConfig,
    FaultKind,
    FaultOutcome,
    FaultPolicy,
    FlakyConnectivity,
    RandomFaultPolicy,
    ScriptedFaultPolicy,
    TransferContext,
)
