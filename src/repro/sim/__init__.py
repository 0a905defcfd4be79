"""Connectivity, battery, energy and fault models of the simulated device."""

from repro.sim.network import (
    CellularOnlyNetwork,
    MarkovNetworkModel,
    NetworkState,
    SporadicCellularNetwork,
    TraceConnectivity,
    stationary_distribution,
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
