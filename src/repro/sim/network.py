"""Markov-chain connectivity model: WIFI / CELL / OFF.

Section V-D3 simulates network conditions "by using a Markov transition
model (as given in [6]) among three states, namely WIFI, CELL and OFF ...
We use 50% probability to remain in the current network condition and equal
probability of transiting to cell or wifi when off."

The chain transitions once per round.  Each state carries a nominal
bandwidth so devices can bound the bytes deliverable within a round, and a
radio type so the energy model can price transfers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum


class NetworkState(str, Enum):
    WIFI = "wifi"
    CELL = "cell"
    OFF = "off"


#: The paper's transition matrix: 0.5 self-loop, remainder split evenly.
DEFAULT_TRANSITIONS: dict[NetworkState, dict[NetworkState, float]] = {
    NetworkState.WIFI: {
        NetworkState.WIFI: 0.5,
        NetworkState.CELL: 0.25,
        NetworkState.OFF: 0.25,
    },
    NetworkState.CELL: {
        NetworkState.WIFI: 0.25,
        NetworkState.CELL: 0.5,
        NetworkState.OFF: 0.25,
    },
    NetworkState.OFF: {
        NetworkState.WIFI: 0.25,
        NetworkState.CELL: 0.25,
        NetworkState.OFF: 0.5,
    },
}

#: Nominal downlink bandwidth per state (bytes per second).
DEFAULT_BANDWIDTH_BPS: dict[NetworkState, float] = {
    NetworkState.WIFI: 5_000_000 / 8,  # 5 Mbps
    NetworkState.CELL: 1_000_000 / 8,  # 1 Mbps
    NetworkState.OFF: 0.0,
}


def _validate_transitions(
    transitions: dict[NetworkState, dict[NetworkState, float]]
) -> None:
    for state in NetworkState:
        if state not in transitions:
            raise ValueError(f"missing transition row for {state}")
        row = transitions[state]
        total = sum(row.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"row for {state} sums to {total}, expected 1")
        if any(p < 0 for p in row.values()):
            raise ValueError(f"negative probability in row for {state}")


@dataclass
class MarkovNetworkModel:
    """Per-user connectivity evolving as a Markov chain, one step per round.

    Parameters
    ----------
    transitions:
        Row-stochastic transition matrix; defaults to the paper's.
    bandwidth_bps:
        Bytes-per-second capacity per state.
    initial_state:
        Starting state (CELL by default, matching a mobile user on the go).
    rng:
        Dedicated random stream so connectivity is reproducible
        independently of workload randomness.
    """

    transitions: dict[NetworkState, dict[NetworkState, float]] = field(
        default_factory=lambda: DEFAULT_TRANSITIONS
    )
    bandwidth_bps: dict[NetworkState, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTH_BPS)
    )
    initial_state: NetworkState = NetworkState.CELL
    rng: random.Random = field(default_factory=random.Random)
    _state: NetworkState = field(init=False)

    def __post_init__(self) -> None:
        _validate_transitions(self.transitions)
        for state in NetworkState:
            if state not in self.bandwidth_bps:
                raise ValueError(f"missing bandwidth for {state}")
            if self.bandwidth_bps[state] < 0:
                raise ValueError(
                    f"bandwidth for {state} must be >= 0, "
                    f"got {self.bandwidth_bps[state]}"
                )
        self._state = self.initial_state

    @property
    def state(self) -> NetworkState:
        return self._state

    @property
    def connected(self) -> bool:
        return self._state is not NetworkState.OFF

    @property
    def bandwidth(self) -> float:
        """Current downlink capacity in bytes/second (0 when OFF)."""
        return self.bandwidth_bps[self._state]

    def step(self) -> NetworkState:
        """Advance the chain one round and return the new state."""
        row = self.transitions[self._state]
        draw = self.rng.random()
        cumulative = 0.0
        for state, probability in row.items():
            cumulative += probability
            if draw < cumulative:
                self._state = state
                return self._state
        # Guard against floating-point shortfall in the row sum.
        self._state = list(row)[-1]
        return self._state

    def capacity_per_round(self, round_seconds: float) -> float:
        """Upper bound on bytes deliverable this round at current state."""
        if round_seconds < 0:
            raise ValueError("round duration must be >= 0")
        return self.bandwidth * round_seconds


@dataclass
class CellularOnlyNetwork:
    """Degenerate model for the cellular-only experiments (Fig. 5b).

    Always CELL: the device is sporadically connected through a budgeted
    data plan, as in the main experiment setup (Section V-C), with the data
    budget -- not connectivity -- as the binding constraint.
    """

    bandwidth_cell_bps: float = DEFAULT_BANDWIDTH_BPS[NetworkState.CELL]

    @property
    def state(self) -> NetworkState:
        return NetworkState.CELL

    @property
    def connected(self) -> bool:
        return True

    @property
    def bandwidth(self) -> float:
        return self.bandwidth_cell_bps

    def step(self) -> NetworkState:
        return NetworkState.CELL

    def capacity_per_round(self, round_seconds: float) -> float:
        if round_seconds < 0:
            raise ValueError("round duration must be >= 0")
        return self.bandwidth * round_seconds


class TraceConnectivity:
    """Replays a recorded per-round connectivity trace.

    Useful for deterministic tests and for feeding measured connectivity
    logs into the simulator.  ``step()`` consumes one state per round; the
    final state persists once the trace is exhausted.
    """

    def __init__(
        self,
        states: "list[NetworkState]",
        bandwidth_bps: "dict[NetworkState, float] | None" = None,
    ) -> None:
        if not states:
            raise ValueError(
                "connectivity trace must contain at least one state "
                "(got an empty state list)"
            )
        self._states = list(states)
        for position, state in enumerate(self._states):
            if not isinstance(state, NetworkState):
                raise ValueError(
                    f"trace entry {position} must be a NetworkState, "
                    f"got {state!r}"
                )
        self._bandwidth = dict(bandwidth_bps or DEFAULT_BANDWIDTH_BPS)
        for state in NetworkState:
            if state not in self._bandwidth:
                raise ValueError(f"missing bandwidth for {state}")
            if self._bandwidth[state] < 0:
                raise ValueError(
                    f"bandwidth for {state} must be >= 0, "
                    f"got {self._bandwidth[state]}"
                )
        self._index = -1  # step() moves to 0 on the first round

    @property
    def state(self) -> NetworkState:
        return self._states[max(0, min(self._index, len(self._states) - 1))]

    @property
    def connected(self) -> bool:
        return self.state is not NetworkState.OFF

    @property
    def bandwidth(self) -> float:
        return self._bandwidth[self.state]

    def step(self) -> NetworkState:
        if self._index < len(self._states) - 1:
            self._index += 1
        return self.state

    def capacity_per_round(self, round_seconds: float) -> float:
        if round_seconds < 0:
            raise ValueError("round duration must be >= 0")
        return self.bandwidth * round_seconds
