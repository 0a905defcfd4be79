"""Seeded fault injection for the delivery path.

The paper's evaluation assumes transfers either complete within a round or
are held for a later one; real mobile delivery fails *mid-flight*: radios
drop out halfway through a preview, transfers stall past their deadline,
downloads arrive corrupted, push channels reject messages.  This module
models those outcomes so the delivery engine
(:class:`repro.core.delivery.DeliveryEngine`) can exercise retry, refund
and dead-letter paths under a controlled, reproducible failure surface.

Composition with connectivity: faults are drawn *per transfer attempt* and
are independent of the round-level connectivity model, so any
:class:`~repro.sim.device.ConnectivityModel` (Markov, trace-driven,
cellular-only) can sit underneath.  :class:`FlakyConnectivity` additionally
wraps a connectivity model with seeded whole-round outages for chaos runs.

Reproducibility contract: every random draw flows through an explicit
``random.Random`` handed in by the caller -- nothing in this module touches
the module-level ``random`` state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from repro.sim.network import NetworkState


class FaultKind(str, Enum):
    """How a delivery attempt can fail."""

    #: The radio dropped mid-transfer; a prefix of the bytes was spent.
    DISCONNECT = "disconnect"
    #: The transfer stalled past its deadline; nothing usable arrived.
    TIMEOUT = "timeout"
    #: All bytes transferred but the payload failed validation.
    CORRUPT = "corrupt"
    #: The push channel refused the message before any transfer started.
    REJECT = "reject"


@dataclass(frozen=True)
class FaultOutcome:
    """One injected failure.

    ``fraction_completed`` is the fraction of the attempt's bytes actually
    spent over the air before the failure -- those bytes are charged to the
    user (wasted); the remainder is refunded to the data budget.
    """

    kind: FaultKind
    fraction_completed: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction_completed <= 1.0:
            raise ValueError(
                f"fraction_completed must be in [0, 1], "
                f"got {self.fraction_completed}"
            )


@dataclass(frozen=True)
class TransferContext:
    """What a fault policy may condition on when judging an attempt."""

    item_id: int
    level: int
    size_bytes: int
    attempt: int  # 1-based attempt number for this item
    time: float
    network_state: NetworkState


class FaultPolicy(Protocol):
    """Decides whether a transfer attempt fails and how.

    Implementations must be deterministic given (context, rng state): all
    randomness must come from the ``rng`` argument.
    """

    def sample(
        self, context: TransferContext, rng: random.Random
    ) -> FaultOutcome | None: ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FaultConfig:
    """Per-attempt fault probabilities for :class:`RandomFaultPolicy`.

    Probabilities are mutually exclusive per attempt (at most one fault
    fires) and must sum to at most 1.  Disconnects spend a uniformly drawn
    fraction of the bytes in ``[disconnect_fraction_min,
    disconnect_fraction_max]``; corrupt downloads spend all bytes; timeouts
    and rejections spend none.
    """

    p_disconnect: float = 0.0
    p_timeout: float = 0.0
    p_corrupt: float = 0.0
    p_reject: float = 0.0
    disconnect_fraction_min: float = 0.1
    disconnect_fraction_max: float = 0.9
    #: Risk multiplier applied to all probabilities on a CELL radio
    #: (cellular links drop more often than WiFi); 1.0 = no difference.
    cell_multiplier: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_disconnect", "p_timeout", "p_corrupt", "p_reject"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.total_probability > 1.0 + 1e-12:
            raise ValueError(
                f"fault probabilities sum to {self.total_probability:g}, "
                "expected <= 1"
            )
        if not 0.0 <= self.disconnect_fraction_min <= self.disconnect_fraction_max <= 1.0:
            raise ValueError(
                "need 0 <= disconnect_fraction_min <= "
                "disconnect_fraction_max <= 1"
            )
        if self.cell_multiplier < 0:
            raise ValueError("cell_multiplier must be >= 0")

    @property
    def total_probability(self) -> float:
        return self.p_disconnect + self.p_timeout + self.p_corrupt + self.p_reject

    @property
    def enabled(self) -> bool:
        return self.total_probability > 0.0


#: Convenience config that injects nothing (delivery reduces to the
#: fault-free fast path, byte for byte).
NO_FAULTS = FaultConfig()


class RandomFaultPolicy:
    """Bernoulli fault injection driven by a :class:`FaultConfig`."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    def sample(
        self, context: TransferContext, rng: random.Random
    ) -> FaultOutcome | None:
        config = self.config
        scale = (
            config.cell_multiplier
            if context.network_state is NetworkState.CELL
            else 1.0
        )
        draw = rng.random()
        cumulative = 0.0
        for kind, probability in (
            (FaultKind.DISCONNECT, config.p_disconnect),
            (FaultKind.TIMEOUT, config.p_timeout),
            (FaultKind.CORRUPT, config.p_corrupt),
            (FaultKind.REJECT, config.p_reject),
        ):
            cumulative += min(1.0, probability * scale)
            if draw < cumulative:
                if kind is FaultKind.DISCONNECT:
                    fraction = rng.uniform(
                        config.disconnect_fraction_min,
                        config.disconnect_fraction_max,
                    )
                elif kind is FaultKind.CORRUPT:
                    fraction = 1.0
                else:
                    fraction = 0.0
                return FaultOutcome(kind=kind, fraction_completed=fraction)
        return None


class ScriptedFaultPolicy:
    """Replays a fixed outcome sequence -- deterministic tests and repros.

    Each delivery attempt consumes the next entry (``None`` = success);
    once the script is exhausted every further attempt succeeds.
    """

    def __init__(self, outcomes: list[FaultOutcome | None]) -> None:
        self._outcomes = list(outcomes)
        self._cursor = 0

    def sample(
        self, context: TransferContext, rng: random.Random
    ) -> FaultOutcome | None:
        del context, rng
        if self._cursor >= len(self._outcomes):
            return None
        outcome = self._outcomes[self._cursor]
        self._cursor += 1
        return outcome


@dataclass(frozen=True)
class FlashCrowd:
    """A flash-crowd window on one cell: heavy arrivals for some rounds.

    The fault layer only describes *when and where* the crowd is active;
    the experiment harness decides what "heavy" means (extra arrivals per
    crowd user per round).  Combined with
    :class:`repro.pubsub.capacity.SharedCellCapacity` this is the chaos
    scenario the per-user fault model cannot express: one cohort's burst
    degrades unrelated bystanders on the same tower.
    """

    cell: int
    first_round: int
    rounds: int
    extra_items_per_round: int = 4

    def __post_init__(self) -> None:
        if self.first_round < 0:
            raise ValueError("first_round must be >= 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.extra_items_per_round < 1:
            raise ValueError("extra_items_per_round must be >= 1")

    def active(self, round_index: int) -> bool:
        return self.first_round <= round_index < self.first_round + self.rounds


class FlakyConnectivity:
    """Wrap any connectivity model with seeded whole-round outages.

    With probability ``p_outage`` a round that the base model reports as
    connected is forced OFF -- chaos at the connectivity layer, composable
    with :class:`~repro.sim.network.MarkovNetworkModel`,
    :class:`~repro.sim.network.TraceConnectivity`, or any other model
    satisfying :class:`~repro.sim.device.ConnectivityModel`.
    """

    def __init__(self, base, p_outage: float, rng: random.Random) -> None:
        if not 0.0 <= p_outage <= 1.0:
            raise ValueError(f"p_outage must be in [0, 1], got {p_outage}")
        self.base = base
        self.p_outage = p_outage
        self.rng = rng
        self._forced_off = False

    @property
    def state(self) -> NetworkState:
        return NetworkState.OFF if self._forced_off else self.base.state

    @property
    def connected(self) -> bool:
        return (not self._forced_off) and self.base.connected

    @property
    def bandwidth(self) -> float:
        return 0.0 if self._forced_off else self.base.bandwidth

    def step(self) -> NetworkState:
        self.base.step()
        self._forced_off = (
            self.base.connected and self.rng.random() < self.p_outage
        )
        return self.state

    def capacity_per_round(self, round_seconds: float) -> float:
        if round_seconds < 0:
            raise ValueError("round duration must be >= 0")
        return 0.0 if self._forced_off else self.base.capacity_per_round(
            round_seconds
        )
