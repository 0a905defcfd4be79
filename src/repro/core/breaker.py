"""The count-based circuit breaker guarding one notification sink.

Its one driver is the live service's
:class:`repro.service.sinks.GuardedSink`, which calls ``allow`` before a
delivery attempt and ``record_success`` / ``record_failure`` after it.
The state machine is plain and synchronous, so it is tested on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["BreakerState", "CircuitBreakerConfig", "SinkCircuit"]


class BreakerState(str, Enum):
    """Circuit-breaker states for one registered sink."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-sink breaker tuning.

    After ``failure_threshold`` consecutive sink exceptions the breaker
    OPENs and the sink is skipped for ``cooldown_skips`` deliveries; it
    then goes HALF_OPEN and lets one probe notification through -- success
    re-CLOSEs it, failure re-OPENs it.
    """

    failure_threshold: int = 3
    cooldown_skips: int = 8

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_skips < 1:
            raise ValueError("cooldown_skips must be >= 1")


class SinkCircuit:
    """Breaker state machine guarding one sink.

    HALF_OPEN admits exactly one probe per window: ``allow()`` marks a
    probe in flight, and until :meth:`record_success` /
    :meth:`record_failure` resolves it every further ``allow()`` is
    refused.  The async sinks of :mod:`repro.service.sinks` hold
    deliveries in flight across awaits -- without the in-flight latch a
    thundering herd of concurrent probes would all pass through a
    half-open breaker at once.
    """

    def __init__(self, config: CircuitBreakerConfig) -> None:
        self.config = config
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._skips_remaining = 0
        self._probe_in_flight = False

    def allow(self) -> tuple[bool, bool]:
        """(may the sink be called, did the state transition)."""
        if self.state is BreakerState.OPEN:
            if self._skips_remaining > 0:
                self._skips_remaining -= 1
                return False, False
            self.state = BreakerState.HALF_OPEN
            self._probe_in_flight = True
            return True, True
        if self.state is BreakerState.HALF_OPEN:
            if self._probe_in_flight:
                return False, False
            self._probe_in_flight = True
            return True, False
        return True, False

    def record_success(self) -> bool:
        """Returns True when the breaker transitioned (re-closed)."""
        self._probe_in_flight = False
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            return True
        return False

    def record_failure(self) -> bool:
        """Returns True when the breaker transitioned (opened)."""
        self._probe_in_flight = False
        self.consecutive_failures += 1
        should_open = (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.config.failure_threshold
        )
        if should_open and self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self._skips_remaining = self.config.cooldown_skips
            return True
        return False
