"""Service health: conservation accounting and latency percentiles.

Every event offered to the service must end in exactly one place.  The
conservation identity the chaos gate asserts (integers, exact):

    ingested == delivered + shed + deferred_pending + dead_lettered
                + pending

where ``pending`` counts events still queued (frontier + round loops)
and ``deferred_pending`` counts events parked in the deferred buffer.
Any drift means an event was double-counted or silently dropped.

Latency is end-to-end on the service clock: ingest admission to sink
confirmation, including scheduling wait, retries and backoff.  The p50 /
p99 quantiles use the nearest-rank method (deterministic, no
interpolation surprises at tiny sample counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.service.degrade import PressureLevel


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 on an empty sample set."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ServiceStats:
    """Cumulative counters; the single source of truth for accounting."""

    ingested: int = 0
    admitted: int = 0
    delivered: int = 0
    delivered_bytes: float = 0.0
    delivered_utility: float = 0.0
    dead_lettered: int = 0
    deferred_total: int = 0
    readmitted: int = 0
    shed_queue_full: int = 0
    shed_rate_limited: int = 0
    shed_overload: int = 0
    rounds_run: int = 0
    ticks: int = 0
    dead_letter_reasons: dict[str, int] = field(default_factory=dict)
    #: End-to-end seconds (service clock) per delivered item.
    latencies: list[float] = field(default_factory=list)

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_rate_limited + self.shed_overload

    def record_dead_letter(self, reason: str) -> None:
        self.dead_lettered += 1
        self.dead_letter_reasons[reason] = (
            self.dead_letter_reasons.get(reason, 0) + 1
        )

    def record_delivery(self, latency: float, size_bytes: float, utility: float) -> None:
        self.delivered += 1
        self.delivered_bytes += size_bytes
        self.delivered_utility += utility
        self.latencies.append(latency)

    def latency_quantile(self, q: float) -> float:
        return quantile(self.latencies, q)


@dataclass(frozen=True)
class HealthSnapshot:
    """Point-in-time health view (what a /healthz endpoint would serve)."""

    time: float
    pressure_level: PressureLevel
    pressure: float
    queue_depth: int
    queue_high_water: int
    deferred_pending: int
    loop_backlog: int
    breaker_states: tuple[str, ...]
    conservation_error: int

    @property
    def healthy(self) -> bool:
        """Conserving and not shedding: the green-check definition."""
        return (
            self.conservation_error == 0
            and self.pressure_level < PressureLevel.SHED
        )

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "pressure_level": self.pressure_level.name,
            "pressure": self.pressure,
            "queue_depth": self.queue_depth,
            "queue_high_water": self.queue_high_water,
            "deferred_pending": self.deferred_pending,
            "loop_backlog": self.loop_backlog,
            "breaker_states": list(self.breaker_states),
            "conservation_error": self.conservation_error,
            "healthy": self.healthy,
        }
