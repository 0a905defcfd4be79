"""Service health: the counters behind conservation accounting, and
latency percentiles.

Every event offered to the service must end in exactly one place.  The
conservation identity the chaos gate asserts (integers, exact;
:meth:`repro.service.server.NotificationService.accounting` reports it):

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

