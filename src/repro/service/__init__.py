"""The live notification service: asyncio ingest -> schedule -> deliver.

The batch harness (:mod:`repro.experiments`) replays rounds offline; this
package runs them *continuously*, the deployment shape of Section II:

* :mod:`repro.service.queues` -- the ingest frontier: bounded per-user
  queues that shed with explicit ``Overload`` results instead of growing;
* :mod:`repro.service.ratelimit` -- tiered token buckets
  (global / per-user / per-topic) bounding fan-out;
* :mod:`repro.service.degrade` -- the overload degradation ladder: shed
  rich-media levels first, then defer ingest, then shed outright,
  recovering automatically as pressure clears;
* :mod:`repro.service.timers` -- per-user round timers with deterministic
  phase staggering;
* :mod:`repro.service.sinks` -- async delivery adapters with per-delivery
  timeouts, jittered retry budgets and circuit breakers (the one driver
  of :class:`repro.core.breaker.SinkCircuit`);
* :mod:`repro.service.server` -- :class:`NotificationService`, the
  composition of all of the above around ``runtime/loop.py`` round loops;
* :mod:`repro.service.health` -- the service's counters and latency
  percentiles (the conservation ledger is
  :meth:`NotificationService.accounting`);
* :mod:`repro.service.chaos` -- flash-crowd load and flaky sinks for
  chaos runs;
* :mod:`repro.service.clock` -- real monotonic vs simulated time, each
  with ``now``, ``sleep`` and the ``timeout`` deadline scope;
* :mod:`repro.service.harness` -- the self-contained demo harness
  behind ``richnote serve``.

Every duration in this package is measured on a monotonic clock
(``time.monotonic`` or simulated time) -- no wall-clock read appears
outside ``service/clock.py`` (``tests/test_reproducibility.py::TestHostClock``).
"""

from repro.service.clock import (
    Clock,
    ClockStalled,
    DeadlineScope,
    MonotonicClock,
    SimulatedClock,
)
from repro.service.degrade import (
    DegradationConfig,
    DegradationController,
    PressureLevel,
)
from repro.service.health import ServiceStats
from repro.service.queues import (
    Admission,
    BoundedUserQueue,
    IngestFrontier,
    IngestResult,
    QueuedEvent,
)
from repro.service.ratelimit import (
    RateDecision,
    RateLimitConfig,
    TieredRateLimiter,
    TokenBucket,
)
from repro.service.server import NotificationService, ServiceConfig
from repro.service.sinks import GuardedSink, SinkPolicy, SinkTimeout
from repro.service.timers import RoundTimers

__all__ = [
    "Admission",
    "BoundedUserQueue",
    "Clock",
    "ClockStalled",
    "DeadlineScope",
    "DegradationConfig",
    "DegradationController",
    "GuardedSink",
    "IngestFrontier",
    "IngestResult",
    "MonotonicClock",
    "NotificationService",
    "PressureLevel",
    "QueuedEvent",
    "RateDecision",
    "RateLimitConfig",
    "RoundTimers",
    "ServiceConfig",
    "ServiceStats",
    "SimulatedClock",
    "SinkPolicy",
    "SinkTimeout",
    "TieredRateLimiter",
    "TokenBucket",
]
