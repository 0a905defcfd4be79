"""Live chaos for the service: flash-crowd load and misbehaving sinks.

The batch harness injects faults per transfer (:mod:`repro.sim.faults`);
the service needs chaos at two more layers:

* **ingress** -- :class:`FlashCrowdScenario` generates a deterministic,
  seeded event schedule: Poisson background traffic that spikes by a
  multiplier during a crowd window, with the spike concentrated on a
  hotspot subset of users (that concentration is what actually overflows
  *per-user* bounded queues);
* **egress** -- :class:`FlakySink` fails or stalls deliveries from a
  seeded stream, driving the guarded sinks' timeout, retry and breaker
  paths, optionally with a hard outage window for deterministic breaker
  trips.

Both are pure functions of their seeds: a chaos run replays bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.content import ContentItem, ContentKind
from repro.runtime.types import Delivery
from repro.service.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import NotificationService


@dataclass(frozen=True, slots=True)
class ScheduledEvent:
    """One planned ingest: when, for whom, what kind."""

    time: float
    user_id: int
    kind: ContentKind


#: Fraction of users that receive the crowd's concentrated traffic.
HOTSPOT_FRACTION = 0.3
#: Probability a crowd event targets the hotspot subset.
HOTSPOT_WEIGHT = 0.8


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Shape of the load: background Poisson + a concentrated spike."""

    n_users: int = 20
    duration_seconds: float = 600.0
    #: Aggregate background arrival rate (events/second).
    base_rate: float = 0.5
    crowd_start: float = 180.0
    crowd_duration: float = 120.0
    #: Multiplier on ``base_rate`` inside the crowd window.
    crowd_multiplier: float = 20.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 <= self.crowd_start <= self.duration_seconds:
            raise ValueError("crowd_start must lie within the run")
        if self.crowd_duration < 0:
            raise ValueError("crowd_duration must be >= 0")
        if self.crowd_multiplier < 1:
            raise ValueError("crowd_multiplier must be >= 1")

    def rate_at(self, t: float) -> float:
        in_crowd = (
            self.crowd_start <= t < self.crowd_start + self.crowd_duration
        )
        return self.base_rate * (self.crowd_multiplier if in_crowd else 1.0)


#: Builds the ContentItem for one scheduled event; supplied by the
#: harness so chaos stays ignorant of ladders and utility models.
ItemFactory = Callable[[int, ScheduledEvent], ContentItem]

_KINDS = (
    ContentKind.FRIEND_FEED,
    ContentKind.ALBUM_RELEASE,
    ContentKind.PLAYLIST_UPDATE,
)


class FlashCrowdScenario:
    """Deterministic flash-crowd event schedule + ingest driver."""

    def __init__(
        self,
        config: FlashCrowdConfig,
        item_factory: ItemFactory,
        seed: int = 23,
    ) -> None:
        self.config = config
        self.seed = seed
        self._item_factory = item_factory
        self._schedule: list[ScheduledEvent] | None = None

    def schedule(self) -> list[ScheduledEvent]:
        """The full event timeline (cached; same seed, same timeline)."""
        if self._schedule is not None:
            return self._schedule
        config = self.config
        rng = random.Random(self.seed)
        hotspot_count = max(1, round(config.n_users * HOTSPOT_FRACTION))
        hotspot = list(range(hotspot_count))
        everyone = list(range(config.n_users))
        events: list[ScheduledEvent] = []
        t = 0.0
        while True:
            # Thinning-free piecewise-homogeneous Poisson: draw the gap at
            # the current regime's rate.
            t += rng.expovariate(config.rate_at(t))
            if t >= config.duration_seconds:
                break
            in_crowd = (
                config.crowd_start <= t < config.crowd_start + config.crowd_duration
            )
            if in_crowd and rng.random() < HOTSPOT_WEIGHT:
                user_id = hotspot[rng.randrange(len(hotspot))]
            else:
                user_id = everyone[rng.randrange(len(everyone))]
            kind = _KINDS[rng.randrange(len(_KINDS))]
            events.append(ScheduledEvent(time=t, user_id=user_id, kind=kind))
        self._schedule = events
        return events

    async def drive(
        self, service: "NotificationService", clock: Clock
    ) -> list:
        """Feed the schedule into the service on its clock; returns the
        per-event :class:`~repro.service.queues.IngestResult` list.

        One wake ingests every arrival due before the clock's next live
        sleeper: after a sleep, ``clock.advance_to`` steps to each further
        arrival -- to the float the sleep would have parked at -- until a
        sleeper is due first, and only then does the driver sleep again.
        The first step does not advance: tasks started with the driver
        have not run yet.  A live clock refuses every step, so a live run
        sleeps once per arrival."""
        start = clock.now()
        results = []
        woken = False
        for index, event in enumerate(self.schedule()):
            delay = start + event.time - clock.now()
            if delay > 0 and not (woken and clock.advance_to(clock.now() + delay)):
                await clock.sleep(delay)
                woken = True
            item = self._item_factory(index, event)
            results.append(service.ingest(item))
        return results


class SinkFault(Exception):
    """Injected egress failure."""


class FlakySink:
    """A delivery sink that fails and stalls from a seeded stream.

    ``p_fail`` raises immediately; ``p_stall`` sleeps ``stall_seconds``
    on the service clock before succeeding -- long stalls exceed the
    guarded sink's per-delivery timeout and exercise the cancel path.
    An ``outage`` window ``(t0, t1)`` fails every attempt inside it,
    deterministically tripping the circuit breaker.
    """

    def __init__(
        self,
        clock: Clock,
        rng: random.Random,
        p_fail: float = 0.0,
        p_stall: float = 0.0,
        stall_seconds: float = 30.0,
        outage: tuple[float, float] | None = None,
    ) -> None:
        if not 0.0 <= p_fail <= 1.0:
            raise ValueError(f"p_fail must be in [0, 1], got {p_fail}")
        if not 0.0 <= p_stall <= 1.0 - p_fail:
            raise ValueError(
                f"p_stall must be in [0, {1.0 - p_fail:g}], got {p_stall}"
            )
        if not stall_seconds >= 0:  # NaN too
            raise ValueError(f"stall_seconds must be >= 0, got {stall_seconds}")
        self._clock = clock
        self._rng = rng
        self.p_fail = p_fail
        self.p_stall = p_stall
        self.stall_seconds = stall_seconds
        self.outage = outage
        self.delivered: list[Delivery] = []
        self.faults_injected = 0
        self.stalls_injected = 0

    async def __call__(self, delivery: Delivery) -> None:
        now = self._clock.now()
        if self.outage is not None and self.outage[0] <= now < self.outage[1]:
            self.faults_injected += 1
            raise SinkFault(f"outage window at t={now:g}")
        draw = self._rng.random()
        if draw < self.p_fail:
            self.faults_injected += 1
            raise SinkFault(f"injected failure at t={now:g}")
        if draw < self.p_fail + self.p_stall:
            self.stalls_injected += 1
            await self._clock.sleep(self.stall_seconds)
        self.delivered.append(delivery)
