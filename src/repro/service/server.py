""":class:`NotificationService`: the live ingest -> schedule -> deliver loop.

One service instance owns, per Section IV's deployment shape:

* an :class:`~repro.service.queues.IngestFrontier` of bounded per-user
  queues fed by the synchronous :meth:`NotificationService.ingest` (which
  answers every offer with an explicit
  :class:`~repro.service.queues.IngestResult`);
* a :class:`~repro.service.ratelimit.TieredRateLimiter` gating admission
  at global / per-user / per-topic granularity;
* per-user :class:`~repro.runtime.loop.RoundLoop` instances fired by
  staggered :class:`~repro.service.timers.RoundTimers` -- the *same*
  selection machinery the batch experiments replay, now running live;
* :class:`~repro.service.sinks.GuardedSink` egress adapters (timeouts,
  jittered retries, circuit breakers);
* a :class:`~repro.service.degrade.DegradationController` that watches
  queue pressure and egress health and walks the overload ladder:
  rich-media level caps, then ingest deferral, then shedding -- and back
  down again as pressure clears.

The scheduler is a single asyncio task: it sleeps on the service clock
until the next round deadline, updates the pressure controller, drains
due users' queues into their loops, runs the rounds and hands the
tick's deliveries to one egress task.  All state mutation happens on the
event loop -- no locks, deterministic under the simulated clock.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.breaker import BreakerState, CircuitBreakerConfig
from repro.core.content import ContentItem
from repro.runtime.loop import RoundLoop
from repro.runtime.types import Delivery
from repro.service.clock import Clock, MonotonicClock
from repro.service.degrade import DegradationConfig, DegradationController
from repro.service.health import ServiceStats
from repro.service.queues import (
    Admission,
    IngestFrontier,
    IngestResult,
    QueuedEvent,
)
from repro.service.ratelimit import RateLimitConfig, TieredRateLimiter
from repro.service.sinks import DeliverySink, GuardedSink, SinkPolicy
from repro.service.timers import RoundTimers


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning for one service instance."""

    round_seconds: float = 60.0
    queue_bound: int = 32
    deferred_bound: int = 256
    #: Deferred events re-admitted per scheduler tick once pressure clears.
    readmit_per_tick: int = 32
    seed: int = 23
    rate: RateLimitConfig = field(default_factory=RateLimitConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)
    sink_policy: SinkPolicy = field(default_factory=SinkPolicy)
    breaker: CircuitBreakerConfig = field(default_factory=CircuitBreakerConfig)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.round_seconds) and self.round_seconds > 0):
            raise ValueError(
                f"round_seconds must be finite and positive, got {self.round_seconds}"
            )
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        if self.deferred_bound < 0:
            raise ValueError("deferred_bound must be >= 0")
        if self.readmit_per_tick < 1:
            raise ValueError("readmit_per_tick must be >= 1")


class NotificationService:
    """The continuously running notification pipeline."""

    def __init__(
        self,
        loop_factory: Callable[[int], RoundLoop],
        user_ids: Sequence[int],
        config: ServiceConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        if not user_ids:
            raise ValueError("service needs at least one user")
        self.config = config or ServiceConfig()
        self.clock = clock or MonotonicClock()
        # Counters are bumped by the scheduler task, ingest callers and
        # egress tasks alike; all of them run on the one event loop and
        # never yield mid-update.
        self.stats = ServiceStats()
        self.controller = DegradationController(self.config.degradation)
        self.frontier = IngestFrontier(self.config.queue_bound)
        self.limiter = TieredRateLimiter(self.config.rate, self.clock.now())
        self.timers = RoundTimers(
            self.config.round_seconds, seed=self.config.seed
        )
        self.sinks: list[GuardedSink] = []
        self._loop_factory = loop_factory
        self._loops: dict[int, RoundLoop] = {}
        self._user_ids = sorted(set(user_ids))
        #: Deferred buffer: events parked while the ladder is at DEFER.
        #: Written by ingest (append) and the scheduler (readmission
        #: drain); both run on the event loop without yielding between
        #: read and write.
        self._deferred: list[QueuedEvent] = []
        #: item_id -> ingest time, for end-to-end latency + conservation.
        #: Written at admission and settled by egress tasks; every
        #: mutation is a single un-awaited dict op on the event loop.
        self._inflight: dict[int, float] = {}
        #: Items in the round loops; only :meth:`_fire_round` moves them.
        self._loop_backlog = 0
        #: In-flight egress: a task per tick, one per sink call that has to
        #: wait; settled before ``run`` returns.
        self._delivery_tasks: list[asyncio.Task] = []
        self._started = False
        for user_id in self._user_ids:
            self.frontier.register(user_id)

    # -- wiring ----------------------------------------------------------------

    def add_sink(
        self,
        sink: DeliverySink,
        name: str | None = None,
        policy: SinkPolicy | None = None,
        breaker: CircuitBreakerConfig | None = None,
    ) -> GuardedSink:
        """Register an egress sink behind timeout/retry/breaker guards."""
        index = len(self.sinks)
        guarded = GuardedSink(
            sink,
            clock=self.clock,
            rng=random.Random(self.config.seed * 1_000_003 + 97 * index + 41),
            policy=policy or self.config.sink_policy,
            breaker=breaker or self.config.breaker,
            name=name or f"sink{index}",
        )
        self.sinks.append(guarded)
        return guarded

    def loop_for(self, user_id: int) -> RoundLoop:
        loop = self._loops.get(user_id)
        if loop is None:
            loop = self._loop_factory(user_id)
            self._loops[user_id] = loop
        return loop

    # -- ingest ----------------------------------------------------------------

    def ingest(self, item: ContentItem) -> IngestResult:
        """Offer one notification event at ``clock.now()``; always answers
        explicitly.

        The admission pipeline: overload shedding (ladder at SHED) ->
        tiered rate limiting -> deferral (ladder at DEFER) -> the user's
        bounded queue.  A full queue is an explicit ``Overload`` result,
        never silent growth.

        A plain method: bounded queues consume O(1) and token buckets
        refill lazily, so admission never waits, and a burst of arrivals
        is decided in arrival order with no interleaving.
        """
        now = self.clock.now()
        self.stats.ingested += 1

        if self.controller.sheds_ingest:
            self.stats.shed_overload += 1
            return IngestResult(
                outcome=Admission.SHED_OVERLOAD,
                user_id=item.user_id,
                item_id=item.item_id,
                queue_depth=self.frontier.depth(item.user_id),
                detail="degradation ladder at SHED",
            )

        decision = self.limiter.allow(now, item.user_id, item.kind)
        if not decision.allowed:
            self.stats.shed_rate_limited += 1
            return IngestResult(
                outcome=Admission.SHED_RATE_LIMITED,
                user_id=item.user_id,
                item_id=item.item_id,
                queue_depth=self.frontier.depth(item.user_id),
                detail=f"rate tier {decision.tier}",
            )

        event = QueuedEvent(item=item, ingested_at=now)

        if self.controller.defers_ingest:
            if len(self._deferred) >= self.config.deferred_bound:
                self.stats.shed_overload += 1
                return IngestResult(
                    outcome=Admission.SHED_OVERLOAD,
                    user_id=item.user_id,
                    item_id=item.item_id,
                    queue_depth=self.frontier.depth(item.user_id),
                    detail="deferred buffer full",
                )
            self._deferred.append(event)
            self.stats.deferred_total += 1
            return IngestResult(
                outcome=Admission.DEFERRED,
                user_id=item.user_id,
                item_id=item.item_id,
                queue_depth=self.frontier.depth(item.user_id),
                detail="degradation ladder at DEFER",
            )

        return self._admit(event)

    def _admit(self, event: QueuedEvent) -> IngestResult:
        item = event.item
        if not self.frontier.offer(event):
            self.stats.shed_queue_full += 1
            return IngestResult(
                outcome=Admission.SHED_QUEUE_FULL,
                user_id=item.user_id,
                item_id=item.item_id,
                queue_depth=self.frontier.depth(item.user_id),
                detail=f"bound {self.config.queue_bound}",
            )
        self.stats.admitted += 1
        self._inflight[item.item_id] = event.ingested_at
        return IngestResult(
            outcome=Admission.ADMITTED,
            user_id=item.user_id,
            item_id=item.item_id,
            queue_depth=self.frontier.depth(item.user_id),
        )

    def _readmit_deferred(self) -> None:
        """Move deferred events back into queues once pressure allows."""
        if self.controller.defers_ingest or not self._deferred:
            return
        budget = min(self.config.readmit_per_tick, len(self._deferred))
        batch, self._deferred = (
            self._deferred[:budget],
            self._deferred[budget:],
        )
        for event in batch:
            self.stats.readmitted += 1
            # A full queue sheds the event here (counted by _admit); it is
            # no longer deferred_pending, so the ledger stays conserved.
            self._admit(event)

    # -- the scheduler loop ----------------------------------------------------

    async def run(self, rounds: int) -> None:
        """Run the scheduler for ``rounds`` round periods -- with staggered
        timers every user fires exactly ``rounds`` times."""
        if self._started:
            raise RuntimeError("service already ran; build a fresh instance")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self._started = True
        start = self.clock.now()
        end = start + rounds * self.config.round_seconds

        for user_id in self._user_ids:
            self.timers.register(user_id, start)

        while True:
            deadline = self.timers.next_deadline()
            if deadline is None or deadline > end + 1e-9:
                break
            await self.clock.sleep(deadline - self.clock.now())
            self._tick(self.clock.now())
        # Round timers never wait on egress; settle what is still in
        # flight (continuations spawn meanwhile) before reporting the run complete.
        while self._delivery_tasks:
            tasks, self._delivery_tasks = self._delivery_tasks, []
            await asyncio.gather(*tasks)

    def _tick(self, now: float) -> None:
        """Fire every due round; their deliveries leave in one egress task (a
        deadline needs a running task), whose first step runs once the
        scheduler has parked again, so egress's heap entries follow its."""
        self.stats.ticks += 1
        self._update_pressure(now)
        self._readmit_deferred()
        deliveries: list[Delivery] = []
        for user_id in self.timers.due(now):
            deliveries += self._fire_round(user_id, now)
        if deliveries:
            self._delivery_tasks.append(asyncio.ensure_future(self._egress(deliveries)))
        self._reap_delivery_tasks()

    def _fire_round(self, user_id: int, now: float) -> list[Delivery]:
        """Run one user's round; returns its deliveries for the tick's egress."""
        loop = self.loop_for(user_id)
        backlog_before = loop.pending_items
        for event in self.frontier.drain(user_id):
            loop.enqueue(event.item)
        loop.level_cap = self.controller.level_cap()
        result = loop.run_round(now, self.config.round_seconds)
        self._loop_backlog += loop.pending_items - backlog_before
        self.stats.rounds_run += 1
        for dropped in result.dropped:
            self._settle_dead_letter(dropped.item.item_id, f"loop:{dropped.reason}")
        return result.deliveries

    def _reap_delivery_tasks(self) -> None:
        still_running = []
        for task in self._delivery_tasks:
            if task.done():
                task.result()  # surface egress exceptions instead of dropping
            else:
                still_running.append(task)
        self._delivery_tasks = still_running

    async def _egress(self, deliveries: list[Delivery]) -> None:
        """One tick's egress (DESIGN §11): admit every (delivery, sink) pair,
        then call each admitted sink in the same order; a call that has to
        wait continues in a task of its own."""
        sinks = self.sinks
        admitted = [[sink.admit() for sink in sinks] for _ in deliveries]
        for delivery, allowed in zip(deliveries, admitted):
            outcomes = [sink.start(delivery) if ok else False for sink, ok in zip(sinks, allowed)]
            waiting = [outcome for outcome in outcomes if not isinstance(outcome, bool)]
            # [calls waiting, confirmed]; a sink-less service delivers what it selects
            fanout = [len(waiting), not sinks or True in outcomes]
            if not waiting:
                self._settle(delivery, fanout[1])
            for continuation in waiting:
                task = asyncio.ensure_future(self._continue(delivery, fanout, continuation))
                self._delivery_tasks.append(task)

    async def _continue(self, delivery: Delivery, fanout: list, continuation) -> None:
        """Finish a sink call that had to wait; its delivery settles with the last."""
        fanout[1] = await continuation or fanout[1]
        fanout[0] -= 1
        if not fanout[0]:
            self._settle(delivery, fanout[1])

    def _settle(self, delivery: Delivery, confirmed: bool) -> None:
        item_id = delivery.item.item_id
        if confirmed:
            ingested_at = self._inflight.pop(item_id, None)
            latency = (
                self.clock.now() - ingested_at if ingested_at is not None else 0.0
            )
            self.stats.record_delivery(
                latency, delivery.size_bytes, delivery.utility
            )
        else:
            self._settle_dead_letter(item_id, "sink_exhausted")

    def _settle_dead_letter(self, item_id: int, reason: str) -> None:
        self._inflight.pop(item_id, None)
        self.stats.record_dead_letter(reason)

    def _update_pressure(self, now: float) -> None:
        depth = self.frontier.take_window_peak() + self._loop_backlog
        occupancy = self.frontier.occupancy_of(depth)
        open_breakers = sum(
            1 for sink in self.sinks if sink.breaker_state is BreakerState.OPEN
        )
        breaker_fraction = open_breakers / len(self.sinks) if self.sinks else 0.0
        self.controller.update(now, occupancy, breaker_fraction)

    # -- observability ---------------------------------------------------------

    def loop_backlog(self) -> int:
        """Items sitting in round loops (incoming + scheduling queues)."""
        return self._loop_backlog

    @property
    def deferred_pending(self) -> int:
        return len(self._deferred)

    def accounting(self) -> dict:
        """The conservation ledger; ``error`` must be 0 at rest."""
        pending = self.frontier.total_depth() + self.loop_backlog()
        stats = self.stats
        accounted = (
            stats.delivered
            + stats.shed
            + stats.dead_lettered
            + self.deferred_pending
            + pending
        )
        return {
            "ingested": stats.ingested,
            "delivered": stats.delivered,
            "shed": stats.shed,
            "shed_queue_full": stats.shed_queue_full,
            "shed_rate_limited": stats.shed_rate_limited,
            "shed_overload": stats.shed_overload,
            "deferred_total": stats.deferred_total,
            "deferred_pending": self.deferred_pending,
            "readmitted": stats.readmitted,
            "dead_lettered": stats.dead_lettered,
            "dead_letter_reasons": dict(stats.dead_letter_reasons),
            "pending": pending,
            "error": stats.ingested - accounted,
        }
