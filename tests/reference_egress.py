"""The service's egress as it ran before the tick-wide egress pass: the
oracle for ``tests/test_egress_differential.py``.

:class:`ReferenceEgressService` is a :class:`NotificationService` whose
tick spawns one ``_push`` task per delivery, as the service used to:
with one sink ``_push`` awaits the sink's attempt loop in its own task,
with more it gathers one task per sink.  The attempt loop is
:func:`deliver_one_task`, the ``GuardedSink.deliver`` of that time kept
as it was (one ``for`` loop: admit, a bare yield, the sink call under a
deadline scope entered in the same task, backoff, retry), so the oracle
shares only the sink's state (breaker, counters, RNG, policy) with the
code under test, never its control flow.  Do not "fix" either.
"""

from __future__ import annotations

import asyncio
import inspect

from repro.runtime.types import Delivery
from repro.service.server import NotificationService
from repro.service.sinks import GuardedSink, SinkTimeout


async def _attempt_with_timeout(guarded: GuardedSink, delivery: Delivery) -> None:
    result = guarded._sink(delivery)
    if not inspect.isawaitable(result):
        return
    try:
        with guarded._clock.timeout(guarded.policy.timeout_seconds) as scope:
            await result
    except TimeoutError:
        if not scope.expired:
            raise
        raise SinkTimeout(
            f"{guarded.name}: delivery of item {delivery.item.item_id} "
            f"exceeded {guarded.policy.timeout_seconds:g}s"
        ) from None


async def deliver_one_task(guarded: GuardedSink, delivery: Delivery) -> bool:
    policy = guarded.policy
    stats = guarded.stats
    for attempt in range(1, policy.max_attempts + 1):
        allowed, transitioned = guarded.circuit.allow()
        if transitioned:
            stats.breaker_transitions += 1
        if not allowed:
            stats.breaker_skips += 1
            return False
        stats.attempts += 1
        await asyncio.sleep(0)
        try:
            await _attempt_with_timeout(guarded, delivery)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            stats.failures += 1
            if isinstance(error, SinkTimeout):
                stats.timeouts += 1
            if guarded.circuit.record_failure():
                stats.breaker_transitions += 1
            if attempt >= policy.max_attempts:
                break
            stats.retries += 1
            await guarded._clock.sleep(policy.backoff_seconds(attempt, guarded._rng))
        else:
            stats.delivered += 1
            if guarded.circuit.record_success():
                stats.breaker_transitions += 1
            return True
    stats.exhausted += 1
    return False


class ReferenceEgressService(NotificationService):
    """One ``_push`` task per delivery over ``deliver``."""

    #: The attempt loop each ``_push`` runs per sink.
    deliver = staticmethod(deliver_one_task)

    def _tick(self, now: float) -> None:
        self.stats.ticks += 1
        self._update_pressure(now)
        self._readmit_deferred()
        for user_id in self.timers.due(now):
            for delivery in self._fire_round(user_id, now):
                self._delivery_tasks.append(asyncio.ensure_future(self._push(delivery)))
        self._reap_delivery_tasks()

    async def _push(self, delivery: Delivery) -> None:
        sinks = self.sinks
        if not sinks:
            confirmed = True
        elif len(sinks) == 1:
            confirmed = await self.deliver(sinks[0], delivery)
        else:
            confirmed = any(
                await asyncio.gather(*(self.deliver(sink, delivery) for sink in sinks))
            )
        self._settle(delivery, confirmed)
