"""Async delivery sinks: per-delivery timeouts, jittered retries, breakers.

:class:`GuardedSink` adapts any delivery callable -- sync or async -- to
the service's egress contract:

* an attempt runs synchronously up to the sink's first suspension; only
  one that has to wait continues, in the task awaiting it, under a
  **per-delivery timeout**, a deadline scope on the service clock (``Clock.timeout``;
  never ``asyncio.wait_for``: that reads the event loop's real clock,
  which would hang forever on simulated time) -- no task per attempt,
  and a sink that answers synchronously arms nothing;
* failures retry within a bounded **retry budget**, spaced by full-jitter
  exponential backoff (:func:`repro.core.delivery.full_jitter_backoff`,
  the round loop's retry backoff too) drawn from an explicit seeded RNG;
* the whole thing sits behind a
  :class:`~repro.core.breaker.SinkCircuit` breaker, of which this is the
  one driver.  Because attempts here are *in flight across awaits*, the
  breaker's half-open single-probe latch matters: concurrent deliveries
  against a half-open sink get refused instead of stampeding it.  That
  is also why the timeout must be finite: a probe that never returns
  would hold the latch, and the sink would stay shut for the run.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import random
import types
from dataclasses import dataclass
from typing import Awaitable, Callable, Union

from repro.core.breaker import BreakerState, CircuitBreakerConfig, SinkCircuit
from repro.core.delivery import full_jitter_backoff
from repro.runtime.types import Delivery
from repro.service.clock import Clock

#: A delivery consumer: called with each Delivery; may be a coroutine
#: function.  Raising (or timing out) marks the attempt failed.
DeliverySink = Callable[[Delivery], Union[None, Awaitable[None]]]


class SinkTimeout(Exception):
    """An attempt exceeded the per-delivery timeout."""


@dataclass(frozen=True)
class SinkPolicy:
    """Timeout and retry budget for one guarded sink."""

    timeout_seconds: float = 5.0
    max_attempts: int = 3
    base_backoff_seconds: float = 0.5
    max_backoff_seconds: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout_seconds < math.inf:  # NaN too
            raise ValueError(
                f"timeout_seconds must be positive and finite, got {self.timeout_seconds}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        for name in ("base_backoff_seconds", "max_backoff_seconds"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("max backoff must be >= base backoff")

    def backoff_seconds(self, failed_attempts: int, rng: random.Random) -> float:
        """Full-jitter exponential backoff after ``failed_attempts`` >= 1."""
        return full_jitter_backoff(
            failed_attempts, self.base_backoff_seconds, self.max_backoff_seconds, rng
        )


@dataclass
class SinkStats:
    """Cumulative per-sink egress counters."""

    attempts: int = 0
    delivered: int = 0
    failures: int = 0
    timeouts: int = 0
    retries: int = 0
    breaker_skips: int = 0
    breaker_transitions: int = 0
    exhausted: int = 0


@types.coroutine
def _resume(steps, yielded):
    """``yield from steps`` for an awaitable already run up to its first
    suspension, where it yielded ``yielded`` (asyncio resumes with None)."""
    while True:
        try:
            yield yielded
        except BaseException as error:  # forwarded to the sink, as yield from does
            try:
                yielded = steps.throw(error)
            except StopIteration as stop:
                return stop.value
        else:
            return (yield from steps)


def _advance(awaitable: Awaitable) -> Awaitable | None:
    """Run ``awaitable`` now up to its first suspension: None if it
    finished without one, else an awaitable of the rest."""
    steps = awaitable.__await__()
    try:
        return _resume(steps, steps.send(None))
    except StopIteration:
        return None


class GuardedSink:
    """One egress sink wrapped in timeout + retry budget + breaker."""

    def __init__(
        self,
        sink: DeliverySink,
        clock: Clock,
        rng: random.Random,
        policy: SinkPolicy | None = None,
        breaker: CircuitBreakerConfig | None = None,
        name: str = "sink",
    ) -> None:
        self.name = name
        self.policy = policy or SinkPolicy()
        self._sink = sink
        self._clock = clock
        self._rng = rng
        self.circuit = SinkCircuit(breaker or CircuitBreakerConfig())
        self.stats = SinkStats()

    @property
    def breaker_state(self) -> BreakerState:
        return self.circuit.state

    def admit(self) -> bool:
        """Pass the breaker for one attempt (``attempts``), or be refused
        (``breaker_skips``; no retry: the cooldown *is* the backoff)."""
        allowed, transitioned = self.circuit.allow()
        if transitioned:
            self.stats.breaker_transitions += 1
        if not allowed:
            self.stats.breaker_skips += 1
            return False
        self.stats.attempts += 1
        return True

    def start(self, delivery: Delivery, attempt: int = 1) -> bool | Awaitable[bool]:
        """Make admitted attempt ``attempt`` now, up to the sink's first
        suspension: the outcome, or the continuation that will return it."""
        try:
            result = self._sink(delivery)
            if inspect.isawaitable(result):
                # The deadline takes its clock slot before the sink runs.
                scope = self._clock.timeout(self.policy.timeout_seconds)
                rest = _advance(result)
                if rest is not None:
                    return self._await_call(delivery, attempt, scope, rest)
        except Exception as error:
            return self._finished(delivery, attempt, error)
        return self._finished(delivery, attempt, None)

    async def _await_call(self, delivery, attempt, scope, rest) -> bool:
        """The rest of a suspended call; the deadline cancels the task
        running this, and past it the timer wins whatever the call did."""
        error = None
        try:
            with scope:
                await rest
        except Exception as raised:  # before the deadline: an ordinary failure
            error = raised if not scope.expired else SinkTimeout(
                f"{self.name}: delivery of item {delivery.item.item_id} "
                f"exceeded {self.policy.timeout_seconds:g}s"
            )
        outcome = self._finished(delivery, attempt, error)
        return outcome if isinstance(outcome, bool) else await outcome

    def _finished(self, delivery, attempt: int, error: Exception | None) -> bool | Awaitable[bool]:
        """Book one call: True on success; on failure False once the
        budget is spent, else the retry, its backoff parked right now."""
        stats = self.stats
        if error is None:
            stats.delivered += 1
            if self.circuit.record_success():
                stats.breaker_transitions += 1
            return True
        stats.failures += 1
        if isinstance(error, SinkTimeout):
            stats.timeouts += 1
        if self.circuit.record_failure():
            stats.breaker_transitions += 1
        if attempt >= self.policy.max_attempts:
            stats.exhausted += 1
            return False
        stats.retries += 1
        backoff = self._clock.sleep(self.policy.backoff_seconds(attempt, self._rng))
        return self._attempt(delivery, attempt + 1, _advance(backoff))

    async def _attempt(self, delivery, attempt: int, backoff=None) -> bool:
        if backoff is not None:
            await backoff
        if not self.admit():
            return False
        # Deliveries of one round are concurrent requests: the breaker
        # admits every one of them before the first outcome is recorded
        # (the concurrency the half-open latch exists for).  One bare yield
        # keeps that: all run up to here, then call their sinks.
        await asyncio.sleep(0)
        outcome = self.start(delivery, attempt)
        return outcome if isinstance(outcome, bool) else await outcome

    async def deliver(self, delivery: Delivery) -> bool:
        """Deliver with retries in the calling task; True on success,
        False when given up.  A timeout or sink exception consumes one
        attempt from the retry budget and backs off with full jitter."""
        return await self._attempt(delivery, 1)
