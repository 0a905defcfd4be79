"""Async delivery sinks: per-delivery timeouts, jittered retries, breakers.

:class:`GuardedSink` adapts any delivery callable -- sync or async -- to
the service's egress contract:

* every attempt runs in the delivery's own task under a **per-delivery
  timeout**, a deadline scope on the service clock (``Clock.timeout``;
  never ``asyncio.wait_for``: that reads the event loop's real clock,
  which would hang forever on simulated time) -- no task per attempt,
  and a sink that answers synchronously arms nothing;
* failures retry within a bounded **retry budget**, spaced by full-jitter
  exponential backoff (the same idiom as
  :class:`repro.core.delivery.RetryPolicy`) drawn from an explicit seeded
  RNG;
* the whole thing sits behind the
  :class:`~repro.core.breaker.SinkCircuit` breaker the broker also uses.  Because attempts
  here are *in flight across awaits*, the breaker's half-open
  single-probe latch matters: concurrent deliveries against a half-open
  sink get refused instead of stampeding it.
"""

from __future__ import annotations

import asyncio
import inspect
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Union

from repro.core.breaker import BreakerState, CircuitBreakerConfig, SinkCircuit
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
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_seconds < 0:
            raise ValueError("base backoff must be >= 0")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("max backoff must be >= base backoff")

    def backoff_seconds(self, failed_attempts: int, rng: random.Random) -> float:
        """Full-jitter exponential backoff after ``failed_attempts`` >= 1."""
        ceiling = min(
            self.max_backoff_seconds,
            self.base_backoff_seconds * (2 ** (failed_attempts - 1)),
        )
        return rng.uniform(0.0, ceiling)


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

    async def _attempt_with_timeout(self, delivery: Delivery) -> None:
        """One sink call, under the service clock's deadline if it awaits."""
        result = self._sink(delivery)
        if not inspect.isawaitable(result):
            return
        try:
            with self._clock.timeout(self.policy.timeout_seconds) as scope:
                await result
        except TimeoutError:
            if not scope.expired:
                raise  # the sink's own TimeoutError: an ordinary failure
            raise SinkTimeout(
                f"{self.name}: delivery of item {delivery.item.item_id} "
                f"exceeded {self.policy.timeout_seconds:g}s"
            ) from None

    async def deliver(self, delivery: Delivery) -> bool:
        """Deliver with retries; True on success, False when given up.

        A breaker refusal fails fast (no retries: the cooldown *is* the
        backoff); a timeout or sink exception consumes one attempt from
        the retry budget and backs off with full jitter before the next.
        """
        policy = self.policy
        for attempt in range(1, policy.max_attempts + 1):
            allowed, transitioned = self.circuit.allow()
            if transitioned:
                self.stats.breaker_transitions += 1
            if not allowed:
                self.stats.breaker_skips += 1
                return False
            self.stats.attempts += 1
            # Deliveries of one round are concurrent requests: the breaker
            # admits every one of them before the first outcome is recorded
            # (the concurrency the half-open latch exists for).  One bare
            # yield keeps that: all run up to here, then call their sinks.
            await asyncio.sleep(0)
            try:
                await self._attempt_with_timeout(delivery)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                self.stats.failures += 1
                if isinstance(error, SinkTimeout):
                    self.stats.timeouts += 1
                if self.circuit.record_failure():
                    self.stats.breaker_transitions += 1
                if attempt >= policy.max_attempts:
                    break
                self.stats.retries += 1
                await self._clock.sleep(
                    policy.backoff_seconds(attempt, self._rng)
                )
            else:
                self.stats.delivered += 1
                if self.circuit.record_success():
                    self.stats.breaker_transitions += 1
                return True
        self.stats.exhausted += 1
        return False
