"""Service time sources: real monotonic time or deterministic virtual time.

The service measures *durations* -- round periods, delivery timeouts,
retry backoffs, end-to-end latency -- so it must never read the wall
clock: NTP steps and DST jumps would corrupt every interval (richlint
RL205).  :class:`MonotonicClock` wraps ``time.monotonic`` for live runs.

Tests and chaos scenarios need the opposite of real time:
:class:`SimulatedClock` keeps a heap of sleepers and fires the earliest
one each time the event loop goes quiescent, so a 10-minute flash crowd
replays in milliseconds and every interleaving is reproducible.  Timeout
races (:mod:`repro.service.sinks`) are built on ``Clock.sleep`` rather
than ``asyncio.wait_for`` precisely so they stay on virtual time.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import selectors
import time
from typing import Awaitable, Callable, Protocol


class Clock(Protocol):
    """Minimal time source: a monotonic ``now`` and an awaitable sleep."""

    def now(self) -> float: ...  # pragma: no cover - protocol

    async def sleep(self, seconds: float) -> None: ...  # pragma: no cover


class MonotonicClock:
    """Live clock: ``time.monotonic`` + ``asyncio.sleep``.

    Monotonic by construction -- immune to NTP/DST wall-clock steps, the
    only safe base for duration math (richlint RL205).
    """

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(max(0.0, seconds))


class ClockStalled(RuntimeError):
    """The session is still pending but nothing can ever wake it."""


class _QuiescenceSelector(selectors.DefaultSelector):
    """Turns "the loop would block" into a virtual-time step: asyncio
    passes ``select`` a zero timeout whenever a callback is ready to run,
    so any other timeout means every task is parked on an await."""

    def __init__(self, fire_next: Callable[[], bool]) -> None:
        super().__init__()
        self._fire_next = fire_next

    def select(self, timeout=None):
        if timeout == 0:
            return super().select(0)
        if self._fire_next():
            return []
        if timeout is None:
            raise ClockStalled(
                "simulated clock stalled: task pending with no sleepers to wake"
            )
        return super().select(timeout)  # only a real loop timer is pending


class SimulatedClock:
    """Deterministic virtual time for service tests and chaos replays.

    ``sleep`` parks the caller on a heap keyed by wake time (with an
    insertion sequence for FIFO tie-breaks -- no hash-order in wakeups).
    :meth:`run` owns the event loop and moves time by the *quiescence
    rule*: exactly when the loop has no ready callback left, the earliest
    live sleeper fires and ``now`` becomes its wake time.  Time therefore
    never runs ahead of causality, however deep the await chain a wakeup
    sets off, and work is done per transition, never per poll.
    """

    def __init__(self, start: float = 0.0) -> None:
        # Moved only by the selector, i.e. between event-loop callbacks.
        self._now = float(start)  # richlint: guarded-by(event-loop)
        self._seq = itertools.count()
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    @property
    def pending_sleepers(self) -> int:
        """Sleepers currently parked (diagnostics)."""
        return sum(1 for _, _, f in self._sleepers if not f.done())

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(
            self._sleepers, (self._now + seconds, next(self._seq), future)
        )
        await future

    def _fire_next(self) -> bool:
        """Wake the earliest live sleeper; False when none is left.
        Cancelled ones (timers of won timeout races) are dropped as they
        reach the heap top, so at most one timeout horizon of them is held."""
        sleepers = self._sleepers
        while sleepers:
            wake, _, future = heapq.heappop(sleepers)
            if not future.done():
                self._now = wake  # >= now: pushed later means due later
                future.set_result(None)
                return True
        return False

    def run(self, awaitable: Awaitable):
        """Run ``awaitable`` to completion on a fresh event loop, advancing
        virtual time as far as needed: the way to run a bounded service
        session.  Raises :class:`ClockStalled` the moment the session is
        pending with nothing left to wake it (a genuine deadlock)."""
        loop = asyncio.SelectorEventLoop(_QuiescenceSelector(self._fire_next))
        try:
            return loop.run_until_complete(awaitable)
        finally:
            try:
                leftover = asyncio.all_tasks(loop)
                for task in leftover:
                    task.cancel()
                if leftover:
                    loop.run_until_complete(
                        asyncio.gather(*leftover, return_exceptions=True)
                    )
            finally:
                loop.close()
