"""Service time sources: real monotonic time or deterministic virtual time.

The service measures *durations* -- round periods, delivery timeouts,
retry backoffs, end-to-end latency -- so it must never read the wall
clock: NTP steps and DST jumps would corrupt every interval
(``tests/test_reproducibility.py::TestHostClock``).  :class:`MonotonicClock`
wraps ``time.monotonic`` for live runs.

Tests and chaos scenarios need the opposite of real time:
:class:`SimulatedClock` keeps a heap of sleepers and fires the earliest
one each time the event loop goes quiescent, so a 10-minute flash crowd
replays in milliseconds and every interleaving is reproducible.  A task a
sleep has just woken is the only thing ready to run, so it may also step
time itself: ``advance_to(t)`` moves ``now`` to ``t`` exactly when no live
sleeper is due at or before ``t`` -- the wake that sleeping until ``t``
would have cost, without the loop pass.  The live clock always refuses.

Deadlines are a scope, not a race: ``with clock.timeout(seconds) as scope:``
cancels the task running the block at its current await when the *service
clock* reaches the deadline, fixed when the scope is made (:class:`DeadlineScope`).
Arming is one heap entry on the simulated clock, one ``loop.call_at`` on the
live one -- no task.  ``asyncio.wait_for`` would read the event loop's real clock.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import selectors
import time
from typing import Awaitable, Callable, Protocol


def _checked(seconds: float) -> float:
    if seconds != seconds:  # NaN breaks the heap order, then becomes ``now``
        raise ValueError("a duration must not be NaN")
    return seconds


class DeadlineScope:
    """The ``with`` target of :meth:`Clock.timeout`.  On entry ``arm(expire)``
    schedules ``expire`` at the deadline the clock fixed at creation and
    returns a timer with a ``cancel()``, and the scope binds the task running
    the block (not the one that made it).  Past the deadline the timer wins:
    the block ends in ``TimeoutError`` (``expired`` tells it from one the
    block raised itself) whatever it did with the cancellation, unless
    someone else cancelled the task as well -- that propagates."""

    def __init__(self, seconds: float, arm: Callable) -> None:
        _checked(seconds)
        if asyncio.current_task() is None:  # RuntimeError outside a loop
            raise RuntimeError("clock.timeout() needs a running task to cancel")
        self._arm = arm
        self.expired = False

    def __enter__(self) -> "DeadlineScope":
        self._task = asyncio.current_task()
        self._timer = self._arm(self._expire)
        return self

    def _expire(self, timer: asyncio.Future | None = None) -> None:
        if timer is None or not timer.cancelled():  # a disarmed heap entry
            self.expired = True
            self._task.cancel()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._timer.cancel()
        if self.expired:
            uncancel = getattr(self._task, "uncancel", None)  # Python >= 3.11
            if not (uncancel and uncancel() and exc_type is asyncio.CancelledError):
                raise TimeoutError("deadline reached on the service clock") from exc


class Clock(Protocol):
    """Minimal time source: a monotonic ``now``, an awaitable sleep, a deadline scope."""

    def now(self) -> float: ...  # pragma: no cover - protocol

    async def sleep(self, seconds: float) -> None: ...  # pragma: no cover

    def timeout(self, seconds: float) -> DeadlineScope: ...  # pragma: no cover

    def advance_to(self, t: float) -> bool: ...  # pragma: no cover


class MonotonicClock:
    """Live clock: ``time.monotonic`` + ``asyncio.sleep``.

    Monotonic by construction -- immune to NTP/DST wall-clock steps, the
    only safe base for duration math.
    """

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(max(0.0, _checked(seconds)))

    def timeout(self, seconds: float) -> DeadlineScope:
        loop = asyncio.get_running_loop()
        when = loop.time() + max(0.0, _checked(seconds))
        return DeadlineScope(seconds, lambda expire: loop.call_at(when, expire))

    def advance_to(self, t: float) -> bool:
        """Real time cannot be stepped: the caller sleeps instead."""
        return False


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
    :meth:`advance_to` is the same step, taken by the task just woken.
    """

    def __init__(self, start: float = 0.0) -> None:
        # Moved by the selector between event-loop callbacks, and by
        # advance_to when no sleeper is due first.
        self._now = float(start)
        self._seq = itertools.count()
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    @property
    def pending_sleepers(self) -> int:
        """Sleepers currently parked (diagnostics)."""
        return sum(1 for _, _, f in self._sleepers if not f.done())

    def _park(self, wake: float, seq: int) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (wake, seq, future))
        return future

    async def sleep(self, seconds: float) -> None:
        if _checked(seconds) <= 0:
            await asyncio.sleep(0)
            return
        await self._park(self._now + seconds, next(self._seq))

    def timeout(self, seconds: float) -> DeadlineScope:
        # The slot is taken now, not on entry: what the block parks before
        # entering still wakes after an equal deadline.
        wake, seq = self._now + max(0.0, _checked(seconds)), next(self._seq)

        def arm(expire: Callable) -> asyncio.Future:
            timer = self._park(max(wake, self._now), seq)  # never before now
            timer.add_done_callback(expire)
            return timer

        return DeadlineScope(seconds, arm)

    def advance_to(self, t: float) -> bool:
        """Move ``now`` to ``t`` if no live sleeper is due at or before it;
        False, with time unmoved, otherwise.  A sleeper due at ``t`` itself
        parked first, so it fires first.  Only a task a sleep has just
        woken may step, before it yields: then nothing else is ready, and
        the step is the wake its own sleep until ``t`` would have been.
        Disarmed entries at the heap top are dropped on the way."""
        if not t >= self._now:  # NaN too
            raise ValueError(f"cannot advance the clock from {self._now!r} to {t!r}")
        sleepers = self._sleepers
        while sleepers and sleepers[0][2].done():
            heapq.heappop(sleepers)
        if sleepers and sleepers[0][0] <= t:
            return False
        self._now = t
        return True

    def _fire_next(self) -> bool:
        """Wake the earliest live sleeper; False when none is left.
        Cancelled ones (disarmed deadline scopes) are dropped as they
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
