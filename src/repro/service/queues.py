"""The ingest frontier: bounded per-user queues with explicit shedding.

Backpressure starts here.  Every user owns one bounded FIFO; when it is
full the frontier *refuses* the event with an explicit ``Overload``
result (:class:`IngestResult` with a shedding :class:`Admission`) instead
of queueing unboundedly -- callers always learn the fate of an event at
the moment they offer it, and memory stays proportional to
``users x queue_bound`` no matter how hard the flash crowd pushes.

The frontier also tracks a *window peak*: the maximum aggregate depth
since the last scheduler tick.  Queues drain at round boundaries, so an
instantaneous depth reading at tick time would always look calm; the
degradation controller (:mod:`repro.service.degrade`) keys off the peak
within the window instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.core.content import ContentItem


@dataclass(frozen=True, slots=True)
class QueuedEvent:
    """One admitted notification event, stamped with its ingest time."""

    item: ContentItem
    ingested_at: float


class Admission(str, Enum):
    """What happened to an offered event, decided at ingest time."""

    #: Accepted into the user's bounded queue.
    ADMITTED = "admitted"
    #: Parked in the deferred buffer (degradation ladder >= DEFER);
    #: re-admitted automatically when pressure clears.
    DEFERRED = "deferred"
    #: Shed: the user's queue was at its bound.
    SHED_QUEUE_FULL = "shed_queue_full"
    #: Shed: a rate-limit tier (global/user/topic) had no tokens.
    SHED_RATE_LIMITED = "shed_rate_limited"
    #: Shed: sustained overload (ladder at SHED, or deferred buffer full).
    SHED_OVERLOAD = "shed_overload"


#: Admissions that constitute an explicit Overload rejection.
OVERLOAD_ADMISSIONS = frozenset(
    {
        Admission.SHED_QUEUE_FULL,
        Admission.SHED_RATE_LIMITED,
        Admission.SHED_OVERLOAD,
    }
)


@dataclass(frozen=True, slots=True)
class IngestResult:
    """The explicit, per-event answer :meth:`NotificationService.ingest`
    returns -- an ``Overload`` result when the event was shed.

    ``detail`` carries the denying rate-limit tier or shed cause for
    observability; ``queue_depth`` is the user's queue depth *after* the
    decision.
    """

    outcome: Admission
    user_id: int
    item_id: int
    queue_depth: int = 0
    detail: str = ""

    @property
    def admitted(self) -> bool:
        return self.outcome is Admission.ADMITTED

    @property
    def overload(self) -> bool:
        """True when the event was explicitly shed (an Overload result)."""
        return self.outcome in OVERLOAD_ADMISSIONS


class BoundedUserQueue:
    """FIFO for one user, hard-capped at ``bound`` events.

    A frontier's queue keeps the frontier's aggregate depth counter
    exact, also for events pushed on the queue directly.
    """

    __slots__ = ("user_id", "bound", "high_water", "_entries", "_frontier")

    def __init__(
        self, user_id: int, bound: int, frontier: IngestFrontier | None = None
    ) -> None:
        if bound < 1:
            raise ValueError(f"queue bound must be >= 1, got {bound}")
        self.user_id = user_id
        self.bound = bound
        self._frontier = frontier
        #: Largest depth ever observed (the chaos gate asserts it never
        #: exceeds ``bound``).
        self.high_water = 0
        self._entries: deque[QueuedEvent] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.bound

    def push(self, event: QueuedEvent) -> bool:
        """Append; returns False (and drops nothing) when at the bound."""
        if self.full:
            return False
        self._entries.append(event)
        self.high_water = max(self.high_water, len(self._entries))
        if self._frontier is not None:
            self._frontier._depth += 1
        return True

    def drain(self) -> list[QueuedEvent]:
        """Remove and return everything, oldest first."""
        drained = list(self._entries)
        self._entries.clear()
        if self._frontier is not None:
            self._frontier._depth -= len(drained)
        return drained


class IngestFrontier:
    """All users' bounded queues plus the pressure-window bookkeeping."""

    def __init__(self, queue_bound: int) -> None:
        if queue_bound < 1:
            raise ValueError(f"queue bound must be >= 1, got {queue_bound}")
        self.queue_bound = queue_bound
        self._queues: dict[int, BoundedUserQueue] = {}
        #: Events queued across all users, kept current by the queues.
        self._depth = 0
        self._window_peak = 0

    def register(self, user_id: int) -> BoundedUserQueue:
        """Create (or fetch) the queue of one user."""
        queue = self._queues.get(user_id)
        if queue is None:
            queue = BoundedUserQueue(user_id, self.queue_bound, frontier=self)
            self._queues[user_id] = queue
        return queue

    @property
    def user_count(self) -> int:
        return len(self._queues)

    def offer(self, event: QueuedEvent) -> bool:
        """Try to admit one event; False means the queue was at its bound."""
        queue = self.register(event.item.user_id)
        admitted = queue.push(event)
        if admitted:
            self._window_peak = max(self._window_peak, self._depth)
        return admitted

    def drain(self, user_id: int) -> list[QueuedEvent]:
        queue = self._queues.get(user_id)
        return queue.drain() if queue is not None else []

    def depth(self, user_id: int) -> int:
        queue = self._queues.get(user_id)
        return len(queue) if queue is not None else 0

    def total_depth(self) -> int:
        return self._depth

    def high_water(self) -> int:
        """Largest single-queue depth ever observed across all users."""
        if not self._queues:
            return 0
        return max(queue.high_water for queue in self._queues.values())

    def take_window_peak(self) -> int:
        """Peak aggregate depth since the last call; resets the window.

        The degradation controller samples this once per scheduler tick:
        it sees the burst even though the queues were drained before the
        reading.
        """
        peak = max(self._window_peak, self._depth)
        self._window_peak = self._depth
        return peak

    def occupancy_of(self, depth: int) -> float:
        """``depth`` as a fraction of aggregate frontier capacity."""
        capacity = max(1, self.user_count * self.queue_bound)
        return min(1.0, depth / capacity)
