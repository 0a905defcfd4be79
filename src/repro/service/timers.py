"""Per-user round timers with deterministic phase staggering.

Firing every user's round at the same instant would synchronize the
fleet into periodic load spikes (and make the first tick O(users) while
the rest of the period idles).  Each user instead gets a seeded phase
offset uniform in ``(0, period]``, so rounds spread across the period
while each user still ticks exactly once per period.

The offsets come from one ``random.Random(seed)`` stream consumed in
registration order -- same seed, same user order, same schedule, every
run (the determinism contract ``tests/test_reproducibility.py::TestSeededRng``
enforces).
"""

from __future__ import annotations

import heapq
import itertools
import random


class RoundTimers:
    """A heap of ``(next_fire, seq, user_id)`` round deadlines."""

    def __init__(
        self,
        period_seconds: float,
        seed: int = 0,
    ) -> None:
        if period_seconds <= 0:
            raise ValueError(
                f"round period must be positive, got {period_seconds}"
            )
        self.period_seconds = float(period_seconds)
        self._rng = random.Random(seed)
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, int]] = []
        self._registered: set[int] = set()

    @property
    def user_count(self) -> int:
        return len(self._registered)

    def register(self, user_id: int, now: float) -> float:
        """Schedule a user's first round; returns its fire time."""
        if user_id in self._registered:
            raise ValueError(f"user {user_id} already has a round timer")
        self._registered.add(user_id)
        # Uniform in (0, period]: never fires at registration time
        # itself, always within the first period.
        first = now + (1.0 - self._rng.random()) * self.period_seconds
        heapq.heappush(self._heap, (first, next(self._seq), user_id))
        return first

    def next_deadline(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def due(self, now: float) -> list[int]:
        """Pop every user due at ``now`` and reschedule them one period out.

        Returned in deadline order (seq breaks ties deterministically).
        """
        fired: list[int] = []
        while self._heap and self._heap[0][0] <= now + 1e-9:
            deadline, _, user_id = heapq.heappop(self._heap)
            fired.append(user_id)
            heapq.heappush(
                self._heap,
                (deadline + self.period_seconds, next(self._seq), user_id),
            )
        return fired
