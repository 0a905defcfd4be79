"""Broker-side capacity management (the real-time mode's overload control).

Section II: "A large number of real-time notifications will cause
information overload for human users; methods for selecting a subset of
notifications in an efficient manner have been proposed in prior work [3]"
-- Setty et al., *Maximizing the number of satisfied subscribers in pub/sub
systems under capacity constraints* (INFOCOM 2014).  RichNote positions
itself against exactly this machinery: broker-side selection maximizes a
*count* of satisfied subscribers, whereas RichNote maximizes per-user
*utility*.  Implementing the broker-side selector lets the repository show
both layers working together (capacity filtering upstream, utility
scheduling downstream) and gives the examples a faithful "before" system.

Model (per round):

* the broker can push at most ``broker_capacity`` notifications;
* each subscriber absorbs at most ``user_capacity`` notifications (their
  attention budget);
* a subscriber is **satisfied** iff they receive *every* notification
  matched to them this round (and their demand fits their own capacity);
* objective: maximize the number of satisfied subscribers; leftover broker
  capacity then partially serves the remaining subscribers.

The greedy -- serve subscribers in ascending demand -- is optimal for the
satisfied-count objective: exchanging any served subscriber for an unserved
one with smaller demand never decreases the count.

Beyond the per-round *count* model, this module also generalizes capacity
to shared per-cell-tower **byte pools** (:class:`SharedCellCapacity`):
every user is mapped to a cell (:class:`CellTopology`) and all users on a
cell draw their round budgets from one pool, so a flash crowd on a tower
visibly degrades its bystanders ("Making Recommendations Bandwidth
Aware", PAPERS.md).  The pool plugs into
:class:`repro.runtime.loop.RoundLoop` through the duck-typed
``shared_capacity`` hook (``grant``/``consume``), keeping the layering
one-way: the runtime never imports pubsub.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pubsub.broker import Notification


@dataclass(frozen=True)
class CapacityConfig:
    """Per-round capacities."""

    broker_capacity: int
    default_user_capacity: int = 50
    user_capacity_overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.broker_capacity < 0:
            raise ValueError("broker capacity must be >= 0")
        if self.default_user_capacity < 0:
            raise ValueError("user capacity must be >= 0")
        if any(c < 0 for c in self.user_capacity_overrides.values()):
            raise ValueError("user capacity overrides must be >= 0")

    def user_capacity(self, user_id: int) -> int:
        return self.user_capacity_overrides.get(user_id, self.default_user_capacity)


@dataclass
class CapacitySelection:
    """Outcome of one round of broker-side selection."""

    delivered: list[Notification] = field(default_factory=list)
    dropped: list[Notification] = field(default_factory=list)
    satisfied_users: frozenset[int] = frozenset()

    @property
    def satisfied_count(self) -> int:
        return len(self.satisfied_users)


def select_satisfied_subscribers(
    notifications: list[Notification], config: CapacityConfig
) -> CapacitySelection:
    """Greedy satisfied-subscriber maximization ([3]'s objective).

    Sort subscribers by this round's demand (ascending); fully serve them
    while broker capacity lasts (skipping users whose demand exceeds their
    own capacity -- they can never be satisfied); then spend leftover
    capacity partially serving the rest, smallest demand first.
    """
    by_user: dict[int, list[Notification]] = {}
    for notification in notifications:
        by_user.setdefault(notification.recipient_id, []).append(notification)

    remaining = config.broker_capacity
    selection = CapacitySelection()
    satisfied: set[int] = set()
    partial_queue: list[tuple[int, list[Notification]]] = []

    for user_id in sorted(by_user, key=lambda u: (len(by_user[u]), u)):
        batch = by_user[user_id]
        demand = len(batch)
        if demand <= config.user_capacity(user_id) and demand <= remaining:
            selection.delivered.extend(batch)
            satisfied.add(user_id)
            remaining -= demand
        else:
            partial_queue.append((user_id, batch))

    # Leftover capacity: partial service, capped by each user's capacity.
    for user_id, batch in partial_queue:
        if remaining <= 0:
            selection.dropped.extend(batch)
            continue
        take = min(remaining, config.user_capacity(user_id), len(batch))
        selection.delivered.extend(batch[:take])
        selection.dropped.extend(batch[take:])
        remaining -= take

    selection.satisfied_users = frozenset(satisfied)
    return selection


@dataclass(frozen=True)
class CellTopology:
    """Static user -> cell-tower assignment.

    ``cell_of`` maps user ids to cell ids; unmapped users fall back to
    ``default_cell``.  Real deployments would derive this from coarse
    location; the bench harness assigns it per scenario.
    """

    cell_of: dict[int, int] = field(default_factory=dict)
    default_cell: int = 0

    def cell(self, user_id: int) -> int:
        return self.cell_of.get(user_id, self.default_cell)

    @property
    def cells(self) -> tuple[int, ...]:
        """Every distinct cell id, sorted (including the default)."""
        return tuple(sorted(set(self.cell_of.values()) | {self.default_cell}))


@dataclass
class CellPoolStats:
    """Cumulative per-cell pool accounting."""

    requested_bytes: float = 0.0
    granted_bytes: float = 0.0
    consumed_bytes: float = 0.0
    #: Bytes requested but not granted because the pool ran dry --
    #: the direct measure of cross-user contention on the cell.
    denied_bytes: float = 0.0
    #: Grants truncated below the request (at least one coupled user).
    contended_grants: int = 0


class SharedCellCapacity:
    """Per-round shared byte pools, one per cell tower.

    Users mapped to the same cell draw their round budgets from one pool:
    :meth:`grant` clamps a user's requested budget to what the cell has
    left *without reserving it*, and :meth:`consume` draws down the pool
    by the bytes actually delivered over the air.  Within a round, users
    are served in the order their loops run -- exactly the sequential
    tower scheduling that makes a flash crowd starve late bystanders.

    Conservation invariant (per cell, checked by tests):
    ``consumed <= granted <= requested`` and consumed never exceeds the
    per-round pool.

    The object satisfies the ``shared_capacity`` duck-type of
    :class:`repro.runtime.loop.RoundLoop` (``grant``/``consume``); call
    :meth:`begin_round` once per round tick before any user's loop runs.
    """

    def __init__(
        self,
        topology: CellTopology,
        bytes_per_round: float | dict[int, float],
    ) -> None:
        if isinstance(bytes_per_round, dict):
            if not all(0 <= v < math.inf for v in bytes_per_round.values()):
                raise ValueError("cell pool sizes must be finite and >= 0")
            self._pool_of = dict(bytes_per_round)
            self._default_pool = 0.0
        else:
            if not 0 <= bytes_per_round < math.inf:
                raise ValueError(
                    f"bytes_per_round must be finite and >= 0, got {bytes_per_round}"
                )
            self._pool_of = {}
            self._default_pool = float(bytes_per_round)
        self.topology = topology
        self._remaining: dict[int, float] = {}
        self.stats: dict[int, CellPoolStats] = {}
        self.rounds = 0
        self._refill()

    def pool_bytes(self, cell: int) -> float:
        """The per-round pool size of ``cell``."""
        return self._pool_of.get(cell, self._default_pool)

    def _cell_stats(self, cell: int) -> CellPoolStats:
        stats = self.stats.get(cell)
        if stats is None:
            stats = CellPoolStats()
            self.stats[cell] = stats
        return stats

    def _refill(self) -> None:
        self._remaining = {
            cell: self.pool_bytes(cell) for cell in self.topology.cells
        }

    def begin_round(self) -> None:
        """Refill every cell's pool; call once per round tick."""
        self.rounds += 1
        self._refill()

    def remaining(self, cell: int) -> float:
        remaining = self._remaining.get(cell)
        if remaining is None:
            remaining = self.pool_bytes(cell)
            self._remaining[cell] = remaining
        return remaining

    def grant(self, user_id: int, requested: float) -> float:
        """Clamp ``requested`` bytes to what the user's cell has left."""
        if requested < 0:
            raise ValueError("requested bytes must be >= 0")
        cell = self.topology.cell(user_id)
        granted = min(float(requested), self.remaining(cell))
        stats = self._cell_stats(cell)
        stats.requested_bytes += requested
        stats.granted_bytes += granted
        if granted < requested:
            stats.denied_bytes += requested - granted
            stats.contended_grants += 1
        return granted

    def consume(self, user_id: int, used: float) -> float:
        """Draw ``used`` delivered bytes from the user's cell pool.

        Returns the amount actually drawn (floored at an empty pool --
        over-consumption beyond the pool is clamped, not negative).
        """
        if used < 0:
            raise ValueError("consumed bytes must be >= 0")
        cell = self.topology.cell(user_id)
        remaining = self.remaining(cell)
        drawn = min(float(used), remaining)
        self._remaining[cell] = remaining - drawn
        self._cell_stats(cell).consumed_bytes += drawn
        return drawn

