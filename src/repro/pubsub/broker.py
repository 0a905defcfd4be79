"""The notification broker: publications in, per-user notifications out.

Section II describes Spotify's hybrid engine with two delivery modes
(real-time for friend feeds, batch for album/playlist updates) and RichNote's
round-based middle ground.  The broker supports all three:

* ``REALTIME`` -- notifications are handed to the sink as soon as the
  publication is matched;
* ``BATCH`` -- notifications accumulate until an explicit :meth:`flush`;
* ``ROUND`` -- notifications accumulate and are released by the periodic
  :meth:`flush`, which the experiment harness calls once per round (round
  duration is tuned per feed frequency: minutes for friend feeds, hours for
  artist/playlist feeds).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.core.breaker import BreakerState, CircuitBreakerConfig, SinkCircuit
from repro.pubsub.matching import TopicMatcher
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, TopicKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.content import ContentItem
    from repro.runtime.loop import RoundLoop
    from repro.runtime.types import RoundResult


class DeliveryMode(str, Enum):
    REALTIME = "realtime"
    BATCH = "batch"
    ROUND = "round"


@dataclass(frozen=True)
class Notification:
    """A matched publication addressed to one recipient."""

    notification_id: int
    recipient_id: int
    publication: Publication

    @property
    def timestamp(self) -> float:
        return self.publication.timestamp

    @property
    def kind(self) -> TopicKind:
        return self.publication.topic.kind


#: Sink invoked with each released notification.
NotificationSink = Callable[[Notification], None]


@dataclass
class BrokerStats:
    """Cumulative broker counters (scalability diagnostics)."""

    publications: int = 0
    notifications: int = 0
    dropped_no_subscribers: int = 0
    #: Sink callbacks that raised; the failure is isolated per
    #: (sink, notification) -- the rest of the batch still flows.
    sink_errors: int = 0
    #: Deliveries skipped because a sink's circuit breaker was OPEN.
    sink_skipped: int = 0
    #: Breaker state changes (CLOSED->OPEN, OPEN->HALF_OPEN, ...).
    breaker_transitions: int = 0
    per_kind: dict[TopicKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TopicKind}
    )


class Broker:
    """Topic-based pub/sub broker with pluggable delivery mode.

    Per-kind delivery modes are supported -- e.g. friend feeds REALTIME,
    album releases ROUND -- via ``mode_overrides``.
    """

    def __init__(
        self,
        subscriptions: SubscriptionStore | None = None,
        default_mode: DeliveryMode = DeliveryMode.ROUND,
        mode_overrides: dict[TopicKind, DeliveryMode] | None = None,
        breaker: CircuitBreakerConfig | None = None,
    ) -> None:
        self.subscriptions = subscriptions or SubscriptionStore()
        self.matcher = TopicMatcher(self.subscriptions)
        self._default_mode = default_mode
        self._mode_overrides = dict(mode_overrides or {})
        self._pending: list[Notification] = []
        self._sinks: list[NotificationSink] = []
        self._circuits: list[SinkCircuit] = []
        self._breaker_config = breaker or CircuitBreakerConfig()
        self._ids = itertools.count()
        self.stats = BrokerStats()

    def add_sink(self, sink: NotificationSink) -> None:
        """Register a consumer for released notifications."""
        self._sinks.append(sink)
        self._circuits.append(SinkCircuit(self._breaker_config))

    def breaker_states(self) -> list[BreakerState]:
        """Current breaker state per registered sink (diagnostics)."""
        return [circuit.state for circuit in self._circuits]

    def mode_for(self, kind: TopicKind) -> DeliveryMode:
        return self._mode_overrides.get(kind, self._default_mode)

    def publish(self, publication: Publication) -> list[Notification]:
        """Match and route one publication; returns the notifications made.

        REALTIME notifications are pushed to sinks immediately; BATCH/ROUND
        ones are queued for the next :meth:`flush`.
        """
        self.stats.publications += 1
        recipients = self.matcher.match(publication)
        if not recipients:
            self.stats.dropped_no_subscribers += 1
            return []
        notifications = [
            Notification(
                notification_id=next(self._ids),
                recipient_id=recipient,
                publication=publication,
            )
            for recipient in sorted(recipients)
        ]
        self.stats.notifications += len(notifications)
        self.stats.per_kind[publication.topic.kind] += len(notifications)
        if self.mode_for(publication.topic.kind) is DeliveryMode.REALTIME:
            for notification in notifications:
                self._emit(notification)
        else:
            self._pending.extend(notifications)
        return notifications

    def flush(self) -> list[Notification]:
        """Release all queued BATCH/ROUND notifications to the sinks.

        A sink that raises affects only that (sink, notification) pair:
        the exception is counted in :attr:`BrokerStats.sink_errors`, its
        circuit breaker advances, and the rest of the batch -- and the
        remaining sinks -- still receive their notifications.
        """
        released = self._pending
        self._pending = []
        for notification in released:
            self._emit(notification)
        return released

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _emit(self, notification: Notification) -> None:
        for sink, circuit in zip(self._sinks, self._circuits):
            allowed, transitioned = circuit.allow()
            if transitioned:
                self.stats.breaker_transitions += 1
            if not allowed:
                self.stats.sink_skipped += 1
                continue
            try:
                sink(notification)
            except Exception:
                self.stats.sink_errors += 1
                if circuit.record_failure():
                    self.stats.breaker_transitions += 1
            else:
                if circuit.record_success():
                    self.stats.breaker_transitions += 1


class SchedulerFleetSink:
    """A broker sink that routes notifications into per-user round loops.

    The deployed composition of Section IV: register the sink with
    :meth:`Broker.add_sink`, publish, and call :meth:`run_round` at every
    round boundary.  Loops are created lazily, one per recipient, by
    ``loop_factory(user_id)``; each released notification is converted to
    a :class:`~repro.core.content.ContentItem` by
    ``item_factory(notification)`` and enqueued to its recipient's loop.

    The sink never imports concrete policy classes --
    :meth:`with_policy` resolves the selection rule by registry name, so
    swapping the fleet from ``richnote`` to a downstream plugin policy is
    a one-string change.
    """

    def __init__(
        self,
        item_factory: "Callable[[Notification], ContentItem]",
        loop_factory: "Callable[[int], RoundLoop]",
    ) -> None:
        self._item_factory = item_factory
        self._loop_factory = loop_factory
        self._loops: dict[int, "RoundLoop"] = {}

    @classmethod
    def with_policy(
        cls,
        item_factory: "Callable[[Notification], ContentItem]",
        loop_factory: "Callable[[int], RoundLoop]",
        policy: str,
        **policy_params,
    ) -> "SchedulerFleetSink":
        """A fleet whose loops bind a fresh registry-created policy each.

        ``loop_factory(user_id)`` builds the bare loop (device, budgets,
        utility model); this wrapper then binds
        ``registry.create(policy, **policy_params)`` to it.  Policies are
        per-user instances, so stateful policies (e.g. ``richnote``'s
        Lyapunov history) never share state across users.
        """
        from repro.runtime import registry

        def bound_factory(user_id: int) -> "RoundLoop":
            loop = loop_factory(user_id)
            loop.bind_policy(registry.create(policy, **policy_params))
            return loop

        return cls(item_factory, bound_factory)

    def __call__(self, notification: Notification) -> None:
        self.loop_for(notification.recipient_id).enqueue(
            self._item_factory(notification)
        )

    def loop_for(self, user_id: int) -> "RoundLoop":
        """The (lazily created) round loop of one recipient."""
        loop = self._loops.get(user_id)
        if loop is None:
            loop = self._loop_factory(user_id)
            self._loops[user_id] = loop
        return loop

    @property
    def user_ids(self) -> list[int]:
        """Recipients with a live loop, sorted."""
        return sorted(self._loops)

    def run_round(
        self, now: float, round_seconds: float
    ) -> dict[int, "RoundResult"]:
        """Advance every user's loop one round; results keyed by user id."""
        return {
            user_id: self._loops[user_id].run_round(now, round_seconds)
            for user_id in sorted(self._loops)
        }
