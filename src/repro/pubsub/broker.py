"""The notification broker: publications in, per-user notifications out.

Section II describes Spotify's hybrid engine (real-time friend feeds,
batched album/playlist updates) as the setting RichNote is built for;
RichNote's own contribution is the round-based selection downstream.  The
broker is the part of that engine the reproduction runs: it matches each
publication to its topic's subscribers, queues one notification per
recipient, and :meth:`Broker.flush` releases the queue once per round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, TopicKind


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


@dataclass
class BrokerStats:
    """Cumulative broker counters (scalability diagnostics)."""

    publications: int = 0
    notifications: int = 0
    dropped_no_subscribers: int = 0
    per_kind: dict[TopicKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in TopicKind}
    )


class Broker:
    """Topic-based pub/sub broker: match, queue, release per round."""

    def __init__(self, subscriptions: SubscriptionStore | None = None) -> None:
        self.subscriptions = subscriptions or SubscriptionStore()
        self._pending: list[Notification] = []
        self._ids = itertools.count()
        self.stats = BrokerStats()

    def publish(self, publication: Publication) -> list[Notification]:
        """Match and queue one publication; returns the notifications made.

        The recipients are the topic's subscribers in ascending id order,
        minus the publisher: nobody is notified of their own activity (a
        FRIEND-topic publisher is the topic entity, not a subscriber, but
        ARTIST/PLAYLIST owners may follow their own pages).
        """
        self.stats.publications += 1
        recipients = sorted(
            self.subscriptions.subscribers(publication.topic)
            - {publication.publisher_id}
        )
        if not recipients:
            self.stats.dropped_no_subscribers += 1
            return []
        notifications = [
            Notification(
                notification_id=next(self._ids),
                recipient_id=recipient,
                publication=publication,
            )
            for recipient in recipients
        ]
        self.stats.notifications += len(notifications)
        self.stats.per_kind[publication.topic.kind] += len(notifications)
        self._pending.extend(notifications)
        return notifications

    def flush(self) -> list[Notification]:
        """Release and clear the queued notifications, in publish order."""
        released = self._pending
        self._pending = []
        return released

    @property
    def pending_count(self) -> int:
        return len(self._pending)
