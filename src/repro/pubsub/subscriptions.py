"""Subscription management: who follows which topic.

A straightforward doubly-indexed store: topic -> subscribers and
user -> topics.  Both directions are needed -- matching fans a publication
out to subscribers, while feature extraction and churn simulation walk a
user's subscription list.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.pubsub.topics import Topic, TopicKind


class SubscriptionStore:
    """In-memory subscription index with O(1) subscribe/unsubscribe."""

    def __init__(self) -> None:
        self._by_topic: dict[Topic, set[int]] = defaultdict(set)
        self._by_user: dict[int, set[Topic]] = defaultdict(set)
        self._subscription_count = 0

    def subscribe(self, user_id: int, topic: Topic) -> bool:
        """Add a subscription; returns False if it already existed."""
        if user_id < 0:
            raise ValueError("user id must be >= 0")
        if user_id in self._by_topic[topic]:
            return False
        self._by_topic[topic].add(user_id)
        self._by_user[user_id].add(topic)
        self._subscription_count += 1
        return True

    def unsubscribe(self, user_id: int, topic: Topic) -> bool:
        """Remove a subscription; returns False if it did not exist."""
        if user_id not in self._by_topic.get(topic, set()):
            return False
        self._by_topic[topic].discard(user_id)
        self._by_user[user_id].discard(topic)
        self._subscription_count -= 1
        if not self._by_topic[topic]:
            del self._by_topic[topic]
        return True

    def subscribers(self, topic: Topic) -> frozenset[int]:
        """Users subscribed to ``topic`` (empty set if none)."""
        return frozenset(self._by_topic.get(topic, frozenset()))

    def topics_of(self, user_id: int) -> frozenset[Topic]:
        """Topics ``user_id`` follows."""
        return frozenset(self._by_user.get(user_id, frozenset()))

    def topics_of_kind(self, user_id: int, kind: TopicKind) -> frozenset[Topic]:
        return frozenset(
            topic for topic in self._by_user.get(user_id, ()) if topic.kind is kind
        )

    def bulk_subscribe(self, user_id: int, topics: Iterable[Topic]) -> int:
        """Subscribe to many topics; returns how many were new."""
        return sum(1 for topic in topics if self.subscribe(user_id, topic))

    @property
    def total_subscriptions(self) -> int:
        return self._subscription_count
