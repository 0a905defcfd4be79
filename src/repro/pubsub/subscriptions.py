"""Subscription management: who follows which topic.

An index from topic to subscribers: matching fans a publication out to
them.
"""

from __future__ import annotations

from collections import defaultdict

from repro.pubsub.topics import Topic


class SubscriptionStore:
    """In-memory topic -> subscribers index with O(1) subscribe."""

    def __init__(self) -> None:
        self._by_topic: dict[Topic, set[int]] = defaultdict(set)

    def subscribe(self, user_id: int, topic: Topic) -> bool:
        """Add a subscription; returns False if it already existed."""
        if user_id < 0:
            raise ValueError("user id must be >= 0")
        if user_id in self._by_topic[topic]:
            return False
        self._by_topic[topic].add(user_id)
        return True

    def subscribers(self, topic: Topic) -> frozenset[int]:
        """Users subscribed to ``topic`` (empty set if none)."""
        return frozenset(self._by_topic.get(topic, frozenset()))
