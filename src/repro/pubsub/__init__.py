"""Topic-based pub/sub substrate (Spotify-style notification origin).

It matches publications to subscribers and queues the notifications per
round; what to deliver, and when, is decided downstream (``runtime``,
``service``).  The package imports nothing outside itself.
"""

from repro.pubsub.topics import Publication, Topic, TopicKind
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.broker import Broker, BrokerStats, Notification
from repro.pubsub.capacity import (
    CapacityConfig,
    CapacitySelection,
    select_satisfied_subscribers,
)
