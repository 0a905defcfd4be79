"""Topic-based pub/sub substrate (Spotify-style notification origin)."""

from repro.pubsub.topics import Publication, Topic, TopicKind
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.matching import TopicMatcher
from repro.core.breaker import BreakerState, CircuitBreakerConfig
from repro.pubsub.broker import Broker, BrokerStats, DeliveryMode, Notification
from repro.pubsub.capacity import (
    CapacityConfig,
    CapacityLimitedBroker,
    CapacitySelection,
    select_satisfied_subscribers,
)
