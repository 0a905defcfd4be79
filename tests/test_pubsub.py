"""Tests for the topic-based pub/sub substrate."""

import pytest

from repro.pubsub.broker import Broker, DeliveryMode
from repro.pubsub.matching import TopicMatcher
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, Topic, TopicKind


def pub(topic, publisher=0, timestamp=1.0, **payload):
    return Publication(
        topic=topic, publisher_id=publisher, timestamp=timestamp, payload=payload
    )


class TestTopics:
    def test_topic_identity(self):
        assert Topic(TopicKind.FRIEND, 3) == Topic(TopicKind.FRIEND, 3)
        assert Topic(TopicKind.FRIEND, 3) != Topic(TopicKind.ARTIST, 3)

    def test_negative_entity_rejected(self):
        with pytest.raises(ValueError):
            Topic(TopicKind.ARTIST, -1)

    def test_publication_timestamp_validated(self):
        with pytest.raises(ValueError):
            Publication(Topic(TopicKind.FRIEND, 1), 0, -1.0)


class TestSubscriptionStore:
    def test_subscribe_and_lookup(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 5)
        assert store.subscribe(1, topic)
        assert not store.subscribe(1, topic)  # duplicate
        assert store.subscribers(topic) == {1}
        assert store.topics_of(1) == {topic}
        assert store.total_subscriptions == 1

    def test_unsubscribe(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 5)
        store.subscribe(1, topic)
        assert store.unsubscribe(1, topic)
        assert not store.unsubscribe(1, topic)
        assert store.subscribers(topic) == frozenset()
        assert store.total_subscriptions == 0

    def test_topics_of_kind(self):
        store = SubscriptionStore()
        store.subscribe(1, Topic(TopicKind.ARTIST, 5))
        store.subscribe(1, Topic(TopicKind.FRIEND, 2))
        assert store.topics_of_kind(1, TopicKind.ARTIST) == {
            Topic(TopicKind.ARTIST, 5)
        }

    def test_bulk_subscribe_counts_new_only(self):
        store = SubscriptionStore()
        topics = [Topic(TopicKind.PLAYLIST, i) for i in range(3)]
        assert store.bulk_subscribe(1, topics) == 3
        assert store.bulk_subscribe(1, topics) == 0

    def test_negative_user_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionStore().subscribe(-1, Topic(TopicKind.FRIEND, 1))


class TestMatching:
    def test_matches_subscribers(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.FRIEND, 9)
        store.subscribe(1, topic)
        store.subscribe(2, topic)
        matcher = TopicMatcher(store)
        assert matcher.match(pub(topic, publisher=9)) == {1, 2}

    def test_publisher_never_self_notified(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.PLAYLIST, 4)
        store.subscribe(7, topic)  # owner follows their own playlist
        matcher = TopicMatcher(store)
        assert matcher.match(pub(topic, publisher=7)) == frozenset()

    def test_filters_applied(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.FRIEND, 9)
        store.subscribe(1, topic)
        store.subscribe(2, topic)
        matcher = TopicMatcher(store)
        matcher.add_filter(lambda user, publication: user != 2)
        assert matcher.match(pub(topic, publisher=9)) == {1}


class TestBroker:
    def test_round_mode_queues_until_flush(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 1)
        store.subscribe(5, topic)
        broker = Broker(store, default_mode=DeliveryMode.ROUND)
        received = []
        broker.add_sink(received.append)
        broker.publish(pub(topic))
        assert received == []
        assert broker.pending_count == 1
        released = broker.flush()
        assert len(released) == 1
        assert received == released
        assert broker.pending_count == 0

    def test_realtime_mode_emits_immediately(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.FRIEND, 1)
        store.subscribe(5, topic)
        broker = Broker(store, default_mode=DeliveryMode.REALTIME)
        received = []
        broker.add_sink(received.append)
        broker.publish(pub(topic))
        assert len(received) == 1
        assert broker.pending_count == 0

    def test_per_kind_mode_override(self):
        """Friend feeds realtime, album releases round-based (Section II)."""
        store = SubscriptionStore()
        friend_topic = Topic(TopicKind.FRIEND, 1)
        artist_topic = Topic(TopicKind.ARTIST, 1)
        store.subscribe(5, friend_topic)
        store.subscribe(5, artist_topic)
        broker = Broker(
            store,
            default_mode=DeliveryMode.ROUND,
            mode_overrides={TopicKind.FRIEND: DeliveryMode.REALTIME},
        )
        received = []
        broker.add_sink(received.append)
        broker.publish(pub(friend_topic))
        broker.publish(pub(artist_topic))
        assert len(received) == 1
        assert broker.pending_count == 1

    def test_no_subscribers_counts_drop(self):
        broker = Broker()
        out = broker.publish(pub(Topic(TopicKind.ARTIST, 1)))
        assert out == []
        assert broker.stats.dropped_no_subscribers == 1

    def test_fan_out_reaches_every_subscriber_once(self):
        """Each publication fans out to exactly its topic's subscribers."""
        store = SubscriptionStore()
        n_topics, fanout = 10, 4
        for topic_id in range(n_topics):
            for user in range(fanout):
                store.subscribe(topic_id * fanout + user, Topic(TopicKind.FRIEND, topic_id))
        broker = Broker(store, default_mode=DeliveryMode.ROUND)
        total = sum(
            len(broker.publish(pub(Topic(TopicKind.FRIEND, i % n_topics), publisher=999)))
            for i in range(25)
        )
        assert total == 25 * fanout
        assert len(broker.flush()) == total

    def test_stats_per_kind(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.PLAYLIST, 2)
        store.subscribe(1, topic)
        store.subscribe(2, topic)
        broker = Broker(store)
        broker.publish(pub(topic, publisher=99))
        assert broker.stats.publications == 1
        assert broker.stats.notifications == 2
        assert broker.stats.per_kind[TopicKind.PLAYLIST] == 2

    def test_notification_ids_unique_and_ordered(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 1)
        for user in range(5):
            store.subscribe(user, topic)
        broker = Broker(store)
        notifications = broker.publish(pub(topic, publisher=77))
        ids = [n.notification_id for n in notifications]
        assert ids == sorted(set(ids))
