"""Tests for the topic-based pub/sub substrate."""

import pytest

from repro.pubsub.broker import Broker
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
        assert store.subscribers(Topic(TopicKind.ARTIST, 6)) == frozenset()

    def test_negative_user_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionStore().subscribe(-1, Topic(TopicKind.FRIEND, 1))

    def test_subscribers_is_a_snapshot(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.FRIEND, 2)
        store.subscribe(1, topic)
        before = store.subscribers(topic)
        store.subscribe(3, topic)
        assert before == {1}
        assert store.subscribers(topic) == {1, 3}

    def test_one_user_follows_many_topics_independently(self):
        store = SubscriptionStore()
        artist, playlist = Topic(TopicKind.ARTIST, 1), Topic(TopicKind.PLAYLIST, 1)
        assert store.subscribe(4, artist)
        assert store.subscribe(4, playlist)  # same user, same entity id, other kind
        store.subscribe(5, artist)
        assert store.subscribers(artist) == {4, 5}
        assert store.subscribers(playlist) == {4}


class TestMatching:
    @staticmethod
    def recipients(store, publication):
        return [n.recipient_id for n in Broker(store).publish(publication)]

    def test_matches_subscribers(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.FRIEND, 9)
        store.subscribe(2, topic)
        store.subscribe(1, topic)
        assert self.recipients(store, pub(topic, publisher=9)) == [1, 2]

    def test_publisher_never_self_notified(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.PLAYLIST, 4)
        store.subscribe(7, topic)  # owner follows their own playlist
        assert self.recipients(store, pub(topic, publisher=7)) == []

    def test_publisher_as_only_subscriber_counts_as_drop(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 4)
        store.subscribe(7, topic)
        broker = Broker(store)
        assert broker.publish(pub(topic, publisher=7)) == []
        assert broker.stats.dropped_no_subscribers == 1
        assert broker.stats.notifications == 0
        assert broker.pending_count == 0


class TestBroker:
    def test_queues_until_flush(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.ARTIST, 1)
        store.subscribe(5, topic)
        broker = Broker(store)
        made = broker.publish(pub(topic))
        assert broker.pending_count == 1
        released = broker.flush()
        assert released == made
        assert broker.pending_count == 0
        assert broker.flush() == []

    def test_flush_releases_in_publish_order_with_running_ids(self):
        store = SubscriptionStore()
        friend_topic = Topic(TopicKind.FRIEND, 1)
        artist_topic = Topic(TopicKind.ARTIST, 1)
        for user in (6, 5):
            store.subscribe(user, friend_topic)
            store.subscribe(user, artist_topic)
        broker = Broker(store)
        broker.publish(pub(friend_topic, timestamp=2.0))
        broker.publish(pub(artist_topic, timestamp=1.0))
        first = broker.flush()
        assert [(n.kind, n.recipient_id) for n in first] == [
            (TopicKind.FRIEND, 5), (TopicKind.FRIEND, 6),
            (TopicKind.ARTIST, 5), (TopicKind.ARTIST, 6),
        ]
        broker.publish(pub(friend_topic, timestamp=3.0))
        ids = [n.notification_id for n in first + broker.flush()]
        assert ids == list(range(6))

    def test_shares_the_store_it_is_given_even_when_empty(self):
        store = SubscriptionStore()
        broker = Broker(store)
        topic = Topic(TopicKind.FRIEND, 3)
        store.subscribe(8, topic)  # subscribed after the broker was built
        assert [n.recipient_id for n in broker.publish(pub(topic, publisher=3))] == [8]

    def test_notification_carries_its_publication(self):
        store = SubscriptionStore()
        topic = Topic(TopicKind.PLAYLIST, 6)
        store.subscribe(2, topic)
        publication = pub(topic, publisher=9, timestamp=4.5, track=11)
        (notification,) = Broker(store).publish(publication)
        assert notification.publication is publication
        assert notification.timestamp == 4.5
        assert notification.kind is TopicKind.PLAYLIST
        assert notification.publication.payload == {"track": 11}

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
        broker = Broker(store)
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
