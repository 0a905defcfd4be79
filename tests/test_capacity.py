"""Tests for broker-side capacity management (satisfied subscribers)."""

import random

import pytest

from repro.core.breaker import BreakerState, CircuitBreakerConfig
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.pubsub.broker import Broker, Notification
from repro.runtime.types import Delivery
from repro.service import GuardedSink, SimulatedClock, SinkPolicy
from repro.pubsub.capacity import (
    CapacityConfig,
    CellTopology,
    SharedCellCapacity,
    select_satisfied_subscribers,
)
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, Topic, TopicKind


def notif(notification_id, recipient):
    return Notification(
        notification_id=notification_id,
        recipient_id=recipient,
        publication=Publication(
            topic=Topic(TopicKind.FRIEND, 0), publisher_id=0, timestamp=1.0
        ),
    )


def demands(spec: dict[int, int]) -> list[Notification]:
    """spec: user -> how many notifications they are matched to."""
    notifications = []
    next_id = 0
    for user, count in spec.items():
        for _ in range(count):
            notifications.append(notif(next_id, user))
            next_id += 1
    return notifications


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityConfig(broker_capacity=-1)
        with pytest.raises(ValueError):
            CapacityConfig(broker_capacity=1, default_user_capacity=-1)
        with pytest.raises(ValueError):
            CapacityConfig(broker_capacity=1, user_capacity_overrides={1: -1})

    def test_overrides(self):
        config = CapacityConfig(
            broker_capacity=10, default_user_capacity=5,
            user_capacity_overrides={7: 1},
        )
        assert config.user_capacity(7) == 1
        assert config.user_capacity(8) == 5


class TestSharedCellPoolValidation:
    @pytest.mark.parametrize("pool", [float("nan"), float("inf")])
    def test_non_finite_pools_are_refused(self, pool):
        topology = CellTopology(cell_of={1: 0})
        with pytest.raises(ValueError, match="finite and >= 0"):
            SharedCellCapacity(topology, bytes_per_round=pool)
        with pytest.raises(ValueError, match="finite and >= 0"):
            SharedCellCapacity(topology, bytes_per_round={0: 1_000.0, 1: pool})


class TestGreedySelection:
    def test_all_fit_all_satisfied(self):
        selection = select_satisfied_subscribers(
            demands({1: 2, 2: 3}), CapacityConfig(broker_capacity=10)
        )
        assert selection.satisfied_users == {1, 2}
        assert len(selection.delivered) == 5
        assert selection.dropped == []

    def test_smallest_demands_satisfied_first(self):
        """Greedy maximizes the satisfied COUNT, not delivered volume."""
        selection = select_satisfied_subscribers(
            demands({1: 5, 2: 1, 3: 2}), CapacityConfig(broker_capacity=4)
        )
        assert selection.satisfied_users == {2, 3}
        assert selection.satisfied_count == 2

    def test_leftover_capacity_partially_serves(self):
        selection = select_satisfied_subscribers(
            demands({1: 1, 2: 5}), CapacityConfig(broker_capacity=3)
        )
        assert selection.satisfied_users == {1}
        delivered_to_2 = [n for n in selection.delivered if n.recipient_id == 2]
        assert len(delivered_to_2) == 2  # the leftover 2 of capacity 3
        assert len(selection.dropped) == 3

    def test_user_capacity_blocks_satisfaction(self):
        config = CapacityConfig(
            broker_capacity=100, default_user_capacity=50,
            user_capacity_overrides={1: 2},
        )
        selection = select_satisfied_subscribers(demands({1: 4}), config)
        assert selection.satisfied_users == frozenset()
        assert len(selection.delivered) == 2  # partial, capped by the user
        assert len(selection.dropped) == 2

    def test_zero_capacity_drops_everything(self):
        selection = select_satisfied_subscribers(
            demands({1: 2}), CapacityConfig(broker_capacity=0)
        )
        assert selection.delivered == []
        assert len(selection.dropped) == 2

    def test_greedy_count_is_optimal_on_small_cases(self):
        """Compare against brute force over subscriber subsets."""
        import itertools

        spec = {1: 3, 2: 2, 3: 2, 4: 4}
        config = CapacityConfig(broker_capacity=7)
        selection = select_satisfied_subscribers(demands(spec), config)
        best = 0
        for r in range(len(spec) + 1):
            for subset in itertools.combinations(spec, r):
                if sum(spec[u] for u in subset) <= config.broker_capacity:
                    best = max(best, len(subset))
        assert selection.satisfied_count == best


def artist_broker() -> tuple[Broker, Topic]:
    """A broker whose one artist topic fans out to users 1, 2 and 3."""
    store = SubscriptionStore()
    topic = Topic(TopicKind.ARTIST, 1)
    for user in (1, 2, 3):
        store.subscribe(user, topic)
    return Broker(store), topic


class TestCapacityLimitedBroker:
    """The selector over a broker's round flush, as the live system runs it."""

    def test_flush_respects_capacity(self):
        broker, topic = artist_broker()
        broker.publish(Publication(topic=topic, publisher_id=99, timestamp=1.0))
        selection = select_satisfied_subscribers(
            broker.flush(), CapacityConfig(broker_capacity=2)
        )
        assert len(selection.delivered) == 2
        assert len(selection.dropped) == 1
        assert selection.satisfied_count == 2


class TestExhaustionAndRefund:
    """Boundary paths: broker capacity running dry mid-queue, and budget a
    blocked user cannot use flowing back to the partial queue."""

    def test_conservation_under_exhaustion(self):
        batch = demands({1: 3, 2: 4, 3: 5})
        selection = select_satisfied_subscribers(
            batch, CapacityConfig(broker_capacity=6)
        )
        # Every matched notification is either delivered or dropped.
        assert len(selection.delivered) + len(selection.dropped) == len(batch)
        assert len(selection.delivered) == 6  # user 1 fully + 3 partial
        assert selection.satisfied_users == frozenset({1})

    def test_exhausted_capacity_starves_later_partials(self):
        batch = demands({1: 3, 2: 4, 3: 5})
        selection = select_satisfied_subscribers(
            batch, CapacityConfig(broker_capacity=6)
        )
        # Partial service drains ascending by demand: user 2 absorbs the
        # leftover, user 3 (largest demand) gets nothing.
        delivered_users = {n.recipient_id for n in selection.delivered}
        assert delivered_users == {1, 2}
        assert sum(1 for n in selection.dropped if n.recipient_id == 3) == 5

    def test_blocked_user_refunds_capacity_to_others(self):
        # User 1's personal capacity is 0: they can never be satisfied,
        # so the broker budget their demand would have consumed serves
        # user 2 instead of being wasted.
        batch = demands({1: 2, 2: 2})
        config = CapacityConfig(
            broker_capacity=2, user_capacity_overrides={1: 0}
        )
        selection = select_satisfied_subscribers(batch, config)
        assert selection.satisfied_users == frozenset({2})
        assert [n.recipient_id for n in selection.delivered] == [2, 2]
        assert sum(1 for n in selection.dropped if n.recipient_id == 1) == 2

    def test_partial_service_capped_by_user_attention(self):
        # Leftover broker capacity cannot overfill one user's capacity.
        batch = demands({1: 5})
        config = CapacityConfig(broker_capacity=10, default_user_capacity=2)
        selection = select_satisfied_subscribers(batch, config)
        assert selection.satisfied_users == frozenset()
        assert len(selection.delivered) == 2
        assert len(selection.dropped) == 3

    def test_exactly_exhausted_boundary(self):
        # Demand == capacity: satisfied with zero leftover, nothing dropped.
        batch = demands({1: 2, 2: 3})
        selection = select_satisfied_subscribers(
            batch, CapacityConfig(broker_capacity=5)
        )
        assert selection.satisfied_users == frozenset({1, 2})
        assert selection.dropped == []

    def test_totals_accumulate_across_rounds_and_drops_never_hit_sinks(self):
        broker, topic = artist_broker()
        config = CapacityConfig(broker_capacity=2)
        delivered, dropped = [], 0
        for timestamp in (1.0, 2.0):
            broker.publish(
                Publication(topic=topic, publisher_id=99, timestamp=timestamp)
            )
            selection = select_satisfied_subscribers(broker.flush(), config)
            delivered += selection.delivered
            dropped += len(selection.dropped)
        assert len(delivered) == 4
        assert dropped == 2
        # Dropped notifications were filtered before the sink layer.
        assert len(delivered) + dropped == broker.stats.notifications == 6


def _as_delivery(notification: Notification) -> Delivery:
    """Adapt a pubsub notification to the egress sinks' Delivery shape."""
    return Delivery(
        time=notification.timestamp,
        user_id=notification.recipient_id,
        item=ContentItem(
            item_id=notification.notification_id,
            user_id=notification.recipient_id,
            kind=ContentKind.FRIEND_FEED,
            created_at=notification.timestamp,
            ladder=_LADDER,
        ),
        level=1,
        size_bytes=1_000,
        energy_joules=1.0,
        utility=0.5,
    )


_LADDER = build_audio_ladder()


class TestCapacityAcrossOpenBreaker:
    """Capacity-filtered rounds feeding a guarded sink whose breaker
    opens (ISSUE 9 satellite).

    The conservation ledger must stay exact end to end: every matched
    notification is accounted exactly once as capacity-dropped,
    sink-delivered, sink-exhausted, or breaker-refused -- the capacity
    layer and the egress layer never double-count or lose one.
    """

    def _stack(self, sink, *, failure_threshold=2, cooldown_skips=100):
        broker, topic = artist_broker()
        clock = SimulatedClock()
        guarded = GuardedSink(
            sink,
            clock=clock,
            rng=random.Random(7),
            policy=SinkPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(
                failure_threshold=failure_threshold,
                cooldown_skips=cooldown_skips,
            ),
        )
        return topic, broker, clock, guarded

    def _run_rounds(self, topic, broker, clock, guarded, rounds):
        """Publish, select and deliver ``rounds`` rounds; returns the
        capacity layer's (delivered, dropped) totals."""
        config = CapacityConfig(broker_capacity=2)

        async def scenario():
            delivered = dropped = 0
            for timestamp in range(1, rounds + 1):
                broker.publish(
                    Publication(
                        topic=topic,
                        publisher_id=99,
                        timestamp=float(timestamp),
                    )
                )
                selection = select_satisfied_subscribers(broker.flush(), config)
                delivered += len(selection.delivered)
                dropped += len(selection.dropped)
                for notification in selection.delivered:
                    await guarded.deliver(_as_delivery(notification))
            return delivered, dropped

        return clock.run(scenario())

    def test_open_breaker_rounds_keep_ledger_exact(self):
        def down(_delivery):
            raise RuntimeError("egress down")

        topic, broker, clock, guarded = self._stack(down)
        total_delivered, total_dropped = self._run_rounds(
            topic, broker, clock, guarded, rounds=4
        )

        # Two failures trip the breaker; every later selected
        # notification is refused fast without an attempt.
        assert guarded.breaker_state is BreakerState.OPEN
        assert guarded.stats.attempts == 2
        assert guarded.stats.delivered == 0
        assert guarded.stats.exhausted == 2
        assert guarded.stats.breaker_skips == 6

        # Capacity layer: 3 matched per round, 2 selected, 1 dropped.
        matched = broker.stats.notifications
        assert matched == 12
        assert total_delivered + total_dropped == matched
        assert broker.pending_count == 0

        # The cross-layer ledger closes exactly: capacity drops plus the
        # guarded sink's three outcomes account for every notification.
        assert matched == (
            total_dropped
            + guarded.stats.delivered
            + guarded.stats.exhausted
            + guarded.stats.breaker_skips
        )
        # Within the sink, attempts split exactly into outcomes.
        assert guarded.stats.attempts == (
            guarded.stats.delivered + guarded.stats.failures
        )

    def test_breaker_recovery_keeps_ledger_exact(self):
        calls = {"n": 0}

        def flaky(_delivery):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("warming up")

        topic, broker, clock, guarded = self._stack(flaky, cooldown_skips=2)
        total_delivered, total_dropped = self._run_rounds(
            topic, broker, clock, guarded, rounds=4
        )

        # Round 1 opens the breaker (2 failures); round 2's deliveries
        # burn the cooldown; round 3's first delivery is the half-open
        # probe, succeeds, and re-closes -- everything after delivers.
        assert guarded.breaker_state is BreakerState.CLOSED
        assert guarded.stats.delivered == 4
        assert guarded.stats.exhausted == 2
        assert guarded.stats.breaker_skips == 2

        matched = broker.stats.notifications
        assert matched == 12
        assert matched == (
            total_dropped
            + guarded.stats.delivered
            + guarded.stats.exhausted
            + guarded.stats.breaker_skips
        )

    def test_per_round_selection_ledger_is_exact_while_open(self):
        def down(_delivery):
            raise RuntimeError("egress down")

        topic, broker, clock, guarded = self._stack(down)
        config = CapacityConfig(broker_capacity=2)

        async def scenario():
            ledgers = []
            for timestamp in (1.0, 2.0, 3.0):
                broker.publish(
                    Publication(
                        topic=topic, publisher_id=99, timestamp=timestamp
                    )
                )
                pending = broker.pending_count
                selection = select_satisfied_subscribers(broker.flush(), config)
                ledgers.append(
                    (
                        pending,
                        len(selection.delivered),
                        len(selection.dropped),
                    )
                )
                for notification in selection.delivered:
                    await guarded.deliver(_as_delivery(notification))
            return ledgers

        ledgers = clock.run(scenario())
        for pending, delivered, dropped in ledgers:
            assert pending == delivered + dropped
        assert guarded.breaker_state is BreakerState.OPEN
