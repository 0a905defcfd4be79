"""Tests for the experiment configuration, adapters and metrics."""

import pytest

from repro.core.content import ContentKind
from repro.core.presentations import build_audio_ladder
from repro.runtime.types import Delivery
from repro.experiments.adapters import record_to_item
from repro.experiments.config import (
    HOURS_PER_WEEK,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.metrics import aggregate, compute_user_metrics
from repro.pubsub.topics import TopicKind
from repro.trace.records import NotificationRecord

LADDER = build_audio_ladder()


def record(notification_id=1, clicked=False, click_time=None, timestamp=0.0):
    return NotificationRecord(
        notification_id=notification_id,
        recipient_id=1,
        sender_id=2,
        kind=TopicKind.FRIEND,
        track_id=1,
        album_id=1,
        artist_id=1,
        track_popularity=50,
        album_popularity=50,
        artist_popularity=50,
        tie_strength=0.5,
        is_friend=True,
        favorite_genre=False,
        timestamp=timestamp,
        hovered=clicked,
        clicked=clicked,
        click_time=click_time,
    )


def delivery(item, time=100.0, level=1, utility=0.1):
    return Delivery(
        time=time,
        user_id=1,
        item=item,
        level=level,
        size_bytes=item.ladder.size(level),
        energy_joules=1.0,
        utility=utility,
    )


class TestExperimentConfig:
    def test_theta_conversion(self):
        config = ExperimentConfig(weekly_budget_mb=16.8, round_seconds=3600.0)
        assert config.theta_bytes_per_round == pytest.approx(
            16.8e6 / HOURS_PER_WEEK
        )

    def test_with_budget_and_v_copies(self):
        config = ExperimentConfig()
        other = config.with_budget(50.0)
        assert other.weekly_budget_mb == 50.0
        assert other.round_seconds == config.round_seconds
        assert config.with_v(10.0).lyapunov_v == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(weekly_budget_mb=0)
        with pytest.raises(ValueError):
            ExperimentConfig(round_seconds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(lyapunov_v=-1)
        nan, inf = float("nan"), float("inf")
        for field, value in (
            ("lyapunov_v", nan),
            ("lyapunov_v", inf),
            ("kappa_joules_per_round", inf),
            ("round_seconds", nan),
            ("weekly_budget_mb", nan),
            ("weekly_budget_mb", inf),
            ("aging_tau_seconds", nan),
            ("aging_tau_seconds", inf),
            ("aging_tau_seconds", 0.0),
            ("aging_tau_seconds", -1.0),
        ):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(**{field: value})
        assert ExperimentConfig(aging_tau_seconds=None).utility_model().aging is None

    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.round_seconds == 3600.0
        assert config.kappa_joules_per_round == 3000.0
        assert config.lyapunov_v == 1000.0
        assert config.network_mode is NetworkMode.CELL_ONLY


class TestMethodSpec:
    def test_richnote_must_not_fix_level(self):
        with pytest.raises(ValueError):
            MethodSpec(Method.RICHNOTE, fixed_level=3)

    def test_baselines_need_level(self):
        with pytest.raises(ValueError):
            MethodSpec(Method.FIFO)
        with pytest.raises(ValueError):
            MethodSpec(Method.UTIL, fixed_level=0)

    def test_labels(self):
        assert MethodSpec(Method.RICHNOTE).label == "RichNote"
        assert MethodSpec(Method.FIFO, 3).label == "FIFO-L3"
        assert MethodSpec(Method.UTIL, 2).label == "UTIL-L2"


class TestAdapters:
    def test_record_to_item_copies_labels_and_features(self):
        r = record(clicked=True, click_time=500.0, timestamp=100.0)
        item = record_to_item(r, LADDER)
        assert item.item_id == r.notification_id
        assert item.user_id == r.recipient_id
        assert item.kind is ContentKind.FRIEND_FEED
        assert item.created_at == 100.0
        assert item.clicked
        assert item.click_time == 500.0
        assert item.metadata["tie_strength"] == 0.5


class TestUserMetrics:
    def test_delivery_ratio_and_precision_recall(self):
        records = [
            record(1, clicked=True, click_time=200.0),
            record(2, clicked=True, click_time=50.0),
            record(3),
        ]
        items = {r.notification_id: record_to_item(r, LADDER) for r in records}
        deliveries = [
            delivery(items[1], time=100.0),  # delivered before click: hit
            delivery(items[2], time=100.0),  # delivered after click: miss
        ]
        metrics = compute_user_metrics(1, records, deliveries)
        assert metrics.delivery_ratio == pytest.approx(2 / 3)
        assert metrics.clicked_total == 2
        assert metrics.clicked_delivered_in_time == 1
        assert metrics.precision == pytest.approx(1 / 2)
        assert metrics.recall == pytest.approx(1 / 2)

    def test_queuing_delay_mean(self):
        records = [record(1, timestamp=100.0), record(2, timestamp=200.0)]
        items = {r.notification_id: record_to_item(r, LADDER) for r in records}
        deliveries = [
            delivery(items[1], time=400.0),
            delivery(items[2], time=400.0),
        ]
        metrics = compute_user_metrics(1, records, deliveries)
        assert metrics.mean_queuing_delay_s == pytest.approx((300 + 200) / 2)

    def test_zero_divisions_guarded(self):
        metrics = compute_user_metrics(1, [record(1)], [])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.average_utility == 0.0
        assert metrics.delivery_ratio == 0.0

    def test_level_histogram(self):
        records = [record(1), record(2)]
        items = {r.notification_id: record_to_item(r, LADDER) for r in records}
        deliveries = [
            delivery(items[1], level=1),
            delivery(items[2], level=3),
        ]
        metrics = compute_user_metrics(1, records, deliveries)
        assert metrics.level_histogram == {1: 1, 3: 1}


class TestAggregate:
    def test_ratio_metrics_averaged_volume_metrics_summed(self):
        records_a = [record(1, clicked=True, click_time=500.0)]
        records_b = [record(2), record(3)]
        items = {
            i: record_to_item(record(i), LADDER) for i in (1, 2, 3)
        }
        user_a = compute_user_metrics(1, records_a, [delivery(items[1], utility=0.4)])
        user_b = compute_user_metrics(2, records_b, [delivery(items[2], utility=0.2)])
        agg = aggregate([user_a, user_b])
        assert agg.users == 2
        assert agg.delivery_ratio == pytest.approx((1.0 + 0.5) / 2)
        assert agg.total_utility == pytest.approx(0.6)

    def test_level_mix_normalized(self):
        records = [record(1), record(2)]
        items = {r.notification_id: record_to_item(r, LADDER) for r in records}
        user = compute_user_metrics(
            1, records, [delivery(items[1], level=1), delivery(items[2], level=2)]
        )
        agg = aggregate([user])
        assert agg.level_mix == {1: 0.5, 2: 0.5}

    def test_empty_aggregation_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
