"""Tests for per-feed round cadences (Section II's round-based model)."""

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.multifeed import FeedCadences, MultiFeedScheduler
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork

LADDER = build_audio_ladder()
BASE = 300.0


def make_inner(theta=10_000_000.0):
    device = MobileDevice(
        user_id=1,
        network=CellularOnlyNetwork(),
        battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
    )
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        policy=registry.create("richnote"),
    )


def make_item(item_id, kind, created_at=0.0):
    return ContentItem(
        item_id=item_id,
        user_id=1,
        kind=kind,
        created_at=created_at,
        ladder=LADDER,
        content_utility=0.5,
    )


def cadences(friend=BASE, album=4 * BASE, playlist=4 * BASE):
    return FeedCadences(
        base_period=BASE,
        periods={
            ContentKind.FRIEND_FEED: friend,
            ContentKind.ALBUM_RELEASE: album,
            ContentKind.PLAYLIST_UPDATE: playlist,
        },
    )


class TestFeedCadences:
    def test_defaults_follow_paper_example(self):
        config = FeedCadences()
        assert config.periods[ContentKind.FRIEND_FEED] < (
            config.periods[ContentKind.ALBUM_RELEASE]
        )

    def test_non_multiple_period_rejected(self):
        with pytest.raises(ValueError):
            cadences(album=2.5 * BASE)

    def test_period_below_base_rejected(self):
        with pytest.raises(ValueError):
            FeedCadences(
                base_period=600.0,
                periods={
                    ContentKind.FRIEND_FEED: 300.0,
                    ContentKind.ALBUM_RELEASE: 600.0,
                    ContentKind.PLAYLIST_UPDATE: 600.0,
                },
            )

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            FeedCadences(base_period=300.0, periods={})

    def test_ticks_per_release(self):
        config = cadences(album=4 * BASE)
        assert config.ticks_per_release(ContentKind.FRIEND_FEED) == 1
        assert config.ticks_per_release(ContentKind.ALBUM_RELEASE) == 4


class TestMultiFeedScheduler:
    def test_friend_items_flow_every_base_round(self):
        scheduler = MultiFeedScheduler(make_inner(), cadences())
        scheduler.enqueue(make_item(1, ContentKind.FRIEND_FEED))
        result = scheduler.run_round(BASE)
        assert [d.item.item_id for d in result.deliveries] == [1]

    def test_album_items_held_until_their_cadence(self):
        scheduler = MultiFeedScheduler(make_inner(), cadences(album=4 * BASE))
        scheduler.enqueue(make_item(1, ContentKind.ALBUM_RELEASE))
        delivered_at = None
        for tick in range(1, 6):
            result = scheduler.run_round(tick * BASE)
            if result.deliveries:
                delivered_at = tick
                break
        assert delivered_at == 4
        assert scheduler.buffered(ContentKind.ALBUM_RELEASE) == 0

    def test_batching_releases_all_buffered_items_together(self):
        scheduler = MultiFeedScheduler(make_inner(), cadences(album=2 * BASE))
        scheduler.enqueue(make_item(1, ContentKind.ALBUM_RELEASE))
        scheduler.run_round(BASE)
        scheduler.enqueue(make_item(2, ContentKind.ALBUM_RELEASE))
        result = scheduler.run_round(2 * BASE)
        assert sorted(d.item.item_id for d in result.deliveries) == [1, 2]

    def test_pending_counts_buffers_and_queues(self):
        scheduler = MultiFeedScheduler(make_inner(theta=0.0), cadences())
        scheduler.enqueue(make_item(1, ContentKind.FRIEND_FEED))
        scheduler.enqueue(make_item(2, ContentKind.ALBUM_RELEASE))
        assert scheduler.pending_items == 2
        scheduler.run_round(BASE)  # friend released (not delivered: theta=0)
        assert scheduler.pending_items == 2
        assert scheduler.buffered(ContentKind.ALBUM_RELEASE) == 1

    def test_wrong_round_length_rejected(self):
        scheduler = MultiFeedScheduler(make_inner(), cadences())
        with pytest.raises(ValueError):
            scheduler.run_round(BASE, round_seconds=3600.0)

    def test_mixed_feeds_interleave(self):
        scheduler = MultiFeedScheduler(make_inner(), cadences(album=2 * BASE))
        scheduler.enqueue(make_item(1, ContentKind.FRIEND_FEED))
        scheduler.enqueue(make_item(2, ContentKind.ALBUM_RELEASE))
        first = scheduler.run_round(BASE)
        second = scheduler.run_round(2 * BASE)
        assert [d.item.item_id for d in first.deliveries] == [1]
        assert [d.item.item_id for d in second.deliveries] == [2]
