"""Tests for notification TTL expiry."""

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork, NetworkState, TraceConnectivity

LADDER = build_audio_ladder()
ROUND = 3600.0


def make_scheduler(policy="richnote", ttl=None, theta=1_000_000.0, network=None,
                   **policy_params):
    device = MobileDevice(
        user_id=1,
        network=network or CellularOnlyNetwork(),
        battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
    )
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        ttl_seconds=ttl,
        policy=registry.create(policy, **policy_params),
    )


def make_item(item_id, created_at=0.0):
    return ContentItem(
        item_id=item_id,
        user_id=1,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=0.5,
    )


class TestTtl:
    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            make_scheduler(ttl=0.0)

    def test_fresh_items_unaffected(self):
        scheduler = make_scheduler(ttl=2 * ROUND)
        scheduler.enqueue(make_item(1, created_at=ROUND - 10))
        result = scheduler.run_round(ROUND, ROUND)
        assert len(result.deliveries) == 1
        assert result.dropped == []

    def test_stale_items_evicted_with_reason(self):
        offline = TraceConnectivity(
            [NetworkState.OFF] * 4 + [NetworkState.CELL]
        )
        scheduler = make_scheduler(ttl=2 * ROUND, network=offline)
        scheduler.enqueue(make_item(1, created_at=0.0))
        dropped = []
        delivered = []
        for round_index in range(1, 6):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            dropped.extend(result.dropped)
            delivered.extend(result.deliveries)
        assert delivered == []
        assert len(dropped) == 1
        assert dropped[0].reason == "ttl_expired"
        assert dropped[0].item.item_id == 1
        assert dropped[0].attempts == 0
        assert scheduler.pending_items == 0

    def test_conservation_with_ttl(self):
        """enqueued = delivered + dropped + pending."""
        offline_then_on = TraceConnectivity(
            [NetworkState.OFF, NetworkState.OFF, NetworkState.CELL,
             NetworkState.CELL]
        )
        scheduler = make_scheduler(ttl=1.5 * ROUND, network=offline_then_on)
        delivered = 0
        dropped = 0
        for round_index in range(1, 5):
            now = round_index * ROUND
            scheduler.enqueue(make_item(round_index, created_at=now - 10))
            result = scheduler.run_round(now, ROUND)
            delivered += len(result.deliveries)
            dropped += len(result.dropped)
        assert delivered + dropped + scheduler.pending_items == 4
        assert dropped >= 1  # the round-1 item expired during the outage

    def test_baselines_support_ttl(self):
        scheduler = make_scheduler(policy="fifo", ttl=ROUND / 2, theta=0.0,
                                   fixed_level=3)
        scheduler.enqueue(make_item(1, created_at=0.0))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.dropped and result.dropped[0].reason == "ttl_expired"

    def test_boundary_age_exactly_ttl_is_kept(self):
        scheduler = make_scheduler(ttl=ROUND, theta=0.0)
        scheduler.enqueue(make_item(1, created_at=0.0))
        result = scheduler.run_round(ROUND, ROUND)  # age == ttl
        assert result.dropped == []
        assert result.queue_length_after == 1
