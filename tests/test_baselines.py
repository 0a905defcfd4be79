"""Tests for the FIFO and UTIL baseline schedulers."""

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork

LADDER = build_audio_ladder()
ROUND = 3600.0


def make_scheduler(name, fixed_level=3, theta=1_000_000.0):
    battery = BatteryTrace([BatterySample(0.0, 1.0, True)])
    device = MobileDevice(user_id=1, network=CellularOnlyNetwork(), battery=battery)
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        policy=registry.create(name, fixed_level=fixed_level),
    )


def make_item(item_id, utility=0.5, created_at=0.0):
    return ContentItem(
        item_id=item_id,
        user_id=1,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=utility,
    )


class TestFixedLevel:
    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", fixed_level=0)

    def test_always_delivers_at_fixed_level(self):
        scheduler = make_scheduler("util", fixed_level=3)
        for item_id in range(3):
            scheduler.enqueue(make_item(item_id))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries
        assert all(d.level == 3 for d in result.deliveries)

    def test_fixed_level_clamped_to_ladder(self):
        scheduler = make_scheduler("fifo", fixed_level=99)
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries[0].level == LADDER.max_level


class TestFifoOrdering:
    def test_delivers_oldest_first(self):
        # Budget affords exactly one 10 s presentation per round.
        scheduler = make_scheduler(
            "fifo", fixed_level=3, theta=float(LADDER.size(3))
        )
        scheduler.enqueue(make_item(1, utility=0.1, created_at=10.0))
        scheduler.enqueue(make_item(2, utility=0.9, created_at=5.0))
        result = scheduler.run_round(ROUND, ROUND)
        assert [d.item.item_id for d in result.deliveries] == [2]

    def test_backlog_drains_in_arrival_order(self):
        scheduler = make_scheduler(
            "fifo", fixed_level=3, theta=float(LADDER.size(3))
        )
        for item_id, created in ((1, 30.0), (2, 10.0), (3, 20.0)):
            scheduler.enqueue(make_item(item_id, created_at=created))
        delivered = []
        for round_index in range(1, 4):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            delivered.extend(d.item.item_id for d in result.deliveries)
        assert delivered == [2, 3, 1]


class TestUtilOrdering:
    def test_delivers_highest_utility_first(self):
        scheduler = make_scheduler(
            "util", fixed_level=3, theta=float(LADDER.size(3))
        )
        scheduler.enqueue(make_item(1, utility=0.1))
        scheduler.enqueue(make_item(2, utility=0.9))
        scheduler.enqueue(make_item(3, utility=0.5))
        delivered = []
        for round_index in range(1, 4):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            delivered.extend(d.item.item_id for d in result.deliveries)
        assert delivered == [2, 3, 1]

    def test_skips_unaffordable_items_but_keeps_them_queued(self):
        scheduler = make_scheduler("util", fixed_level=3, theta=100.0)
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries == []
        assert result.queue_length_after == 1

    def test_budget_rollover_eventually_delivers(self):
        need = LADDER.size(3)
        scheduler = make_scheduler("util", fixed_level=3, theta=need / 4)
        scheduler.enqueue(make_item(1))
        delivered = 0
        for round_index in range(1, 6):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            delivered += len(result.deliveries)
        assert delivered == 1
