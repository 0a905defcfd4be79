"""Tests for the round-based schedulers (Algorithm 2)."""

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.lyapunov import LyapunovConfig
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork

LADDER = build_audio_ladder()
ROUND = 3600.0


def make_device(user_id=1):
    battery = BatteryTrace(
        [BatterySample(time=0.0, level=1.0, charging=True)]
    )
    return MobileDevice(user_id=user_id, network=CellularOnlyNetwork(), battery=battery)


def make_item(item_id, utility=0.5, user_id=1, created_at=0.0, clicked=False):
    return ContentItem(
        item_id=item_id,
        user_id=user_id,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=utility,
        clicked=clicked,
    )


def make_richnote(user_id=1, theta=1_000_000.0, kappa=3000.0, v=1000.0):
    return RoundLoop(
        device=make_device(user_id),
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=kappa),
        policy=registry.create(
            "richnote", lyapunov=LyapunovConfig(v=v, kappa_joules=kappa)
        ),
    )


class TestQueueMechanics:
    def test_enqueue_routes_by_user(self):
        scheduler = make_richnote(user_id=1)
        with pytest.raises(ValueError):
            scheduler.enqueue(make_item(1, user_id=2))

    def test_incoming_moves_to_scheduling_on_round(self):
        scheduler = make_richnote(theta=0.0)  # no budget: nothing delivered
        scheduler.enqueue(make_item(1))
        assert scheduler.pending_items == 1
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries == []
        assert result.queue_length_after == 1

    def test_backlog_counts_all_presentations(self):
        scheduler = make_richnote(theta=0.0)
        scheduler.enqueue(make_item(1))
        scheduler.run_round(ROUND, ROUND)
        assert scheduler.backlog_bytes() == LADDER.total_size()

    def test_delivered_items_leave_queue(self):
        scheduler = make_richnote(theta=10_000_000.0)
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        assert len(result.deliveries) == 1
        assert result.queue_length_after == 0
        assert scheduler.backlog_bytes() == 0.0


class TestRichNoteSelection:
    def test_ample_budget_delivers_richest_level(self):
        scheduler = make_richnote(theta=10_000_000.0)
        scheduler.enqueue(make_item(1, utility=0.9))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries[0].level == LADDER.max_level

    def test_tight_budget_degrades_to_metadata(self):
        # Budget affords metadata but not any preview.
        scheduler = make_richnote(theta=1000.0)
        scheduler.enqueue(make_item(1, utility=0.9))
        result = scheduler.run_round(ROUND, ROUND)
        assert len(result.deliveries) == 1
        assert result.deliveries[0].level == 1

    def test_adapts_levels_across_items(self):
        # Budget for all three at metadata plus one 5 s upgrade.
        scheduler = make_richnote(theta=101_000.0)
        scheduler.enqueue(make_item(1, utility=0.9))
        scheduler.enqueue(make_item(2, utility=0.2))
        scheduler.enqueue(make_item(3, utility=0.1))
        result = scheduler.run_round(ROUND, ROUND)
        levels = {d.item.item_id: d.level for d in result.deliveries}
        assert len(levels) == 3
        # The highest-utility item gets the preview.
        assert levels[1] == 2
        assert levels[2] == 1
        assert levels[3] == 1

    def test_budget_rolls_over_when_disconnected(self):
        class OffNetwork(CellularOnlyNetwork):
            @property
            def connected(self):
                return False

            @property
            def bandwidth(self):
                return 0.0

        battery = BatteryTrace([BatterySample(0.0, 1.0, True)])
        device = MobileDevice(user_id=1, network=OffNetwork(), battery=battery)
        scheduler = RoundLoop(
            device=device,
            data_budget=DataBudget(theta_bytes=1000.0),
            energy_budget=EnergyBudget(kappa_joules=3000.0),
            policy=registry.create("richnote"),
        )
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        assert not result.connected
        assert result.deliveries == []
        assert result.data_budget_after == 1000.0
        result = scheduler.run_round(2 * ROUND, ROUND)
        assert result.data_budget_after == 2000.0

    def test_data_budget_debited_on_delivery(self):
        scheduler = make_richnote(theta=1000.0)
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        spent = sum(d.size_bytes for d in result.deliveries)
        assert result.data_budget_after == pytest.approx(1000.0 - spent)

    def test_energy_budget_debited_on_delivery(self):
        scheduler = make_richnote(theta=10_000_000.0)
        scheduler.enqueue(make_item(1))
        result = scheduler.run_round(ROUND, ROUND)
        assert result.deliveries[0].energy_joules > 0
        assert result.energy_budget_after < 3000.0 + 3000.0  # kappa + e(t)

    def test_kappa_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            RoundLoop(
                device=make_device(),
                data_budget=DataBudget(theta_bytes=0.0),
                energy_budget=EnergyBudget(kappa_joules=3000.0),
                policy=registry.create(
                    "richnote", lyapunov=LyapunovConfig(kappa_joules=999.0)
                ),
            )

    def test_delivery_queue_ordered_by_utility(self):
        scheduler = make_richnote(theta=10_000_000.0)
        scheduler.enqueue(make_item(1, utility=0.2))
        scheduler.enqueue(make_item(2, utility=0.9))
        result = scheduler.run_round(ROUND, ROUND)
        utilities = [d.utility for d in result.deliveries]
        assert utilities == sorted(utilities, reverse=True)

    def test_round_index_increments(self):
        scheduler = make_richnote()
        first = scheduler.run_round(ROUND, ROUND)
        second = scheduler.run_round(2 * ROUND, ROUND)
        assert (first.round_index, second.round_index) == (1, 2)


class TestQueueStability:
    def test_bounded_queue_under_sustained_arrivals(self):
        """Arrivals each round; metadata-affordable budget keeps Q bounded."""
        scheduler = make_richnote(theta=50_000.0)
        queue_lengths = []
        for round_index in range(1, 60):
            now = round_index * ROUND
            for offset in range(5):
                scheduler.enqueue(
                    make_item(round_index * 100 + offset, created_at=now - 1)
                )
            result = scheduler.run_round(now, ROUND)
            queue_lengths.append(result.queue_length_after)
        # 5 items/round at 200 B metadata each is far below 50 kB/round.
        assert max(queue_lengths[10:]) <= max(queue_lengths[:10]) + 5
        assert queue_lengths[-1] < 20
