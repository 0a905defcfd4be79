"""Cross-module property-based tests: scheduler-level invariants.

These drive whole schedulers through randomized arrival/round sequences and
assert the conservation and budget laws that must hold regardless of
policy, workload or connectivity:

* items are conserved: enqueued = delivered + still queued;
* no item is delivered twice;
* the data budget never goes negative and deliveries never exceed the
  cumulative allowance;
* deliveries only happen while connected;
* delivered presentation levels are valid rungs of the item's ladder.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import MarkovNetworkModel

LADDER = build_audio_ladder()
ROUND = 3600.0


def build_scheduler(policy: str, theta: float, network_seed: int):
    network = MarkovNetworkModel(rng=random.Random(network_seed))
    device = MobileDevice(
        user_id=1,
        network=network,
        battery=BatteryTrace([BatterySample(0.0, 0.8, charging=False)]),
    )
    data = DataBudget(theta_bytes=theta)
    energy = EnergyBudget(kappa_joules=3000.0)
    params = {"richnote": {}, "fifo": {"fixed_level": 3}, "util": {"fixed_level": 2}}
    return RoundLoop(
        device, data, energy, policy=registry.create(policy, **params[policy])
    )


@st.composite
def schedules(draw):
    """A random policy, budget and per-round arrival counts."""
    policy = draw(st.sampled_from(["richnote", "fifo", "util"]))
    theta = draw(st.sampled_from([0.0, 500.0, 50_000.0, 2_000_000.0]))
    arrivals = draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=25)
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return policy, theta, arrivals, seed


class TestSchedulerInvariants:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_conservation_budget_and_validity(self, schedule):
        policy, theta, arrivals, seed = schedule
        scheduler = build_scheduler(policy, theta, seed)
        utility_rng = random.Random(seed + 1)

        enqueued = 0
        delivered_ids: list[int] = []
        delivered_bytes = 0.0
        rounds = 0
        for round_index, count in enumerate(arrivals, start=1):
            now = round_index * ROUND
            for offset in range(count):
                item_id = round_index * 1000 + offset
                scheduler.enqueue(
                    ContentItem(
                        item_id=item_id,
                        user_id=1,
                        kind=ContentKind.FRIEND_FEED,
                        created_at=now - utility_rng.uniform(0.0, ROUND),
                        ladder=LADDER,
                        content_utility=utility_rng.random(),
                    )
                )
                enqueued += 1
            result = scheduler.run_round(now, ROUND)
            rounds += 1

            # Deliveries only when connected.
            if not result.connected:
                assert result.deliveries == []
            for delivery in result.deliveries:
                delivered_ids.append(delivery.item.item_id)
                delivered_bytes += delivery.size_bytes
                assert 1 <= delivery.level <= LADDER.max_level
                assert delivery.size_bytes == LADDER.size(delivery.level)
                assert delivery.utility >= 0.0

            # Budget law: never negative; total spend within allowance.
            assert result.data_budget_after >= 0.0
            assert result.energy_budget_after >= 0.0
            assert delivered_bytes <= theta * rounds + 1e-6

        # Conservation: every enqueued item is delivered or still pending.
        assert len(delivered_ids) == len(set(delivered_ids))
        assert len(delivered_ids) + scheduler.pending_items == enqueued

    @given(schedules())
    @settings(max_examples=30, deadline=None)
    def test_backlog_matches_queue_contents(self, schedule):
        policy, theta, arrivals, seed = schedule
        scheduler = build_scheduler(policy, theta, seed)
        for round_index, count in enumerate(arrivals, start=1):
            now = round_index * ROUND
            for offset in range(count):
                scheduler.enqueue(
                    ContentItem(
                        item_id=round_index * 1000 + offset,
                        user_id=1,
                        kind=ContentKind.FRIEND_FEED,
                        created_at=now - 1.0,
                        ladder=LADDER,
                        content_utility=0.5,
                    )
                )
            result = scheduler.run_round(now, ROUND)
            expected = result.queue_length_after * LADDER.total_size()
            assert result.backlog_bytes_after == expected
