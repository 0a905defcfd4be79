"""Multi-channel delivery: the Channel abstraction end to end.

Unit layers first (cost curves, registry, ChannelSet), then the kernel
seam (merge_channel_rows_batched), then the runtime contracts:
``channels=None`` *is* the single-passthrough configuration (the paper's
push-only behaviour), multichannel rounds price energy on wire bytes
while debiting billed bytes per channel, shared cell pools couple users
by service order, and the columnar engine codes each delivery's channel.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.channels import (
    Channel,
    ChannelCostCurve,
    ChannelSet,
    builtin_channel,
    default_channel_set,
)
from repro.core.content import (
    ContentItem,
    ContentKind,
    Presentation,
    PresentationLadder,
)
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.pubsub.capacity import CellTopology, SharedCellCapacity
from repro.runtime import kernels, registry
from repro.runtime.loop import RoundLoop
from repro.runtime.policy import RoundDecision
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork
from tests.test_columnar_segmented import _build, _streams, channel_set, no_channels

LADDER = build_audio_ladder()


def item(item_id, user_id=1, created_at=0.0, utility=0.8):
    return ContentItem(
        item_id=item_id,
        user_id=user_id,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=utility,
    )


def make_loop(
    user_id=1,
    theta=500_000.0,
    kappa=3_000.0,
    channels=None,
    shared_capacity=None,
    policy=None,
):
    return RoundLoop(
        MobileDevice(
            user_id=user_id,
            network=CellularOnlyNetwork(),
            battery=BatteryTrace([BatterySample(0.0, 0.9, charging=True)]),
        ),
        DataBudget(theta_bytes=theta),
        EnergyBudget(kappa_joules=kappa),
        CombinedUtilityModel(),
        policy=policy or registry.create("richnote"),
        channels=channels,
        shared_capacity=shared_capacity,
    )


class TestCostCurve:
    def test_identity_is_the_papers_accounting(self):
        curve = ChannelCostCurve()
        assert curve.is_identity
        assert curve.billed_bytes(12_345) == 12_345

    def test_billed_formula_and_zero_payload(self):
        curve = ChannelCostCurve(per_byte=0.5, overhead_bytes=256)
        assert not curve.is_identity
        assert curve.billed_bytes(600) == 300 + 256
        # Level 0 (not sent) never bills the envelope.
        assert curve.billed_bytes(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelCostCurve(per_byte=-0.1)
        with pytest.raises(ValueError):
            ChannelCostCurve(overhead_bytes=-1)
        with pytest.raises(ValueError):
            ChannelCostCurve().billed_bytes(-1)


class TestChannel:
    def test_push_is_passthrough(self):
        push = builtin_channel("push")
        assert push.is_passthrough
        assert push.ladder_for(item(1)) is LADDER
        assert push.wire_size(item(1), 2) == LADDER.size(2)
        assert push.billed_size(item(1), 2) == LADDER.size(2)

    def test_ladder_override_reprices_and_rerenders(self):
        inapp = builtin_channel("inapp")
        assert not inapp.is_passthrough
        assert inapp.wire_size(item(1), 1) == 600
        assert inapp.billed_size(item(1), 1) == 300 + 256
        assert inapp.max_level(item(1)) == 2

    def test_utility_uses_channel_ladder_and_decay(self):
        inapp = builtin_channel("inapp")
        model = CombinedUtilityModel(aging=ExponentialAging())
        fresh = inapp.utility(model, item(1, utility=0.8), 1, now=0.0)
        assert fresh == pytest.approx(0.8 * 0.25)
        aged = inapp.utility(model, item(1, utility=0.8), 1, now=6 * 3600.0)
        assert 0.0 < aged < fresh

    def test_passthrough_utility_matches_model(self):
        push = builtin_channel("push")
        model = CombinedUtilityModel()
        it = item(1)
        assert push.utility(model, it, 3, now=100.0) == model.utility(
            it, 3, 100.0
        )


class TestBuiltins:
    def test_builtins_built_by_name(self):
        for name in ("push", "inapp", "email", "messenger"):
            assert builtin_channel(name).name == name
        assert builtin_channel("email").cell_coupled is False
        assert builtin_channel("push").cell_coupled is True

    def test_unknown_channel_names_the_builtins(self):
        with pytest.raises(KeyError, match="unknown channel.*messenger"):
            builtin_channel("carrier-pigeon")


class TestChannelSet:
    def test_primary_order_and_lookup(self):
        channels = ChannelSet(
            [builtin_channel("push"), builtin_channel("inapp")]
        )
        assert channels.primary.name == "push"
        assert channels.names == ("push", "inapp")
        assert channels.get("inapp").name == "inapp"
        assert channels.get_or_primary("nope").name == "push"
        assert "inapp" in channels and "email" not in channels
        assert len(channels) == 2

    def test_single_passthrough_detection(self):
        assert default_channel_set().is_single_passthrough
        assert not ChannelSet(
            [builtin_channel("inapp")]
        ).is_single_passthrough
        assert not ChannelSet(
            [builtin_channel("push"), builtin_channel("inapp")]
        ).is_single_passthrough

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ChannelSet([])
        with pytest.raises(ValueError, match="duplicate"):
            ChannelSet([builtin_channel("push"), builtin_channel("push")])
        with pytest.raises(KeyError, match="unknown channel"):
            default_channel_set().get("inapp")


def merge_one(sizes_rows, profits_rows):
    """``merge_channel_rows_batched`` over a one-item stack, as lists."""
    sizes, profits, channels, levels = kernels.merge_channel_rows_batched(
        sizes_rows, [np.asarray([row], dtype=np.float64) for row in profits_rows]
    )
    backmap = list(zip(channels[0].tolist(), levels[0].tolist()))
    return sizes, profits[0].tolist(), backmap


class TestMergeChannelRows:
    def test_merged_row_strictly_increasing_with_backmap(self):
        sizes, profits, backmap = merge_one(
            [[0, 200, 1_000], [0, 556]],
            [[0.0, 0.1, 0.9], [0.0, 0.4]],
        )
        assert sizes == [0, 200, 556, 1_000]
        assert profits == [0.0, 0.1, 0.4, 0.9]
        assert backmap == [(0, 0), (0, 1), (1, 1), (0, 2)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_equal_size_tie_keeps_highest_profit(self):
        sizes, profits, backmap = merge_one(
            [[0, 500], [0, 500]],
            [[0.0, 0.2], [0.0, 0.7]],
        )
        assert sizes == [0, 500]
        assert profits == [0.0, 0.7]
        assert backmap == [(0, 0), (1, 1)]
        # Equal profit too: the lowest channel, then the lowest level.
        _, _, backmap = merge_one(
            [[0, 500], [0, 400, 500]],
            [[0.0, 0.7], [0.0, 0.1, 0.7]],
        )
        assert backmap == [(0, 0), (1, 1), (0, 1)]

    def test_zero_size_choice_is_dropped(self):
        sizes, profits, backmap = merge_one(
            [[0, 0, 300]],
            [[0.0, 0.5, 0.8]],
        )
        assert sizes == [0, 300]
        assert backmap == [(0, 0), (0, 2)]

    @given(
        gains=st.lists(st.integers(1, 10**6), min_size=1, max_size=7),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merging_a_single_channel_is_the_identity(self, gains, data):
        """No billed size is 0, so nothing drops and nothing ties: the
        push channel's rows pass through the merge untouched."""
        sizes = [0, *accumulate(gains)]
        profit = st.floats(-1e6, 1e6, allow_nan=False)
        row = st.lists(profit, min_size=len(gains), max_size=len(gains))
        profits = np.asarray(
            [[0.0, *r] for r in data.draw(st.lists(row, min_size=1, max_size=5))]
        )
        merged_sizes, merged, channels, levels = (
            kernels.merge_channel_rows_batched([sizes], [profits])
        )
        assert merged_sizes == sizes
        assert merged.tolist() == profits.tolist()
        assert not channels.any()
        assert levels.tolist() == [list(range(len(sizes)))] * len(profits)


class TestSinglePushParity:
    """``channels=None`` is the one-passthrough-channel set, not a path."""

    def _run(self, channels):
        loop = make_loop(channels=channels)
        for item_id in range(6):
            loop.enqueue(item(item_id, created_at=item_id * 60.0))
        deliveries = []
        for round_index in range(1, 4):
            result = loop.run_round(
                now=round_index * 900.0, round_seconds=900.0
            )
            deliveries.extend(result.deliveries)
        return loop, deliveries

    def test_default_channel_set_is_bit_identical_to_none(self):
        _, legacy = self._run(channels=None)
        _, single = self._run(channels=default_channel_set())
        assert legacy, "the scenario must actually deliver"
        assert [
            (d.time, d.item.item_id, d.level, d.size_bytes,
             d.energy_joules, d.utility, d.channel)
            for d in legacy
        ] == [
            (d.time, d.item.item_id, d.level, d.size_bytes,
             d.energy_joules, d.utility, d.channel)
            for d in single
        ]
        assert all(d.channel == "push" for d in single)

    def test_single_passthrough_attributes_its_debits_to_push(self):
        for channels in (None, default_channel_set()):
            loop, deliveries = self._run(channels=channels)
            assert deliveries
            # Identity pricing: the drain is the wire bytes delivered.
            assert loop.data_budget.per_channel_bytes == {
                "push": pytest.approx(sum(d.size_bytes for d in deliveries))
            }


class TestMultichannelLoop:
    CHANNELS = ChannelSet([builtin_channel("push"), builtin_channel("inapp")])

    def _run(self, theta=2_000.0, rounds=3, items=5):
        loop = make_loop(theta=theta, channels=self.CHANNELS)
        for item_id in range(items):
            loop.enqueue(item(item_id))
        deliveries = []
        for round_index in range(1, rounds + 1):
            result = loop.run_round(
                now=round_index * 900.0, round_seconds=900.0
            )
            deliveries.extend(result.deliveries)
        return loop, deliveries

    def test_joint_selection_routes_over_both_channels(self):
        loop, deliveries = self._run()
        assert deliveries
        names = {d.channel for d in deliveries}
        assert names <= {"push", "inapp"}
        # The in-app card (0.25 utility for 556 billed bytes) dominates
        # the 200-byte push metadata (0.01 utility) on the merged hull.
        assert "inapp" in names

    def test_wire_vs_billed_accounting(self):
        loop, deliveries = self._run()
        billed = {}
        for d in deliveries:
            channel = self.CHANNELS.get(d.channel)
            assert d.size_bytes == channel.wire_size(d.item, d.level)
            billed[d.channel] = billed.get(d.channel, 0.0) + channel.cost.billed_bytes(d.size_bytes)
        for name, total in billed.items():
            assert loop.data_budget.per_channel_bytes[name] == pytest.approx(
                total
            )

    def test_selection_respects_budget_in_billed_bytes(self):
        # One round, budget below the cheapest inapp card but above the
        # push metadata: only push choices are affordable.
        loop = make_loop(theta=400.0, channels=self.CHANNELS)
        for item_id in range(3):
            loop.enqueue(item(item_id))
        result = loop.run_round(now=900.0, round_seconds=900.0)
        assert all(d.channel == "push" for d in result.deliveries)


    def test_pair_returning_policy_rides_the_primary_channel(self):
        """The one place a selection gains its channel: ``(item, level)``
        pairs from a custom policy are completed with the primary."""

        class MetadataOnly:
            def select(self, ctx):
                return RoundDecision([(queued, 1) for queued in ctx.items])

        inapp = builtin_channel("inapp")
        loop = make_loop(
            channels=ChannelSet([inapp, builtin_channel("push")]), policy=MetadataOnly()
        )
        for item_id in range(3):
            loop.enqueue(item(item_id))
        result = loop.run_round(now=900.0, round_seconds=900.0)
        assert [(d.channel, d.size_bytes) for d in result.deliveries] == [
            ("inapp", inapp.ladder.size(1))
        ] * 3
        assert loop.data_budget.per_channel_bytes == {
            "inapp": 3 * inapp.cost.billed_bytes(inapp.ladder.size(1))
        }


class TestSharedCapacityCoupling:
    def test_first_user_drains_pool_for_the_second(self):
        topology = CellTopology(cell_of={1: 0, 2: 0})
        pool = SharedCellCapacity(topology, bytes_per_round=250_000.0)
        loops = {
            user_id: make_loop(user_id=user_id, shared_capacity=pool)
            for user_id in (1, 2)
        }
        for user_id, loop in loops.items():
            for item_id in range(4):
                loop.enqueue(item(item_id, user_id=user_id))
        pool.begin_round()
        first = loops[1].run_round(now=900.0, round_seconds=900.0)
        second = loops[2].run_round(now=900.0, round_seconds=900.0)
        first_bytes = sum(d.size_bytes for d in first.deliveries)
        second_bytes = sum(d.size_bytes for d in second.deliveries)
        assert first_bytes > 0
        # User 1 ran first and drained the tower; user 2's grant clamps.
        assert second_bytes < first_bytes
        stats = pool.stats[0]
        assert stats.consumed_bytes <= stats.granted_bytes
        assert stats.granted_bytes <= stats.requested_bytes
        assert stats.contended_grants >= 1
        assert stats.denied_bytes > 0

    def test_begin_round_refills(self):
        topology = CellTopology(cell_of={1: 0})
        pool = SharedCellCapacity(topology, bytes_per_round=1_000.0)
        assert pool.grant(1, 800.0) == 800.0
        pool.consume(1, 800.0)
        assert pool.remaining(0) == pytest.approx(200.0)
        pool.begin_round()
        assert pool.remaining(0) == pytest.approx(1_000.0)

    def test_uncoupled_cells_do_not_interact(self):
        topology = CellTopology(cell_of={1: 0, 2: 1})
        pool = SharedCellCapacity(topology, bytes_per_round=1_000.0)
        pool.consume(1, 1_000.0)
        assert pool.grant(2, 600.0) == 600.0


class TestColumnarChannelCodes:
    def _engine(self, make_channels):
        return _build(_streams(), "richnote", {}, {}, make_channels)[-1]

    def test_legacy_path_emits_all_push_codes(self):
        result = self._engine(no_channels).run()
        assert result.channel_names == ("push",)
        assert result.channel_codes is not None
        for codes, deliveries in zip(
            result.channel_codes, result.deliveries
        ):
            assert len(codes) == len(deliveries)
            assert all(code == 0 for code in codes)

    def test_multichannel_codes_index_the_channel_names(self):
        result = self._engine(channel_set("push", "inapp")).run()
        assert result.channel_names == ("push", "inapp")
        flat = [
            code for codes in result.channel_codes for code in codes
        ]
        assert flat, "the cohort must deliver something"
        assert set(flat) <= {0, 1}
        assert 1 in flat, "joint selection should route onto in-app"
