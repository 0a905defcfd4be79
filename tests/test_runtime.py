"""Tests for the layered runtime: kernels, registry, policies, round loop.

The parity classes pin the refactor's contract: a :class:`RoundLoop` with a
registry-resolved policy must reproduce the pre-refactor schedulers *bit
for bit* -- the golden aggregates and delivery-sequence digests below were
captured from the monolithic ``core.scheduler`` implementation before the
runtime split, on the seeded small workload.
"""

from __future__ import annotations

import hashlib
import random
from itertools import repeat

import numpy as np
import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.channels import ChannelSet, builtin_channel
from repro.core.content import ContentItem, ContentKind
from repro.core.lyapunov import LyapunovConfig, LyapunovController, LyapunovState
from repro.core.mckp import MckpInstance, MckpItem, select_presentations
from repro.core.media import build_image_ladder
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.runtime import kernels, registry
from repro.runtime.loop import RoundLoop
from repro.runtime.policy import (
    FixedLevelPolicy,
    RichNotePolicy,
    RoundContext,
    RoundDecision,
    SchedulerPolicy,
)
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork

LADDER = build_audio_ladder()
ROUND = 3600.0


def make_device(user_id=1):
    battery = BatteryTrace([BatterySample(time=0.0, level=1.0, charging=True)])
    return MobileDevice(
        user_id=user_id, network=CellularOnlyNetwork(), battery=battery
    )


def make_item(item_id, utility=0.5, user_id=1, created_at=0.0):
    return ContentItem(
        item_id=item_id,
        user_id=user_id,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=utility,
    )


def make_loop(policy_name="richnote", theta=10_000_000.0, kappa=3000.0, **params):
    return RoundLoop(
        device=make_device(),
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=kappa),
        utility_model=CombinedUtilityModel(),
        policy=registry.create(policy_name, **params),
    )


class TestKernels:
    def test_gradient_is_profit_per_byte(self):
        assert kernels.gradient([0, 100, 300], [0.0, 2.0, 5.0], 0) == 0.02
        assert kernels.gradient([0, 100, 300], [0.0, 2.0, 5.0], 1) == 0.015

    def test_combined_utility_matrix_outer_product(self):
        matrix = kernels.combined_utility_matrix([0.5, 1.0], [0.0, 2.0, 3.0])
        assert matrix.tolist() == [[0.0, 1.0, 1.5], [0.0, 2.0, 3.0]]

    def test_combined_utility_matrix_per_item_rows(self):
        rows = [[0.0, 1.0], [0.0, 4.0]]
        matrix = kernels.combined_utility_matrix([2.0, 0.5], rows)
        assert matrix.tolist() == [[0.0, 2.0], [0.0, 2.0]]

    def test_exp_decay_column_bit_identical_to_aging_policy(self):
        aging = ExponentialAging(tau_seconds=7200.0)
        contents = [0.3, 0.9, 0.123456789]
        ages = [0.0, 1800.0, 86_400.0]
        column = kernels.exp_decay_column(contents, ages, 7200.0)
        for got, content, age in zip(column.tolist(), contents, ages):
            assert got == aging.decay(content, age)

    def test_lyapunov_matrix_bit_identical_to_scalar_controller(self):
        config = LyapunovConfig(v=1000.0, kappa_joules=3000.0)
        controller = LyapunovController(config)
        states = [
            LyapunovState(q_bytes=1_234_567.0, p_joules=2_500.0),
            LyapunovState(q_bytes=98_765.0, p_joules=3_700.5),
        ]
        utilities = [[0.0, 0.2, 0.5, 0.9], [0.0, 0.05, 0.1, 0.4]]
        energies = [0.0, 1.5, 4.0, 9.5]
        backlog = 321_000.0

        def rows(q_bytes, p_joules):
            return kernels.lyapunov_adjusted_rows(
                np.asarray(utilities),
                energies,
                backlog,
                q_bytes,
                p_joules,
                kappa_joules=config.kappa_joules,
                v=config.v,
                size_scale=config.size_scale,
                energy_scale=config.energy_scale,
            ).tolist()

        # One user's queue: scalar Q(t) / P(t) shared by every row.
        for row, utility_row in zip(
            rows(states[0].q_bytes, states[0].p_joules), utilities
        ):
            assert row == controller.adjusted_profile(
                states[0], backlog, energies, utility_row
            )
        # A cohort: each row carries its own user's Q(t) / P(t).
        for row, state, utility_row in zip(
            rows(
                [state.q_bytes for state in states],
                [state.p_joules for state in states],
            ),
            states,
            utilities,
        ):
            assert row == controller.adjusted_profile(
                state, backlog, energies, utility_row
            )

    def test_greedy_select_matches_object_mckp(self):
        sizes = tuple(LADDER.size(level) for level in range(LADDER.max_level + 1))
        profits_rows = [
            tuple(0.9 * LADDER.utility(level) for level in range(len(sizes))),
            tuple(0.2 * LADDER.utility(level) for level in range(len(sizes))),
            tuple(0.1 * LADDER.utility(level) for level in range(len(sizes))),
        ]
        budget = 101_000
        legacy = select_presentations(
            MckpInstance(
                items=tuple(
                    MckpItem(key=key, sizes=sizes, profits=profits)
                    for key, profits in enumerate(profits_rows)
                ),
                budget=budget,
            )
        )
        levels, total_size, total_profit = kernels.greedy_select_heap(
            [0, 1, 2], [sizes] * 3, profits_rows, budget
        )
        assert levels == [legacy.levels[key] for key in (0, 1, 2)]
        assert total_size == legacy.total_size
        assert total_profit == legacy.total_profit

    def test_greedy_select_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="unique"):
            kernels.greedy_select_heap(
                [7, 7], [[0, 10]] * 2, [[0.0, 1.0]] * 2, budget=100
            )

    def test_unaffordable_upgrade_freezes_only_that_item(self):
        # Item 0's first upgrade costs 90, item 1's costs 10: with budget
        # 20 the big item freezes but the cheap one still upgrades.
        levels, total_size, _ = kernels.greedy_select_heap(
            [0, 1],
            [[0, 90], [0, 10, 20]],
            [[0.0, 9.0], [0.0, 0.5, 0.8]],
            budget=20,
        )
        assert levels == [0, 2]
        assert total_size == 20

    def test_hull_levels_drops_dominated_and_lp_dominated(self):
        sizes = [0, 10, 20, 30]
        # Level 2's profit dips below level 1 (dominated); level 1 then
        # sits under the chord 0 -> 3 (LP-dominated after the dip? no --
        # its gradient is the steepest), so survivors are 0, 1, 3.
        profits = [0.0, 5.0, 4.0, 6.0]
        assert kernels.hull_levels(sizes, profits) == [0, 1, 3]

    def test_greedy_select_hull_maps_levels_back(self):
        sizes = [0, 10, 20, 30]
        profits = [0.0, 1.0, 1.1, 6.0]  # level 3 only reachable via hull
        levels, _, _ = kernels.greedy_select_hull(
            [0], [sizes], [profits], budget=30
        )
        assert levels == [3]

    def test_hull_then_heap_maps_levels_back(self):
        # RichNotePolicy.select's fused path: hull_levels_batched reduces
        # the row, greedy_select_heap picks a hull position, and the
        # position maps back to the ladder level.
        sizes = [0, 10, 20, 30]
        profits = [0.0, 1.0, 1.1, 6.0]  # level 3 only reachable via hull
        hull, lengths = kernels.hull_levels_batched(sizes, np.array([profits]))
        kept = hull[0, : lengths[0]].tolist()
        assert kept == [0, 3]
        picked, _, _ = kernels.greedy_select_heap(
            [0], [[sizes[j] for j in kept]], [[profits[j] for j in kept]], budget=30
        )
        assert [kept[level] for level in picked] == [3]


class TestRegistry:
    def test_builtins_registered(self):
        assert registry.available() == ["fifo", "richnote", "util"]

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            registry.create("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @registry.register("richnote")
            class Shadow:
                pass

    def test_register_create_unregister_roundtrip(self):
        @registry.register("everything-at-2")
        class EverythingAtTwo(FixedLevelPolicy):
            def __init__(self):
                super().__init__(fixed_level=2)

            def order_items(self, items, now, utility_model):
                return list(items)

        try:
            policy = registry.create("everything-at-2")
            assert isinstance(policy, EverythingAtTwo)
            assert isinstance(policy, SchedulerPolicy)
        finally:
            registry.unregister("everything-at-2")
        with pytest.raises(ValueError):
            registry.get("everything-at-2")


class TestRoundLoopComposition:
    def test_constructing_without_a_policy_raises_type_error(self):
        with pytest.raises(TypeError, match="policy"):
            RoundLoop(
                device=make_device(),
                data_budget=DataBudget(theta_bytes=1_000_000.0),
                energy_budget=EnergyBudget(kappa_joules=3000.0),
                utility_model=CombinedUtilityModel(),
            )

    def test_phase_order_is_ingest_replenish_select_deliver(self):
        assert RoundLoop.phase_names == (
            "ingest",
            "replenish",
            "select",
            "deliver",
        )

    def test_custom_policy_object_drives_the_loop(self):
        class MetadataOnly:
            """Deliver everything, always at level 1."""

            def select(self, ctx: RoundContext) -> RoundDecision:
                return RoundDecision(
                    selections=[(item, 1) for item in ctx.items]
                )

        loop = RoundLoop(
            device=make_device(),
            data_budget=DataBudget(theta_bytes=10_000_000.0),
            energy_budget=EnergyBudget(kappa_joules=3000.0),
            utility_model=CombinedUtilityModel(),
            policy=MetadataOnly(),
        )
        loop.enqueue(make_item(1, utility=0.9))
        loop.enqueue(make_item(2, utility=0.1))
        result = loop.run_round(ROUND, ROUND)
        assert sorted(d.level for d in result.deliveries) == [1, 1]

    def test_richnote_policy_kappa_must_match_energy_budget(self):
        with pytest.raises(ValueError, match="kappa must match"):
            make_loop(
                "richnote",
                kappa=3000.0,
                lyapunov=LyapunovConfig(kappa_joules=1000.0),
            )

    def test_context_snapshot_carries_queue_and_budgets(self):
        loop = make_loop("fifo", fixed_level=1)
        loop.enqueue(make_item(1))
        loop.run_round(ROUND, ROUND)  # drains the item
        loop.enqueue(make_item(2, created_at=ROUND))
        context = loop.make_context(now=2 * ROUND, effective_budget=500)
        assert context.effective_budget == 500
        assert [item.item_id for item in context.items] == []  # still incoming

    def test_fifo_and_util_policies_order_differently(self):
        fifo = make_loop("fifo", fixed_level=1, theta=30_000.0)
        util = make_loop("util", fixed_level=1, theta=30_000.0)
        # Budget affords one metadata message only (metadata ~ LADDER.size(1)).
        for loop in (fifo, util):
            loop.enqueue(make_item(1, utility=0.1, created_at=0.0))
            loop.enqueue(make_item(2, utility=0.9, created_at=100.0))
        fifo_budget_one = DataBudget(theta_bytes=float(LADDER.size(1)))
        fifo.data_budget = fifo_budget_one
        util.data_budget = DataBudget(theta_bytes=float(LADDER.size(1)))
        fifo_result = fifo.run_round(ROUND, ROUND)
        util_result = util.run_round(ROUND, ROUND)
        assert [d.item.item_id for d in fifo_result.deliveries] == [1]
        assert [d.item.item_id for d in util_result.deliveries] == [2]


class TestScalarArrayParity:
    """Eq. 1's outer product (stock model) and the cell-by-cell fill (any
    other model) feed one select body and agree exactly."""

    def _decision(self, channels, use_subclass_model: bool) -> RoundDecision:
        model_type = CombinedUtilityModel
        if use_subclass_model:

            class SubclassModel(CombinedUtilityModel):
                """Defeats the exact-type outer-product guard; same numbers."""

            model_type = SubclassModel
        loop = RoundLoop(
            device=make_device(),
            # No allowance: the warm-up round ingests and delivers nothing.
            data_budget=DataBudget(theta_bytes=0.0),
            energy_budget=EnergyBudget(kappa_joules=3000.0),
            utility_model=model_type(aging=ExponentialAging(tau_seconds=7200.0)),
            policy=registry.create("richnote"),
            channels=channels,
        )
        image_ladder = build_image_ladder()
        for item_id, utility in enumerate([0.9, 0.4, 0.7, 0.05, 0.6], start=1):
            item = make_item(item_id, utility=utility, created_at=item_id * 300.0)
            if item_id % 2 == 0:  # a second ladder group
                item.ladder = image_ladder
            loop.enqueue(item)
        loop.run_round(ROUND, ROUND)
        context = loop.make_context(now=2 * ROUND, effective_budget=150_000)
        assert len(context.items) == 5
        return loop.policy.select(context)

    @pytest.mark.parametrize(
        "names", [("push",), ("push", "inapp", "email")], ids="-".join
    )
    def test_stock_and_subclass_models_pick_identical_triples(self, names):
        channels = ChannelSet([builtin_channel(name) for name in names])
        fast = self._decision(channels, use_subclass_model=False)
        slow = self._decision(channels, use_subclass_model=True)
        assert fast.selections and fast.total_size > 0
        assert {channel.name for _, _, channel in fast.selections} <= set(names)
        assert [
            (item.item_id, level, channel.name)
            for item, level, channel in fast.selections
        ] == [
            (item.item_id, level, channel.name)
            for item, level, channel in slow.selections
        ]
        assert fast.total_size == slow.total_size
        assert fast.total_profit == slow.total_profit


class TestPerObjectParity:
    """``RichNotePolicy.select`` against Eq. 7's scalar reference: one
    ``adjusted_profile`` loop and one ``MckpItem`` per queue item, then
    the object-based Algorithm 1 -- the only caller ``adjusted_profile``
    has left, so this is what keeps the kernels honest."""

    NOW = 3600.0

    def _context(self, n_items: int) -> RoundContext:
        rng = random.Random(7)
        items = [
            make_item(
                item_id,
                utility=rng.random(),
                created_at=rng.uniform(0.0, self.NOW),
            )
            for item_id in range(n_items)
        ]
        return RoundContext(
            now=self.NOW,
            effective_budget=2_000_000,
            items=items,
            backlog_bytes=float(sum(item.ladder.total_size() for item in items)),
            energy_available_joules=2_500.0,
            utility_model=CombinedUtilityModel(aging=ExponentialAging(7200.0)),
            estimate_energy=lambda size_bytes: 0.35 + size_bytes * 2.5e-6,
        )

    @staticmethod
    def per_object_select(ctx: RoundContext) -> list[tuple[int, int]]:
        controller = LyapunovController()
        state = LyapunovState(
            q_bytes=ctx.backlog_bytes, p_joules=ctx.energy_available_joules
        )
        mckp_items = []
        for item in ctx.items:
            ladder = item.ladder
            levels = range(ladder.max_level + 1)
            profits = controller.adjusted_profile(
                state,
                float(ladder.total_size()),
                [0.0] + [ctx.estimate_energy(ladder.size(lv)) for lv in levels[1:]],
                ctx.utility_model.utilities_for_ladder(item, ctx.now),
            )
            mckp_items.append(
                MckpItem(
                    key=item.item_id,
                    sizes=tuple(ladder.size(lv) for lv in levels),
                    profits=tuple(profits),
                )
            )
        solution = select_presentations(
            MckpInstance(items=tuple(mckp_items), budget=ctx.effective_budget)
        )
        return [(key, lv) for key, lv in solution.levels.items() if lv > 0]

    def test_kernel_selections_bit_identical_to_per_object_reference(self):
        ctx = self._context(200)
        decision = RichNotePolicy().select(ctx)
        assert decision.selections
        assert all(channel.name == "push" for _, _, channel in decision.selections)
        assert [
            (item.item_id, level) for item, level, _ in decision.selections
        ] == self.per_object_select(ctx)


# -- golden parity against the pre-refactor monolith ---------------------------
#
# Regenerated after `_build_device` switched from `hash((seed, user_id))`
# to the explicit integer mix (`_device_stream_seed`).  The values came
# out unchanged: on the CELL_ONLY golden workload the energy budget is
# never binding (0.67 kJ spent vs a 3 kJ/round kappa), so the reseeded
# battery traces cannot alter selections.  MARKOV-mode outcomes *do*
# change under the new seeding (the network chain consumes the stream
# directly); no goldens pin those.

GOLDEN_AGGREGATES = {
    "RichNote": {
        "avg_utility": 0.0200710407,
        "clicked_utility": 3.4420892998,
        "delay_s": 1713.6964052299,
        "delivered_mb": 5.6848,
        "delivery_ratio": 1.0,
        "energy_kj": 0.6707890625,
        "precision": 0.1718837838,
        "recall": 0.7172780797,
        "total_utility": 8.3208507344,
    },
    "FIFO-L2": {
        "avg_utility": 0.0184595638,
        "clicked_utility": 0.241073045,
        "delay_s": 66083.1376988806,
        "delivered_mb": 5.6112,
        "delivery_ratio": 0.1351681764,
        "energy_kj": 0.3329921875,
        "precision": 0.0,
        "recall": 0.0,
        "total_utility": 1.0337355726,
    },
    "UTIL-L3": {
        "avg_utility": 0.2685807561,
        "clicked_utility": 3.3478911001,
        "delay_s": 5638.0714884005,
        "delivered_mb": 5.6056,
        "delivery_ratio": 0.0675840882,
        "energy_kj": 0.2348554687,
        "precision": 0.25,
        "recall": 0.0665987319,
        "total_utility": 7.52026117,
    },
}

GOLDEN_DELIVERY_DIGESTS = {
    "RichNote": (
        424,
        "4254e54c2f6ea57ebe672ca12ca0a94b058473bf6a5660ebdc8e026a8c6776b4",
    ),
    "FIFO-L2": (
        56,
        "c311816d407f3c62ae02165efd2855118fd0e77b2bf665f80c0acc524206b601",
    ),
    "UTIL-L3": (
        28,
        "80275c33b8aeb17aa4d56f06409ba03b5cd8560b0d539d06b38f56247af14303",
    ),
}


@pytest.fixture(scope="module")
def golden_world():
    from repro.experiments.config import ExperimentConfig, Method, MethodSpec
    from repro.experiments.runner import UtilityAnnotations
    from repro.experiments.workloads import workload_spec
    from repro.trace.generator import build_workload

    workload = build_workload(workload_spec("small", seed=11))
    config = ExperimentConfig(weekly_budget_mb=5.0, seed=11)
    annotations = UtilityAnnotations.train(workload, seed=11)
    users = workload.top_users(4)
    specs = [
        MethodSpec(Method.RICHNOTE),
        MethodSpec(Method.FIFO, 2),
        MethodSpec(Method.UTIL, 3),
    ]
    return workload, config, annotations, users, specs


class TestGoldenParity:
    """Seeded runs through the registry match the pre-refactor monolith."""

    def test_aggregates_match_pre_refactor_capture(self, golden_world):
        from repro.experiments.runner import run_experiment

        workload, config, annotations, users, specs = golden_world
        for spec in specs:
            result = run_experiment(workload, spec, config, annotations, users)
            row = {k: round(v, 10) for k, v in result.aggregate.row().items()}
            assert row == GOLDEN_AGGREGATES[spec.label], spec.label

    def test_delivery_sequences_match_pre_refactor_digest(
        self, golden_world, monkeypatch
    ):
        from repro.experiments import runner

        workload, config, annotations, users, specs = golden_world
        by_user = {user_id: [] for user_id in users}
        for record in workload.records:
            if record.recipient_id in by_user:
                by_user[record.recipient_id].append(record)
        duration = workload.config.duration_hours * 3600.0

        captured = []
        original = runner.compute_user_metrics

        def spy(user_id, records, deliveries):
            captured.extend(deliveries)
            return original(user_id, records, deliveries)

        monkeypatch.setattr(runner, "compute_user_metrics", spy)

        for spec in specs:
            captured.clear()
            for user_id in users:
                if by_user[user_id]:
                    runner.run_user(
                        user_id, by_user[user_id], spec, config, annotations,
                        duration,
                    )
            digest = hashlib.sha256()
            for d in captured:
                digest.update(
                    repr(
                        (
                            d.time,
                            d.user_id,
                            d.item.item_id,
                            d.level,
                            d.size_bytes,
                            d.energy_joules,
                            d.utility,
                        )
                    ).encode()
                )
            assert (len(captured), digest.hexdigest()) == (
                GOLDEN_DELIVERY_DIGESTS[spec.label]
            ), spec.label

    def test_columnar_engine_reproduces_golden_digests(
        self, golden_world, monkeypatch
    ):
        """The struct-of-arrays engine hits the same pinned digests.

        This is the ISSUE 8 tentpole contract: the columnar cohort path
        is a drop-in for the per-user object loop on the golden seeded
        workloads -- not approximately, but digest-for-digest.
        """
        from repro.experiments import columnar

        workload, config, annotations, users, specs = golden_world
        by_user = {user_id: [] for user_id in users}
        for record in workload.records:
            if record.recipient_id in by_user:
                by_user[record.recipient_id].append(record)
        pairs = [(u, by_user[u]) for u in users if by_user[u]]
        duration = workload.config.duration_hours * 3600.0

        captured = []
        original = columnar.delivery_digests

        def spy(offsets, user_ids, times, item_ids, levels, sizes, energies,
                utilities):
            # The one digest kernel the fold calls: cohort columns cut
            # into one segment per user.  tolist() turns numpy scalars
            # into the Python ones whose repr the golden hashes.
            for segment, user_id in enumerate(user_ids):
                mine = slice(offsets[segment], offsets[segment + 1])
                captured.extend(
                    zip(
                        times[mine].tolist(), repeat(user_id),
                        item_ids[mine].tolist(), levels[mine].tolist(),
                        sizes[mine].tolist(), energies[mine].tolist(),
                        utilities[mine].tolist(),
                    )
                )
            return original(
                offsets, user_ids, times, item_ids, levels, sizes, energies,
                utilities,
            )

        monkeypatch.setattr(columnar, "delivery_digests", spy)

        for spec in specs:
            captured.clear()
            columnar.run_users_columnar(
                pairs, spec, config, annotations, duration,
                digest_deliveries=True,
            )
            # Rows are (time, user, item, level, size, energy, utility):
            # the same seven fields the scalar test hashes off Delivery.
            digest = hashlib.sha256()
            for row in captured:
                digest.update(repr(row).encode())
            assert (len(captured), digest.hexdigest()) == (
                GOLDEN_DELIVERY_DIGESTS[spec.label]
            ), spec.label
