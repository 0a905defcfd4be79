"""The segmented Algorithm 1 and the column-only round it serves.

Two oracles, both per user and both heap-based: the kernel property
replays every segment through :func:`kernels.greedy_select_heap`; the
engine matrix replays every configuration -- multichannel included --
through ``run_user``, the scalar ``RoundLoop`` that runs the real policy
objects (and so the heap) once per user per round.  Nothing here
re-derives expected selections by hand.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.channels import (
    Channel,
    ChannelCostCurve,
    ChannelSet,
    builtin_channel,
)
from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import (
    build_cohort,
    fold_outcomes,
    make_engine,
    make_pass_engine,
    run_users_columnar,
    sweep_cohort,
)
from repro.experiments.config import (
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.runner import UtilityAnnotations, run_user
from repro.runtime import kernels
from repro.runtime.loop import RoundLoop
from repro.trace.generator import TraceConfig, iter_users

# -- the kernel against the heap ------------------------------------------------

#: A coarse grid, so equal gradients across items and within an item are
#: the rule, not the exception; negative steps make rows non-monotone.
PROFIT_STEPS = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 1.0, 2.0, 4.0])
SIZE_STEPS = st.sampled_from([1, 2, 2, 4, 8])
BUDGETS = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 40, 10**6])


@st.composite
def segmented_instances(draw):
    """Ragged segments of ragged rows, shared or per-row size ladders."""
    width = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 5), max_size=5))
    n_rows = sum(counts)
    shared = draw(st.booleans())

    def ladder():
        steps = draw(st.lists(SIZE_STEPS, min_size=width - 1, max_size=width - 1))
        return np.concatenate(([0], np.cumsum(steps))).astype(np.int64)

    shared_row = ladder()
    sizes = np.asarray(
        [shared_row if shared else ladder() for _ in range(n_rows)],
        dtype=np.int64,
    ).reshape(n_rows, width)
    steps = draw(
        st.lists(
            st.lists(PROFIT_STEPS, min_size=width, max_size=width),
            min_size=n_rows, max_size=n_rows,
        )
    )
    profits = np.cumsum(np.asarray(steps, dtype=np.float64).reshape(n_rows, width), axis=1)
    profits[:, 0] = 0.0
    lengths = None
    if draw(st.booleans()):
        lengths = np.asarray(
            [draw(st.integers(1, width)) for _ in range(n_rows)], dtype=np.int64
        )
        if not shared:
            # What hull-reduced rows look like: zeros past the valid prefix.
            sizes[np.arange(width) >= lengths[:, None]] = 0
    keys = [
        key
        for count in counts
        for key in draw(
            st.lists(st.integers(0, 30), min_size=count, max_size=count, unique=True)
        )
    ]
    budgets = [draw(BUDGETS) for _ in counts]
    return (
        shared_row if shared else sizes, profits, lengths,
        np.asarray(keys, dtype=np.int64),
        np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        np.asarray(budgets, dtype=np.int64),
    )


class TestSegmentedGreedy:
    @settings(max_examples=400, deadline=None)
    @given(segmented_instances())
    def test_every_segment_matches_the_heap(self, instance):
        sizes, profits, lengths, keys, offsets, budgets = instance
        levels = kernels.greedy_select(sizes, profits, lengths, keys, offsets, budgets)
        assert levels.shape == (len(keys),)
        for segment, budget in enumerate(budgets.tolist()):
            rows = range(offsets[segment], offsets[segment + 1])
            valid = [
                profits.shape[1] if lengths is None else int(lengths[row])
                for row in rows
            ]
            expected, _, _ = kernels.greedy_select_heap(
                keys[list(rows)].tolist(),
                [
                    (sizes if sizes.ndim == 1 else sizes[row])[:n].tolist()
                    for row, n in zip(rows, valid)
                ],
                [profits[row, :n].tolist() for row, n in zip(rows, valid)],
                budget,
            )
            assert levels[list(rows)].tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(segmented_instances(), st.data())
    def test_cells_past_lengths_change_no_pick(self, instance, data):
        """Whatever a row holds past ``lengths`` -- NaN or infinite profits,
        zero size gains (0/0 and x/0 gradients) -- no pick changes."""
        sizes, profits, lengths, keys, offsets, budgets = instance
        if lengths is None:
            lengths = np.full(len(keys), profits.shape[1], dtype=np.int64)
        clean = kernels.greedy_select(sizes, profits, lengths, keys, offsets, budgets)
        padding = np.arange(profits.shape[1]) >= lengths[:, None]
        fill = data.draw(st.sampled_from(["nan", "inf", "-inf", "zero_gain", "mixed"]))
        profits = profits.copy()
        if fill == "mixed":
            junk = [np.nan, np.inf, -np.inf, 0.0, 1e300]
            profits[padding] = data.draw(
                st.lists(st.sampled_from(junk), min_size=int(padding.sum()),
                         max_size=int(padding.sum()))
            )
        elif fill != "zero_gain":
            profits[padding] = float(fill)
        if fill in ("zero_gain", "mixed") and sizes.ndim == 2:
            last = sizes[np.arange(len(keys)), lengths - 1]
            sizes = np.where(padding, last[:, None], sizes)  # every gain past lengths 0
            profits[padding] += 1.0
        padded = kernels.greedy_select(sizes, profits, lengths, keys, offsets, budgets)
        assert padded.tolist() == clean.tolist()

    def test_freeze_is_per_item_and_ties_break_by_key(self):
        # Segment 0: the 90-byte upgrade freezes, the cheap ladder still
        # climbs.  Segment 1: equal gradients, the lower key upgrades first
        # and the budget runs out before the higher one.
        levels = kernels.greedy_select(
            np.asarray([[0, 90, 0], [0, 10, 20], [0, 10, 20], [0, 10, 20]]),
            np.asarray(
                [[0.0, 9.0, 0.0], [0.0, 0.5, 0.8], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
            ),
            np.asarray([2, 3, 3, 3]),
            np.asarray([0, 1, 7, 3]),
            np.asarray([0, 2, 4]),
            np.asarray([20, 30]),
        )
        assert levels.tolist() == [0, 2, 1, 2]

    def test_no_rows_and_single_level_rows(self):
        empty = kernels.greedy_select(
            [0, 5], np.zeros((0, 2)), None, np.zeros(0, dtype=np.int64),
            np.asarray([0, 0, 0]), np.asarray([10, 10]),
        )
        assert empty.tolist() == []
        single = kernels.greedy_select(
            [0], np.zeros((3, 1)), None, np.arange(3),
            np.asarray([0, 3]), np.asarray([10]),
        )
        assert single.tolist() == [0, 0, 0]

    @pytest.mark.parametrize(
        "sizes, profits, offsets, budgets",
        [
            ([0, 5], [[0.0, -4.0]], [0, 1], [10]),  # the only upgrade loses
            ([0, 5], [[0.0, 0.0]], [0, 1], [10]),  # a zero gradient stops the heap
            ([0, 5, 9], [[0.0, 4.0, 5.0], [0.0, 1.0, 9.0]], [0, 1, 2], [4, 0]),  # none fits
            ([0, 5], [[0.0, -1.0], [0.0, 0.0]], [0, 0, 2, 2], [0, 10, 7]),  # empty segments
        ],
        ids=["losing", "flat", "unaffordable", "empty-segments"],
    )
    def test_no_reachable_upgrade_selects_nothing(self, sizes, profits, offsets, budgets):
        """No candidate reaches the pop-order sort: every row stays at level
        0, as the heap leaves it."""
        profits = np.asarray(profits)
        keys = np.arange(len(profits))
        levels = kernels.greedy_select(
            sizes, profits, None, keys, np.asarray(offsets), np.asarray(budgets)
        )
        assert levels.tolist() == [0] * len(profits)
        for segment, budget in enumerate(budgets):
            rows = list(range(offsets[segment], offsets[segment + 1]))
            expected, _, _ = kernels.greedy_select_heap(
                keys[rows].tolist(), [sizes] * len(rows),
                [profits[row].tolist() for row in rows], budget,
            )
            assert levels[rows].tolist() == expected

    def test_keys_at_the_int64_ends_break_ties(self):
        """Item keys enter the sort as they are, never packed into a wider
        integer: the most negative and most positive int64 keys break an
        exact gradient tie in key order, in two segments at once."""
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        keys = np.asarray([high, low, low, high])
        profits = np.asarray([[0.0, 1.0, 2.0]] * 4)
        sizes = [0, 10, 20]
        levels = kernels.greedy_select(
            sizes, profits, None, keys, np.asarray([0, 2, 4]), np.asarray([30, 10])
        )
        # Segment 0: the low key climbs twice, then the high key once.
        # Segment 1: one upgrade fits, the low key's.
        assert levels.tolist() == [1, 2, 1, 0]


# -- the engine against the per-user paths --------------------------------------


@cache
def _streams():
    trace = TraceConfig(seed=23)
    pairs = [(u, r) for u, r in iter_users(14, trace) if r]
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    return pairs, UtilityAnnotations(scores=scores), trace.duration_hours * 3600.0


@pytest.fixture(scope="module")
def streams():
    return _streams()


def no_channels():
    """The default of both runners: the paper's push channel alone."""
    return None


#: One factory per channel shape; a set is 1-3 of them, the first primary.
CHANNEL_SHAPES = {
    **{
        name: partial(builtin_channel, name)
        for name in ("push", "inapp", "email", "messenger")
    },
    # A passthrough channel that is not called "push".
    "sms": partial(Channel, name="sms"),
    # The items' native ladder behind a non-identity cost curve: cheaper per
    # byte than push, dearer at the low levels where the envelope dominates.
    "bulk": partial(
        Channel, name="bulk", cost=ChannelCostCurve(per_byte=0.8, overhead_bytes=512)
    ),
}


def channel_set(*shapes):
    return lambda: ChannelSet([CHANNEL_SHAPES[shape]() for shape in shapes])


three_channels = channel_set("push", "inapp", "email")

#: (id, policy name, extra policy kwargs, config overrides, ChannelSet factory)
MATRIX = [
    ("richnote-cell", "richnote", {}, {}, no_channels),
    ("richnote-starved", "richnote", {}, {"weekly_budget_mb": 0.05}, no_channels),
    ("richnote-markov", "richnote", {}, {"network_mode": NetworkMode.MARKOV}, no_channels),
    ("richnote-no-aging", "richnote", {}, {"aging_tau_seconds": None}, no_channels),
    ("fifo-cell", "fifo", {"fixed_level": 2}, {"weekly_budget_mb": 1.0}, no_channels),
    ("fifo-markov", "fifo", {"fixed_level": 3}, {"network_mode": NetworkMode.MARKOV}, no_channels),
    ("util-cell", "util", {"fixed_level": 3}, {"weekly_budget_mb": 1.0}, no_channels),
    ("util-markov", "util", {"fixed_level": 2}, {"network_mode": NetworkMode.MARKOV}, no_channels),
    (
        "channels-aging", "richnote", {},
        {"network_mode": NetworkMode.MARKOV, "weekly_budget_mb": 2.0}, three_channels,
    ),
    (  # starved and aging-free: the same queued rows merge again every round
        "channels-no-aging", "richnote", {},
        {
            "aging_tau_seconds": None, "weekly_budget_mb": 0.01,
            "network_mode": NetworkMode.MARKOV,
        },
        three_channels,
    ),
    ("channels-fifo", "fifo", {"fixed_level": 2}, {"weekly_budget_mb": 2.0}, three_channels),
    # The channel axis.  A renamed passthrough selects exactly like push and
    # must carry its own name (the parent engine reported "push").
    ("renamed-passthrough", "richnote", {}, {"weekly_budget_mb": 2.0}, channel_set("sms")),
    ("email-alone", "richnote", {}, {"weekly_budget_mb": 0.5}, channel_set("email")),
    (
        "inapp-primary", "fifo", {"fixed_level": 3}, {"weekly_budget_mb": 1.0},
        channel_set("inapp", "push"),
    ),
    (
        "native-cost-curve", "richnote", {},
        {"network_mode": NetworkMode.MARKOV, "weekly_budget_mb": 2.0},
        channel_set("push", "bulk"),
    ),
    (
        "four-builtins", "richnote", {}, {"weekly_budget_mb": 2.0},
        channel_set("push", "inapp", "email", "messenger"),
    ),
    (
        "channels-util", "util", {"fixed_level": 2},
        {"network_mode": NetworkMode.MARKOV, "weekly_budget_mb": 2.0}, three_channels,
    ),
]


def _build(streams, name, kwargs, overrides, make_channels):
    pairs, annotations, duration = streams
    config = ExperimentConfig(seed=23, **overrides)
    spec = MethodSpec(Method(name), kwargs.get("fixed_level"))
    columns = build_cohort(
        pairs, annotations, build_audio_ladder(config.presentation_spec)
    )
    engine = make_engine(columns, spec, config, duration, channels=make_channels())
    return columns, config, spec, engine


def _folded(columns, result):
    outcomes = fold_outcomes(columns, result, digest_deliveries=True)
    return [
        (o.delivery_digest, o.metrics, o.mean_backlog_bytes,
         o.max_queue_length, o.final_queue_length)
        for o in outcomes
    ]


def _assert_equals_scalar(streams, batched, result, spec, config, make_channels):
    """Engine == ``run_user(channels=)`` per user: digest, metrics, queue
    stats and the carrying channel of every delivery, read off the rounds
    the scalar runner runs.  A run that delivers nothing proves nothing."""
    assert sum(m.delivered_notifications for _, m, *_ in batched) > 0
    carried: list[str] = []
    run_round = RoundLoop.run_round

    def recording(loop, now, round_seconds):
        outcome = run_round(loop, now, round_seconds)
        carried.extend(d.channel for d in outcome.deliveries)
        return outcome

    pairs, annotations, duration = streams
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoundLoop, "run_round", recording)
        for index, ((user_id, records), (digest, metrics, *queue)) in enumerate(
            zip(pairs, batched)
        ):
            carried.clear()
            twin = run_user(
                user_id, records, spec, config, annotations, duration,
                digest_deliveries=True, channels=make_channels(),
            )
            assert (twin.delivery_digest, twin.metrics) == (digest, metrics)
            assert [
                twin.mean_backlog_bytes, twin.max_queue_length,
                twin.final_queue_length,
            ] == queue
            assert carried == [
                result.channel_names[code] for code in result.channel_codes[index]
            ]


class TestEngineParity:
    @pytest.mark.parametrize(
        "name,kwargs,overrides,make_channels",
        [case[1:] for case in MATRIX], ids=[case[0] for case in MATRIX],
    )
    def test_batched_equals_adapter_scalar_and_single_stepped(
        self, streams, name, kwargs, overrides, make_channels
    ):
        args = (streams, name, kwargs, overrides, make_channels)
        columns, config, spec, engine = _build(*args)
        result = engine.run()
        batched = _folded(columns, result)

        _, _, _, stepper = _build(*args)
        for _ in stepper.times:
            stepped = stepper.run(limit_rounds=1)
        assert _folded(columns, stepped) == batched
        assert stepped.deliveries == result.deliveries

        _assert_equals_scalar(streams, batched, result, spec, config, make_channels)

    @settings(max_examples=30, deadline=None)
    @given(
        shapes=st.lists(
            st.sampled_from(sorted(CHANNEL_SHAPES)), min_size=1, max_size=3, unique=True
        ),
        policy=st.sampled_from(
            [("richnote", {}), ("fifo", {"fixed_level": 2}), ("util", {"fixed_level": 3})]
        ),
        overrides=st.fixed_dictionaries(
            {
                "network_mode": st.sampled_from(list(NetworkMode)),
                "aging_tau_seconds": st.sampled_from([None, 28_800.0]),
                "weekly_budget_mb": st.sampled_from([0.5, 5.0]),
            }
        ),
    )
    def test_any_channel_set_equals_the_scalar_runner(
        self, streams, shapes, policy, overrides
    ):
        make_channels = channel_set(*shapes)
        columns, config, spec, engine = _build(streams, *policy, overrides, make_channels)
        result = engine.run()
        assert result.channel_names == tuple(shapes)
        _assert_equals_scalar(
            streams, _folded(columns, result), result, spec, config, make_channels
        )


    @settings(max_examples=25, deadline=None)
    @given(
        budgets=st.lists(st.floats(0.05, 200.0), min_size=1, max_size=5, unique=True),
        policy=st.sampled_from(
            [("richnote", None), ("fifo", 2), ("util", 3)]
        ),
        overrides=st.fixed_dictionaries(
            {
                "network_mode": st.sampled_from(list(NetworkMode)),
                "aging_tau_seconds": st.sampled_from([None, 28_800.0]),
            }
        ),
        make_channels=st.sampled_from([no_channels, three_channels]),
        sampled=st.integers(0, 10**6),
    )
    def test_any_budget_column_equals_the_per_budget_runs(
        self, streams, budgets, policy, overrides, make_channels, sampled
    ):
        """One pass over the users stacked per budget == a pass per budget on
        every user == the scalar runner on a sampled user, outcome for
        outcome (metrics, digest, backlog and queue numbers)."""
        pairs, annotations, duration = streams
        base = ExperimentConfig(seed=23, **overrides)
        spec = MethodSpec(Method(policy[0]), policy[1])
        columns = build_cohort(
            pairs, annotations, build_audio_ladder(base.presentation_spec)
        )
        stacked = sweep_cohort(
            columns, [(spec, budget) for budget in budgets], base, duration,
            digest_deliveries=True, channels=make_channels(),
        )
        # A draw that delivers nothing at any budget proves nothing.
        assume(any(o.metrics.delivered_notifications for row in stacked for o in row))
        assert len(stacked) == len(budgets)
        user_id, records = pairs[sampled % len(pairs)]
        for budget, outcomes in zip(budgets, stacked):
            config = base.with_budget(budget)
            assert outcomes == run_users_columnar(
                pairs, spec, config, annotations, duration,
                digest_deliveries=True, channels=make_channels(),
            )
            assert outcomes[sampled % len(pairs)] == run_user(
                user_id, records, spec, config, annotations, duration,
                digest_deliveries=True, channels=make_channels(),
            )


class TestKernelCallsPerRun:
    @pytest.mark.parametrize(
        "overrides,make_channels",
        [
            ({}, no_channels),
            ({"network_mode": NetworkMode.MARKOV}, no_channels),
            ({"network_mode": NetworkMode.MARKOV}, three_channels),
        ],
        ids=["cell", "markov", "markov-channels"],
    )
    def test_one_selection_pass_per_round_and_no_heap(
        self, streams, monkeypatch, overrides, make_channels
    ):
        """Users on CELL and on WIFI share one call of each selection kernel
        per round, and the batched RichNote paths never reach the per-user
        heap."""
        calls = dict.fromkeys(("segmented", "heap", "merge", "hull"), 0)

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name, attribute in (
            ("segmented", "greedy_select"), ("heap", "greedy_select_heap"),
            ("merge", "merge_channel_rows_batched"), ("hull", "hull_levels_batched"),
        ):
            monkeypatch.setattr(
                kernels, attribute, count(name, getattr(kernels, attribute))
            )
        columns, config, spec, engine = _build(
            streams, "richnote", {}, overrides, make_channels
        )
        # States among each selection's members: 2 is a round mixing CELL
        # and WIFI users, the case one pass per state would call twice.
        states_selected = []
        select = engine._select

        def recording(now, members, codes):
            states_selected.append(np.unique(codes[members]).size)
            select(now, members, codes)

        engine._select = recording
        fused = make_channels is three_channels
        for _ in engine.times:
            before = dict(calls)
            result = engine.run(limit_rounds=1)
            made = {name: calls[name] - before[name] for name in calls}
            assert made["segmented"] <= 1
            assert made["merge"] == made["hull"] == (made["segmented"] if fused else 0)
        assert len(result.delivered) > 0 and calls["segmented"] > 0
        assert calls["heap"] == 0
        mixed = states_selected.count(2)
        if overrides:
            assert mixed >= 20, states_selected
        else:
            assert mixed == 0
        # The counter is live: the scalar runner selects through the heap.
        pairs, annotations, duration = streams
        run_user(
            *pairs[0], spec, config, annotations, duration,
            channels=make_channels(),
        )
        assert calls["heap"] > 0


    @pytest.mark.parametrize(
        "cells",
        [None, [("fifo", 1), ("util", 3), ("fifo", 3)]],
        ids=["richnote-push", "stacked-fifo-util"],
    )
    def test_a_round_neither_inserts_nor_deletes(self, streams, cells):
        """The round merges arrivals into the queue, takes deliveries off it
        and folds the budget debits by sorts, scatters and masks: with
        ``np.insert`` and ``np.delete`` raising, a RichNote push engine and
        a stacked FIFO/UTIL engine (one cell per (policy, level), each its
        own budget) run to the digests of a free run."""

        def built():
            if cells is None:
                columns, _, _, engine = _build(streams, "richnote", {}, {}, no_channels)
                return columns, engine
            pairs, annotations, duration = streams
            config = ExperimentConfig(seed=23, weekly_budget_mb=1.0)
            columns = build_cohort(
                pairs, annotations, build_audio_ladder(config.presentation_spec)
            ).tiled(len(cells))
            specs = [
                (MethodSpec(Method(policy), level), 1.0 + index)
                for index, (policy, level) in enumerate(cells)
            ]
            return columns, make_pass_engine(columns, specs, config, duration)

        columns, engine = built()
        free = _folded(columns, engine.run())
        assert sum(m.delivered_notifications for _, m, *_ in free) > 0

        def refuse(*args, **kwargs):
            raise AssertionError("the round called np.insert / np.delete")

        columns, engine = built()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "insert", refuse)
            patch.setattr(np, "delete", refuse)
            result = engine.run()
        assert _folded(columns, result) == free


class TestResultIsASnapshot:
    def test_a_kept_result_survives_later_rounds(self, streams):
        offline = {"network_mode": NetworkMode.MARKOV}  # OFF rounds queue up
        columns, _, _, engine = _build(
            streams, "richnote", {}, offline, no_channels
        )
        engine.run(limit_rounds=40)
        early = engine.run(limit_rounds=0)
        kept = (
            early.rounds, early.delivered.copy(), early.deliveries,
            [list(codes) for codes in early.channel_codes],
            early.mean_backlog_bytes.copy(), early.max_queue_length.copy(),
            early.final_queue_length.copy(), _folded(columns, early),
        )
        late = engine.run()
        assert late.rounds > early.rounds
        assert len(late.delivered) > len(early.delivered)
        assert not np.array_equal(late.max_queue_length, kept[5])
        assert early.rounds == kept[0]
        assert np.array_equal(early.delivered, kept[1])
        assert early.deliveries == kept[2]
        assert [list(codes) for codes in early.channel_codes] == kept[3]
        assert np.array_equal(early.mean_backlog_bytes, kept[4])
        assert np.array_equal(early.max_queue_length, kept[5])
        assert np.array_equal(early.final_queue_length, kept[6])
        assert _folded(columns, early) == kept[7]
        # ...and the prefix it shares with the later result is the same rows.
        assert np.array_equal(late.delivered[: len(early.delivered)], early.delivered)

    def test_per_user_views_behave_like_lists(self, streams):
        _, _, _, engine = _build(streams, "richnote", {}, {}, no_channels)
        result = engine.run()
        deliveries = result.deliveries
        assert len(deliveries) == len(result.channel_codes) == engine.cohort.n_users
        assert isinstance(deliveries[0], list) and deliveries[-1] == list(deliveries)[-1]
        assert sum(map(len, deliveries)) == len(result.delivered)
        some = next(user for user in deliveries if user)
        assert len(some[0]) == 6 and isinstance(some[0][3], int)
        assert not next((user for user in deliveries if not user), [])
        with pytest.raises(IndexError):
            deliveries[len(deliveries)]
        assert deliveries == result.deliveries
        assert deliveries != result.channel_codes
