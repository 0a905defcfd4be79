"""The columnar engine's delivery log, its user order and the fold over it.

The log stores each field at the width its values need (42 bytes a row),
and the engine refuses, by field name, a cohort, ladder or channel set
that would overflow one.  Nothing copies the log per user: the result's
``user_order`` indexes it, ``deliveries`` / ``channel_codes`` and the
outcome fold gather through it, so the fold's transient memory is bounded
by its block.  The memory guard runs the 200-user store of
``tests/test_score_table.py``'s guard under tracemalloc: log plus order
at most 64 bytes a delivery (the 64-byte log and its user-sorted copy
held 128), the fold's peak with 1 024-row blocks at most 32 bytes a
delivery (78 with the copy).

Also here: the deliver phase's budget debits as one segmented fold against
the per-batch-position loop it replaced, and ``ColumnarCohort.tiled``
building its copy without re-running the cohort's validation.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.columnar as columnar_module
from repro.core.channels import Channel, ChannelSet, builtin_channel
from repro.core.content import Presentation, PresentationLadder
from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import build_cohort, fold_outcomes, make_engine
from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.pool import oracle_scores
from repro.experiments.runner import UtilityAnnotations
from repro.runtime import registry
from repro.runtime.columnar import (
    DELIVERY_DTYPE,
    ColumnarCohort,
    ColumnarEngine,
    build_device_columns,
    round_times,
    _debited,
)
from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import ShardStoreWriter, TraceShardStore


def _ladder(sizes) -> PresentationLadder:
    """Levels ``0..len(sizes)`` with the given wire sizes above level 0."""
    steps = [Presentation(0, 0, 0.0)]
    steps += [
        Presentation(level, size, level / len(sizes))
        for level, size in enumerate(sizes, start=1)
    ]
    return PresentationLadder(steps)


def _cohort(ladder, users: int = 1) -> ColumnarCohort:
    return ColumnarCohort(
        user_ids=list(range(users)), offsets=np.arange(users + 1),
        item_ids=np.arange(users), created_at=np.zeros(users),
        contents=np.full(users, 0.5), ladder=ladder,
    )


def _engine(cohort, policy, channels=None, round_seconds=3600.0):
    device = build_device_columns(
        list(range(cohort.n_users)), round_times(round_seconds, round_seconds),
        round_seconds, round_seconds, 3000.0,
    )
    return ColumnarEngine(
        cohort, device, policy, theta_bytes=1e10, kappa_joules=3000.0,
        round_seconds=round_seconds, duration_seconds=round_seconds,
        channels=channels,
    )


class TestLogWidths:
    def test_each_field_at_its_width(self):
        assert DELIVERY_DTYPE.names == (
            "user", "time", "index", "level", "size", "energy", "utility", "channel",
        )
        widths = {name: DELIVERY_DTYPE[name].str[1:] for name in DELIVERY_DTYPE.names}
        assert widths == {
            "user": "i4", "time": "f8", "index": "i8", "level": "i1",
            "size": "i4", "energy": "f8", "utility": "f8", "channel": "i1",
        }
        assert DELIVERY_DTYPE.itemsize <= 42

    def test_the_widest_values_that_fit_are_logged_exactly(self):
        """Level 126 of a 127-level ladder at 2^31 - 1 wire bytes, on a
        round long enough for the cellular link to carry it."""
        sizes = [1000 * level for level in range(1, 126)] + [2**31 - 1]
        engine = _engine(
            _cohort(_ladder(sizes)), registry.create("fifo", fixed_level=126),
            round_seconds=20_000.0,
        )
        row = engine.run().delivered
        assert row[["level", "size", "channel"]].tolist() == [(126, 2**31 - 1, 0)]

    @pytest.mark.parametrize(
        "field, cohort, channels",
        [
            ("user", SimpleNamespace(n_users=2**31, ladder=build_audio_ladder()), None),
            ("level", _cohort(_ladder(range(1, 128))), None),
            ("size", _cohort(_ladder([10, 2**31])), None),
            (
                "channel",
                _cohort(build_audio_ladder()),
                ChannelSet([Channel(f"c{code}") for code in range(128)]),
            ),
        ],
        ids=["2^31-user-rows", "128-levels", "2^31-wire-bytes", "128-channels"],
    )
    def test_an_overflowing_field_is_refused_by_name(self, field, cohort, channels):
        """The check runs before the engine reads the cohort's columns, so a
        stand-in with 2^31 user rows needs no such allocation."""
        with pytest.raises(ValueError, match=f"delivery log field '{field}'"):
            ColumnarEngine(
                cohort, None, registry.create("richnote"), theta_bytes=1e6,
                kappa_joules=3000.0, round_seconds=3600.0, duration_seconds=3600.0,
                channels=channels,
            )

    def test_one_below_every_limit_builds(self):
        channels = ChannelSet([Channel(f"c{code}") for code in range(127)])
        ladder = _ladder(list(range(1, 126)) + [2**31 - 1])
        engine = _engine(_cohort(ladder), registry.create("richnote"), channels=channels)
        assert len(engine.channel_names) == 127


def _run(channels=None, markov=False):
    config = ExperimentConfig(
        network_mode=NetworkMode.MARKOV if markov else NetworkMode.CELL_ONLY
    )
    trace = TraceConfig(seed=37)
    pairs = [(u, r) for u, r in iter_users(12, trace) if r]
    scores = {r.notification_id: 0.2 + 0.05 * (r.notification_id % 13)
              for _, records in pairs for r in records}
    columns = build_cohort(pairs, UtilityAnnotations(scores=scores), build_audio_ladder())
    engine = make_engine(
        columns, MethodSpec(Method.RICHNOTE), config,
        trace.duration_hours * 3600.0, channels=channels,
    )
    return engine.run()


class TestUserOrder:
    @pytest.mark.parametrize("multichannel", [False, True])
    def test_views_gather_what_a_user_sorted_copy_holds(self, multichannel):
        channels = (
            ChannelSet([builtin_channel(name) for name in ("push", "inapp", "email")])
            if multichannel else None
        )
        result = _run(channels, markov=multichannel)
        log = result.delivered
        assert len(log) > 0 and len(set(log["user"].tolist())) > 1
        copy = log[np.argsort(log["user"], kind="stable")]
        bounds = np.searchsorted(copy["user"], np.arange(len(result.backlog_sum_bytes) + 1))
        order, offsets = result.user_order
        assert result.user_order is result.user_order  # computed once
        assert order.dtype == np.intp and offsets.tolist() == bounds.tolist()
        assert log.take(order).tobytes() == copy.tobytes()
        fields = ("time", "index", "level", "size", "energy", "utility")
        for u, (rows, codes) in enumerate(zip(result.deliveries, result.channel_codes)):
            mine = copy[bounds[u] : bounds[u + 1]]
            assert rows == list(zip(*(mine[name].tolist() for name in fields)))
            assert codes == mine["channel"].tolist()
            assert all(type(value) is int for row in rows for value in row[1:4])
        if multichannel:
            assert set(log["channel"].tolist()) > {0}

    def test_no_deliveries_still_cuts_every_user(self):
        engine = _engine(_cohort(build_audio_ladder(), users=3), registry.create("richnote"))
        result = engine.run(limit_rounds=0)
        order, offsets = result.user_order
        assert order.size == 0 and offsets.tolist() == [0, 0, 0, 0]
        assert list(result.deliveries) == [[], [], []]


#: ``tests/test_score_table.py``'s guard population: 200 users, 21 591 records.
@pytest.fixture(scope="module")
def guard_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("guard") / "store"
    with ShardStoreWriter(path) as writer:
        for user_id, records in iter_users(200, TraceConfig(seed=97), mean_rate_per_hour=1.0):
            if records:
                writer.append(user_id, records)
    store = TraceShardStore(path)
    pairs = [
        (int(store.user_ids[position]), store.records_at(position))
        for position in range(store.n_users)
    ]
    yield pairs
    store.close()


class TestLogMemory:
    def _engine(self, pairs):
        columns = build_cohort(
            pairs, UtilityAnnotations(scores=oracle_scores(pairs)), build_audio_ladder()
        )
        duration = TraceConfig(seed=97).duration_hours * 3600.0
        engine = make_engine(columns, MethodSpec(Method.RICHNOTE), ExperimentConfig(), duration)
        return columns, engine

    def test_log_and_order_take_at_most_64_bytes_a_delivery(self, guard_store):
        """On this store: 42 bytes of log and 8.1 of order and offsets."""
        _, engine = self._engine(guard_store)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = engine.run()
            result.user_order
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        deliveries = len(result.delivered)
        assert deliveries > 20_000
        log = result.delivered.base.nbytes  # preallocated when the engine was built
        per_delivery = (log + held) / deliveries
        assert per_delivery <= 64, f"{per_delivery:.1f} B a delivery"

    def test_fold_peak_is_bounded_by_its_block(self, guard_store, monkeypatch):
        """With 1 024-row blocks the fold's peak, the user order and the
        digest's one piece list per block included, read 30.7 bytes a
        delivery; the user-sorted copy alone is 64."""
        monkeypatch.setattr(columnar_module, "FOLD_ROWS", 1024)
        columns, engine = self._engine(guard_store)
        result = engine.run()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            outcomes = fold_outcomes(columns, result, digest_deliveries=True)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        deliveries = len(result.delivered)
        assert len(outcomes) == len(guard_store)
        assert peak <= 32 * deliveries, f"{peak / deliveries:.1f} B a delivery"


def _stepped(budgets, debits, starts):
    """The deliver phase's old debit loop: ``max(0, x - s)`` one batch
    position at a time across batches."""
    out = np.asarray(budgets, dtype=np.float64).copy()
    sizes = np.diff(starts, append=len(debits))
    for step in range(int(sizes.max())):
        live = sizes > step
        out[live] = np.maximum(0.0, out[live] - debits[starts[live] + step])
    return out


#: Debits as the deliver phase makes them: billed bytes (int64) or energy
#: shares (float64), zeros common.
byte_debits = st.integers(0, 5_000)
energy_debits = st.one_of(
    st.just(0.0), st.floats(0.0, 50.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e12),
)


@st.composite
def batches(draw):
    """``(budgets, debits, starts, exact)``: batches of 1-40 debits, some
    debits rewritten to the running budget so it crosses 0 exactly."""
    kind = draw(st.sampled_from(["bytes", "energy", "unfloored"]))
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(1, 40)), min_size=1, max_size=8))
    starts = np.cumsum([0] + sizes[:-1])
    if kind == "unfloored":
        # Budgets far above their batch's debits, every mantissa bit drawn:
        # the fold never floors, and ``x - s1 - s2`` parts from ``x - (s1 + s2)``.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.uniform(1e4, 1e7, len(sizes)), rng.uniform(0.0, 100.0, sum(sizes)), starts, 0
    as_bytes = kind == "bytes"
    budget = (
        st.one_of(st.integers(0, 10**6).map(float), st.floats(0.0, 1e6))
        if as_bytes else st.floats(0.0, 1e3)
    )
    budgets = [draw(st.one_of(st.just(0.0), budget)) for _ in sizes]
    debits, exact = [], 0
    for b, size in zip(budgets, sizes):
        running = b
        for _ in range(size):
            s = draw(byte_debits if as_bytes else energy_debits)
            if (
                draw(st.integers(0, 5)) == 0 and running > 0.0
                and (not as_bytes or running.is_integer())
            ):
                s = int(running) if as_bytes else running
                exact += 1
            running = max(0.0, running - s)
            debits.append(s)
    dtype = np.int64 if as_bytes else np.float64
    return np.asarray(budgets), np.asarray(debits, dtype=dtype), starts, exact


class TestDebitFold:
    @settings(max_examples=400, deadline=None)
    @given(batches())
    def test_one_fold_per_batch_is_the_stepped_loop(self, case):
        budgets, debits, starts, _ = case
        folded = _debited(budgets, debits, starts)
        assert folded.tobytes() == _stepped(budgets, debits, starts).tobytes()

    def test_the_drawn_batches_reach_every_hostile_class(self):
        seen = {
            "exact_zero": 0, "one_row": 0, "long": 0, "zero_debit": 0, "floored": 0,
            "not_a_sum": 0,
        }

        @settings(max_examples=300, deadline=None, database=None)
        @given(batches())
        def tally(case):
            budgets, debits, starts, exact = case
            sizes = np.diff(starts, append=len(debits))
            seen["exact_zero"] += exact > 0
            seen["one_row"] += bool((sizes == 1).any())
            seen["long"] += bool((sizes >= 20).any())
            seen["zero_debit"] += bool((debits == 0).any())
            stepped = _stepped(budgets, debits, starts)
            seen["floored"] += bool((stepped == 0.0).any())
            summed = np.maximum(0.0, budgets - np.add.reduceat(debits * 1.0, starts))
            seen["not_a_sum"] += summed.tobytes() != stepped.tobytes()

        tally()
        assert all(count >= 10 for count in seen.values()), seen

    @pytest.mark.parametrize(
        "budget, debits",
        [
            (5.0, [5.0, 0.0, 0.0]),  # lands on 0 exactly, then zero debits
            (5.0, [2.0, 3.0, 1.0]),  # exact crossing mid-batch, then below
            (1e16, [1.0, 1.0, 1.0, 1.0]),  # each step rounds back: no x - sum(s)
            (0.0, [0.0]),
            (-0.0, [0.0, 0.0]),
            (0.1, [0.3]),
        ],
    )
    def test_pinned_batches(self, budget, debits):
        debits = np.asarray(debits)
        starts = np.asarray([0])
        expected = _stepped([budget], debits, starts)
        assert _debited(np.asarray([budget]), debits, starts).tobytes() == expected.tobytes()
        if budget == 1e16:
            assert expected[0] == 1e16 != 1e16 - 4.0


class TestTiledCohort:
    def test_the_copy_equals_the_validated_one_and_skips_the_checks(self, monkeypatch):
        base = ColumnarCohort(
            user_ids=[7, 3, 9], offsets=[0, 2, 2, 5], item_ids=[4, 1, 4, 8, 2],
            created_at=[0.0, 5.0, 1.0, 1.0, 9.0], contents=[0.1, 0.2, 0.3, 0.4, 1.0],
            ladder=build_audio_ladder(),
        )
        checks = []
        validate = ColumnarCohort.__post_init__
        monkeypatch.setattr(
            ColumnarCohort, "__post_init__",
            lambda self: (checks.append(self), validate(self))[1],
        )
        for copies in (1, 2, 4):
            tiled = base.tiled(copies)
            assert checks == []
            counts = np.tile(np.diff(base.offsets), copies)
            validated = ColumnarCohort(
                user_ids=base.user_ids * copies,
                offsets=np.concatenate(([0], np.cumsum(counts))),
                item_ids=np.tile(base.item_ids, copies),
                created_at=np.tile(base.created_at, copies),
                contents=np.tile(base.contents, copies),
                ladder=base.ladder,
            )
            assert checks.pop() is validated
            assert type(tiled) is ColumnarCohort
            assert vars(tiled).keys() == vars(validated).keys()
            for name, value in vars(validated).items():
                mine = getattr(tiled, name)
                if isinstance(value, np.ndarray):
                    assert mine.dtype == value.dtype and mine.tobytes() == value.tobytes()
                else:
                    assert mine == value
            assert tiled.n_users == 3 * copies and tiled.n_items == 5 * copies
