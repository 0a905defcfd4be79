"""The FIFO/UTIL column selection against the whole-backlog selection.

``ColumnarEngine`` keeps each user's queue in their selection order (order
keys, fixed at arrival), counts it with exact pending counters, and decays
and sorts only the rows a round can deliver.  Two oracles sit below it:

* ``FlatQueueEngine`` -- the sorted-flat-queue engine it replaced, its
  queue bookkeeping kept as it was: the queue holds flat item indices,
  every round re-derives the per-user counts by ``bincount`` over the
  whole queue and the connected rows by a whole-queue mask, and UTIL
  scores the whole queue of every member that affords an item;
* ``WholeBacklogEngine`` -- the selection before that: it scores every
  queued row of the group, then keeps each member's first ``budget //
  size`` rows of their ordering.

Each is a subclass of the engine under test, so the rest -- budgets,
delivery pricing, the RichNote body -- is shared and any difference in the
outcome columns is the queue's or the selection's.
"""

from __future__ import annotations

import copy
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.experiments.columnar as experiments_columnar
from repro.core.presentations import build_audio_ladder
from repro.core.utility import (
    CombinedUtilityModel,
    ExponentialAging,
    LinearAging,
    StepDeadlineAging,
)
from repro.experiments.columnar import (
    build_cohort,
    fold_outcomes,
    make_engine,
    make_pass_engine,
)
from repro.experiments.config import (
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.runner import UtilityAnnotations, run_user
from repro.runtime import kernels
from repro.runtime.columnar import (
    _KEY_BAND,
    STATE_CODES,
    ColumnarEngine,
    _Group,
    _runs,
)
from repro.runtime.policy import UtilPolicy
from repro.sim.network import NetworkState
from repro.trace.generator import TraceConfig, iter_users

_OFF_CODE = STATE_CODES[NetworkState.OFF]


class FlatQueueEngine(ColumnarEngine):
    """The engine with a queue of flat item indices re-counted every round."""

    def _order_keys(self):
        return None, None

    def _run_round(self, k, now):
        state = self.state
        joining = self._ingest_order[
            self._ingest_offsets[k] : self._ingest_offsets[k + 1]
        ]
        if joining.size:
            state.queue = np.insert(
                state.queue, np.searchsorted(state.queue, joining), joining
            )
        kernels.replenish_data_column(state.data_available, self._theta)
        kernels.replenish_energy_column(
            state.energy_available, self.device.e_t[k], self._kappa
        )
        if state.queue.size:
            self._select_and_deliver(k, now)
        state.pending = np.bincount(
            self._user_of[state.queue], minlength=self.cohort.n_users
        )
        state.q_bytes = state.pending * self._ladder_total_f
        self._backlog_sum = self._backlog_sum + state.q_bytes
        self._max_queue = np.maximum(self._max_queue, state.pending)

    def _select_and_deliver(self, k, now):
        queue = self.state.queue
        row_user = self._user_of[queue]
        counts = np.bincount(row_user, minlength=self.cohort.n_users)
        codes = self._all_cell if self.device.states is None else self.device.states[k]
        connected = codes != _OFF_CODE
        flat = queue[connected[row_user]]
        if flat.size:
            members = np.flatnonzero((counts > 0) & connected)
            # The shared RichNote body reads the queue lengths off ``pending``.
            self.state.pending = counts
            self._group = _Group(flat, members, counts[members], codes)
            self._select(now, members, codes)

    def _select_fixed(self, now, members, codes):
        flat, members, counts, codes = self._group
        level = self._level[members]
        size = self._billed_table[0, level]
        affordable = np.where(
            size > 0, self._budgets(members, codes) // np.maximum(size, 1), counts
        )
        take = np.minimum(affordable, counts)
        if not take.any():
            return
        scored = np.where(self._ranks_queue[members], counts * (take > 0), take)
        rows = flat[_runs(np.cumsum(counts) - counts, scored)]
        presentation = np.repeat(self._pres_table[0, level], scored)
        utility = self._decay_column_at(rows, now) * presentation
        order = self._by_utility(rows, utility)
        kept = order[_runs(np.cumsum(scored) - scored, take)]
        self._deliver(
            now,
            codes,
            rows[kept],
            np.repeat(level, take),
            utility[kept],
            np.zeros(kept.size, dtype=np.int64),
        )

    def _dequeue(self, keys, users, counts):
        self.state.queue = np.delete(
            self.state.queue, np.searchsorted(self.state.queue, keys)
        )


class WholeBacklogEngine(FlatQueueEngine):
    """The flat-queue engine with the selection that scores every queued
    row (one policy per engine: the level it reads is that policy's,
    clamped)."""

    @property
    def _fixed_level(self):
        return min(self.policy.fixed_level, len(self._billed_rows[0]) - 1)

    def _select_fixed(self, now, members, codes):
        flat, _, counts, codes = self._group
        level = self._fixed_level
        size = self._billed_rows[0][level]
        utility = self._decay_column_at(flat, now) * self._pres_rows[0][level]
        by_utility = self._by_utility(flat, utility)
        ordering = (
            by_utility if type(self.policy) is UtilPolicy else np.arange(flat.size)
        )
        affordable = self._budgets(members, codes) // size if size else counts
        rank = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
        taken = np.zeros(flat.size, dtype=bool)
        taken[ordering[rank < np.repeat(affordable, counts)]] = True
        rows = by_utility[taken[by_utility]]
        self._deliver(
            now,
            codes,
            flat[rows],
            np.full(rows.size, level, dtype=np.int64),
            utility[rows],
            np.zeros(rows.size, dtype=np.int64),
        )


@cache
def _streams():
    trace = TraceConfig(seed=31)
    pairs = [(u, r) for u, r in iter_users(12, trace) if r]
    # A coarse score grid: equal realized utilities -- ties the stable sort
    # must keep in queue order -- are the rule, not the exception.
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    return pairs, UtilityAnnotations(scores=scores), trace.duration_hours * 3600.0


@pytest.fixture(scope="module")
def streams():
    return _streams()


LADDER_TOP = build_audio_ladder(ExperimentConfig().presentation_spec).max_level

#: No aging, the exponential kernel, and two rules on the per-item list path
#: (the step rule makes exact utility ties between old items).
AGINGS = {
    "none": None,
    "exponential": ExponentialAging(8 * 3600.0),
    "linear": LinearAging(2 * 86_400.0),
    "step": StepDeadlineAging(4 * 3600.0, 0.25),
}


def _columns(streams, budgets):
    pairs, annotations, _ = streams
    ladder = build_audio_ladder(ExperimentConfig().presentation_spec)
    return build_cohort(pairs, annotations, ladder).tiled(len(budgets))


class TestFixedSelectionDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        method=st.sampled_from([Method.FIFO, Method.UTIL]),
        level=st.integers(1, LADDER_TOP + 2),
        budgets=st.lists(st.floats(0.05, 500.0), min_size=1, max_size=4, unique=True),
        network_mode=st.sampled_from([NetworkMode.CELL_ONLY, NetworkMode.MARKOV]),
        aging=st.sampled_from(sorted(AGINGS)),
        split=st.integers(0, 170),
        sampled=st.integers(0, 10**6),
    )
    def test_scoring_the_affordable_rows_equals_scoring_the_backlog(
        self, streams, method, level, budgets, network_mode, aging, split, sampled
    ):
        """Delivery log, backlog sums and queue lengths byte for byte, the
        engine under test resumed at ``split``; plus the scalar runner on
        one sampled (user, budget) row."""
        pairs, annotations, duration = streams
        spec = MethodSpec(method, level)
        config = ExperimentConfig(seed=31, network_mode=network_mode)
        columns = _columns(streams, budgets)
        cells = [(spec, budget) for budget in budgets]
        model = CombinedUtilityModel(aging=AGINGS[aging])
        with pytest.MonkeyPatch.context() as patch:
            # One utility model for both engines and ``run_user``.
            patch.setattr(ExperimentConfig, "utility_model", lambda self: model)
            engine = make_pass_engine(columns, cells, config, duration)
            engine.run(limit_rounds=split)
            result = engine.run()
            patch.setattr(experiments_columnar, "ColumnarEngine", WholeBacklogEngine)
            oracle = make_pass_engine(columns, cells, config, duration)
            assert type(oracle) is WholeBacklogEngine
            expected = oracle.run()
            # A draw that delivers nothing proves nothing.
            assume(len(expected.delivered) > 0)
            assert result.delivered.tobytes() == expected.delivered.tobytes()
            assert result.backlog_sum_bytes.tobytes() == expected.backlog_sum_bytes.tobytes()
            assert np.array_equal(result.max_queue_length, expected.max_queue_length)
            assert np.array_equal(result.final_queue_length, expected.final_queue_length)

            row = sampled % len(columns.user_ids)
            user_id, records = pairs[row % len(pairs)]
            budget = budgets[row // len(pairs)]
            outcome = fold_outcomes(columns, result, digest_deliveries=True)[row]
            assert outcome == run_user(
                user_id, records, spec, config.with_budget(budget), annotations,
                duration, digest_deliveries=True,
            )


def _band_rows(static, rows, take):
    """Rows past the first ``take`` of ``rows`` in static-key order (key
    descending, ties in flat order) whose key is within the band of the
    ``take``-th row's; none past a ``take``-th row with ``U_c = 0``."""
    keys = static[rows][np.lexsort((rows, -static[rows]))]
    edge = keys[take - 1]
    if not np.isfinite(edge):
        return 0
    return int(np.count_nonzero(keys[take:] >= edge - _KEY_BAND))


class TestRowsScoredPerRound:
    """What a baseline round hands the decay kernel and the delivery sort:
    FIFO the rows it delivers, UTIL those plus the band of near-ties past
    them in static-key order, and a round nobody can afford nothing at
    all."""

    @pytest.mark.parametrize("method", [Method.FIFO, Method.UTIL])
    def test_scored_rows_follow_the_affordable_rows(self, streams, monkeypatch, method):
        scored = {"decay": [], "sort": []}
        decay, by_utility = kernels.exp_decay_column, ColumnarEngine._by_utility

        def counted_decay(contents, ages, tau):
            scored["decay"].append(len(contents))
            return decay(contents, ages, tau)

        def counted_sort(engine, flat, utility):
            scored["sort"].append(flat.size)
            return by_utility(engine, flat, utility)

        monkeypatch.setattr(kernels, "exp_decay_column", counted_decay)
        monkeypatch.setattr(ColumnarEngine, "_by_utility", counted_sort)
        _, _, duration = streams
        # 2 MB a week at level 2 (~100 kB) binds: a user affords an item
        # about every eight rounds, so queues build up.
        budgets = (2.0,)
        config = ExperimentConfig(seed=31, weekly_budget_mb=budgets[0])
        engine = make_engine(_columns(streams, budgets), MethodSpec(method, 2), config, duration)
        cohort = engine.cohort
        users = cohort.n_users
        # The waiting rows, tracked from the ingest rule and the delivery
        # log alone, and their static aging keys.
        owner = np.repeat(np.arange(users), np.diff(cohort.offsets))
        joins = kernels.ingest_round_index(cohort.created_at, engine.times)
        waiting = np.zeros(cohort.n_items, dtype=bool)
        static = np.log(cohort.contents) + cohort.created_at / config.aging_tau_seconds
        delivered_before = 0
        idle_rounds = partial_rounds = total_scored = total_queued = 0
        for k in range(len(engine.times)):
            waiting |= joins == k
            scored["decay"].clear()
            scored["sort"].clear()
            result = engine.run(limit_rounds=1)
            fresh = result.delivered[delivered_before:]
            delivered_before = len(result.delivered)
            delivered = np.bincount(fresh["user"], minlength=users)
            # The queue selection saw: what is left plus what just left it.
            queued = result.final_queue_length + delivered
            assert np.array_equal(queued, np.bincount(owner[waiting], minlength=users))
            total_queued += queued.sum()
            if not fresh.size:
                idle_rounds += queued.sum() > 0
                assert scored == {"decay": [], "sort": []}
                continue
            expected = fresh.size
            if method is Method.UTIL:
                expected += sum(
                    _band_rows(static, np.flatnonzero(waiting & (owner == u)), delivered[u])
                    for u in np.flatnonzero(delivered)
                )
            assert sum(scored["decay"]) == sum(scored["sort"]) == expected
            partial_rounds += expected < queued.sum()
            total_scored += expected
            waiting[fresh["index"]] = False
        # Not vacuous: rounds with a backlog and nothing affordable, rounds
        # in which members with a queue scored nothing, and a run that
        # scores a fraction of the queued rows it carries.
        assert idle_rounds >= 3
        assert partial_rounds >= 10
        assert 4 * total_scored < total_queued


class _Counted(np.ndarray):
    """A per-item column that counts the rows array indexing reads off it
    (a mask reads every row it covers); slices are views and read none.
    :func:`_counted` gives each column its own subclass, so its own count."""

    reads = 0

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            type(self).reads += index.size
        return np.asarray(super().__getitem__(index))


def _counted(column):
    return column.view(type("Counted", (_Counted,), {"reads": 0}))


@cache
def _four_weeks():
    trace = TraceConfig(seed=53, duration_hours=4 * 168.0)
    pairs = [(u, r) for u, r in iter_users(6, trace) if r]
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    ladder = build_audio_ladder(ExperimentConfig().presentation_spec)
    columns = build_cohort(pairs, UtilityAnnotations(scores=scores), ladder)
    return columns, trace.duration_hours * 3600.0


class TestRowsGatheredPerRound:
    """Over four weeks of a standing UTIL backlog, no per-item column is
    read for more rows in a round than the round's arrivals, rows scored
    and deliveries: the backlog itself is never walked."""

    def _rounds(self, engine_type, monkeypatch):
        """Per round: (rows read off the busiest per-item column, arrivals
        + rows scored + deliveries, rows queued at the end)."""
        columns, duration = _four_weeks()
        scored = [0]
        decay = kernels.exp_decay_column

        def counted_decay(contents, ages, tau):
            scored[0] += len(contents)
            return decay(contents, ages, tau)

        monkeypatch.setattr(kernels, "exp_decay_column", counted_decay)
        monkeypatch.setattr(experiments_columnar, "ColumnarEngine", engine_type)
        # 2 MB a week at level 2: a standing queue, drained a little a round.
        config = ExperimentConfig(seed=53, weekly_budget_mb=2.0)
        engine = make_engine(columns, MethodSpec(Method.UTIL, 2), config, duration)
        assert type(engine) is engine_type
        arrivals = np.bincount(
            kernels.ingest_round_index(engine.cohort.created_at, engine.times),
            minlength=len(engine.times) + 1,
        )
        engine.cohort = copy.copy(engine.cohort)  # the cached columns stay plain
        counters = []
        for holder, names in (
            (engine, ("_user_of", "_flat_of", "_rank_value")),
            (engine.cohort, ("contents", "created_at", "item_ids")),
        ):
            for name in names:
                if getattr(holder, name) is not None:
                    setattr(holder, name, _counted(getattr(holder, name)))
                    counters.append(type(getattr(holder, name)))
        rounds, delivered_before = [], 0
        for k in range(len(engine.times)):
            for counter in counters:
                counter.reads = 0
            scored[0] = 0
            result = engine.run(limit_rounds=1)
            deliveries = len(result.delivered) - delivered_before
            delivered_before = len(result.delivered)
            rounds.append((
                max(counter.reads for counter in counters),
                arrivals[k] + scored[0] + deliveries,
                result.final_queue_length.sum(),
            ))
        return rounds

    def test_rows_read_per_round_stay_within_arrivals_scored_and_deliveries(
        self, monkeypatch
    ):
        rounds = self._rounds(ColumnarEngine, monkeypatch)
        for k, (read, bound, _) in enumerate(rounds):
            assert read <= bound, f"round {k}: {read} rows read, bound {bound}"
        # Whatever the backlog: it grows all month, to many times what a
        # round may read.
        queued = np.array([queue for _, _, queue in rounds])
        bounds = np.array([bound for _, bound, _ in rounds])
        assert queued.sum() > 20 * bounds.sum()
        assert queued[-1] > 5 * bounds.max()
        # The counter is live: the flat-queue engine walks its whole backlog.
        flat_rounds = self._rounds(FlatQueueEngine, monkeypatch)
        assert sum(read > bound for read, bound, _ in flat_rounds) > len(flat_rounds) // 2
