"""The FIFO/UTIL column selection against the whole-backlog selection.

``ColumnarEngine._select_fixed`` decays and sorts only the rows a round can
deliver.  The oracle is the selection it replaced, kept verbatim below: it
scores every queued row of the group, then keeps each member's first
``budget // size`` rows of their ordering.  Both are bound into the same
engine (a subclass overriding that one method), so everything else --
ingest, budgets, delivery, queue bookkeeping -- is shared and any
difference in the outcome columns is the selection's.
"""

from __future__ import annotations

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
from repro.runtime.columnar import ColumnarEngine
from repro.runtime.policy import UtilPolicy
from repro.trace.generator import TraceConfig, iter_users


class WholeBacklogEngine(ColumnarEngine):
    """The engine with the selection that scores every queued row (one
    policy per engine: the level it reads is that policy's, clamped)."""

    @property
    def _fixed_level(self):
        return min(self.policy.fixed_level, len(self._billed_rows[0]) - 1)

    def _select_fixed(self, now, group):
        flat, _, counts, codes = group
        level = self._fixed_level
        size = self._billed_rows[0][level]
        utility = self._decay_column_at(flat, now) * self._pres_rows[0][level]
        by_utility = self._by_utility(flat, utility)
        ordering = (
            by_utility if type(self.policy) is UtilPolicy else np.arange(flat.size)
        )
        affordable = self._budgets(group) // size if size else counts
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


class TestRowsScoredPerRound:
    """What a baseline round hands the decay kernel and the delivery sort:
    FIFO the rows it delivers, UTIL the queues of members that afford an
    item, and a round nobody can afford nothing at all."""

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
        engine = make_engine(
            _columns(streams, budgets), MethodSpec(method, 2),
            ExperimentConfig(seed=31, weekly_budget_mb=budgets[0]), duration,
        )
        users = engine.cohort.n_users
        delivered_before = 0
        idle_rounds = partial_rounds = total_scored = total_queued = 0
        for _ in engine.times:
            scored["decay"].clear()
            scored["sort"].clear()
            result = engine.run(limit_rounds=1)
            fresh = result.delivered[delivered_before:]
            delivered_before = len(result.delivered)
            delivered = np.bincount(fresh["user"], minlength=users)
            # The queue selection saw: what is left plus what just left it.
            queued = result.final_queue_length + delivered
            total_queued += queued.sum()
            if not fresh.size:
                idle_rounds += queued.sum() > 0
                assert scored == {"decay": [], "sort": []}
                continue
            expected = fresh.size if method is Method.FIFO else queued[delivered > 0].sum()
            assert sum(scored["decay"]) == sum(scored["sort"]) == expected
            partial_rounds += expected < queued.sum()
            total_scored += expected
        # Not vacuous: rounds with a backlog and nothing affordable, rounds
        # in which members with a queue scored nothing, and a run that
        # scores a fraction of the queued rows it carries.
        assert idle_rounds >= 3
        assert partial_rounds >= 10
        assert 4 * total_scored < total_queued
