"""Tests for the persistent sweep-scale execution engine.

The contract under test (DESIGN.md §10): the pool is a pure performance
optimization -- every aggregate, per-user outcome and delivery sequence
must be bit-identical to the sequential runner, with only the workload
shards and score map crossing the process boundary (once, at init).
"""

import multiprocessing
import os
import pickle

import pytest

import repro.experiments.pool as pool_module
from repro.core.content import ContentKind
from repro.core.multifeed import FeedCadences
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.metrics import MetricsAccumulator, aggregate
from repro.experiments.pool import ExperimentPool, sweep_budgets_parallel
from repro.experiments.runner import (
    UtilityAnnotations,
    run_experiment,
    run_user,
    sweep_budgets,
)
from repro.experiments.shards import balanced_batches, shard_by_user
from repro.experiments.workloads import eval_workload
from repro.runtime.loop import RoundLoop
from repro.sim.faults import FaultConfig

ALL_SPECS = [
    MethodSpec(Method.RICHNOTE),
    MethodSpec(Method.FIFO, 2),
    MethodSpec(Method.UTIL, 3),
]

#: Crash-injection plumbing for TestPoolRecovery.  Module-level (not
#: fixture-local) so fork-started workers can unpickle the function by
#: qualified name; the sentinel dict is populated by the test before the
#: pool forks, so children inherit the path.
_CRASH_SENTINEL = {"path": ""}
_real_run_cell_batch = pool_module._run_cell_batch


def _crash_once_batch(spec, config, user_ids, digest_deliveries):
    """Worker-side stand-in: the first worker to claim the sentinel dies.

    ``open(..., "x")`` is atomic, so exactly one process across the
    pool's whole lifetime hard-exits mid-batch; everyone else (including
    the rebuilt pool's workers) runs the real batch.
    """
    try:
        with open(_CRASH_SENTINEL["path"], "x"):
            pass
    except FileExistsError:
        return _real_run_cell_batch(spec, config, user_ids, digest_deliveries)
    os._exit(1)


#: ``RoundLoop.run_round`` calls counted across processes (TestEngineDispatch):
#: one appended byte per call, through a path forked workers inherit.
_ROUND_LOG = {"path": ""}
_real_run_round = RoundLoop.run_round


def _logged_run_round(loop, now, round_seconds):
    with open(_ROUND_LOG["path"], "a") as log:
        log.write(".")
    return _real_run_round(loop, now, round_seconds)


@pytest.fixture(scope="module")
def workload():
    return eval_workload("small")


@pytest.fixture(scope="module")
def annotations(workload):
    return UtilityAnnotations.train(workload, seed=7)


@pytest.fixture(scope="module")
def users(workload):
    return workload.top_users(6)


@pytest.fixture(scope="module")
def pool(workload, annotations, users):
    with ExperimentPool(
        workload, annotations=annotations, user_ids=users, max_workers=2
    ) as shared:
        yield shared


class TestPoolParity:
    """Parallel == sequential, bit for bit, for all three policies."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_cell_matches_sequential_exactly(
        self, workload, annotations, users, pool, spec
    ):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        sequential = run_experiment(workload, spec, config, annotations, users)
        parallel = pool.run_cell(spec, config, digest_deliveries=True)

        # Aggregates are equal as dataclasses: exact float equality.
        assert parallel.aggregate == sequential.aggregate
        # Per-user outcomes come back in the sequential fold order with
        # identical metrics ...
        assert [o.metrics.user_id for o in parallel.per_user] == [
            o.metrics.user_id for o in sequential.per_user
        ]
        for mine, twin in zip(parallel.per_user, sequential.per_user):
            assert mine.metrics == twin.metrics
            assert mine.mean_backlog_bytes == twin.mean_backlog_bytes
            assert mine.max_queue_length == twin.max_queue_length
        # ... and every delivery *sequence* digests identically.
        by_user = shard_by_user(workload.records, users)
        duration = workload.config.duration_hours * 3600.0
        for outcome in parallel.per_user:
            user_id = outcome.metrics.user_id
            twin = run_user(
                user_id, by_user[user_id], spec, config, annotations,
                duration, digest_deliveries=True,
            )
            assert outcome.delivery_digest == twin.delivery_digest

    def test_sweep_grid_matches_sequential(self, workload, annotations, users):
        config = ExperimentConfig(seed=7)
        budgets = (2.0, 10.0)
        sequential = sweep_budgets(
            workload, ALL_SPECS, budgets, config, annotations, users
        )
        parallel = sweep_budgets_parallel(
            workload, ALL_SPECS, budgets, config, annotations, users,
            max_workers=2,
        )
        assert set(parallel) == set(sequential)
        for key in sequential:
            assert parallel[key].aggregate == sequential[key].aggregate

    def test_streaming_mode_keeps_summary_not_outcomes(
        self, workload, annotations, users, pool
    ):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        spec = MethodSpec(Method.RICHNOTE)
        streamed = pool.run_cell(spec, config, keep_per_user=False)
        kept = pool.run_cell(spec, config, keep_per_user=True)
        assert streamed.per_user == []
        assert streamed.aggregate == kept.aggregate
        assert streamed.summary is not None
        assert streamed.mean_backlog_bytes == kept.mean_backlog_bytes
        assert streamed.failures.attempts == kept.failures.attempts


class TestPoolBoundary:
    """What crosses the process boundary after init: kilobytes, no records."""

    def test_cell_payload_excludes_records(self, pool):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        payload = pool.cell_payload(MethodSpec(Method.RICHNOTE), config)
        assert b"NotificationRecord" not in payload
        assert b"trace.records" not in payload
        assert len(payload) < 8_192

    def test_no_simulatable_users_rejected(self, workload, annotations):
        with pytest.raises(ValueError, match="no users"):
            ExperimentPool(
                workload, annotations=annotations, user_ids=[10**9]
            )

    def test_duplicate_cells_rejected(self, pool):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        spec = MethodSpec(Method.RICHNOTE)
        with pytest.raises(ValueError, match="duplicate cell"):
            pool.run_cells([(spec, config), (spec, config)])

    def test_method_spec_and_config_pickle_roundtrip(self):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        spec = MethodSpec(Method.UTIL, fixed_level=3)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert pickle.loads(pickle.dumps(config)) == config


HOURLY_FEEDS = FeedCadences(
    base_period=3600.0,
    periods={
        ContentKind.FRIEND_FEED: 3600.0,
        ContentKind.ALBUM_RELEASE: 6 * 3600.0,
        ContentKind.PLAYLIST_UPDATE: 6 * 3600.0,
    },
)


class TestEngineDispatch:
    """``runner.run_users`` is where the engine is chosen, for every entry
    point: the columnar engine (no ``RoundLoop`` round at all) on a config
    it supports, the scalar loop under faults or feed cadences -- and the
    outcomes are a plain ``run_user`` fold either way."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the round counter patches a forked class attribute",
    )
    @pytest.mark.parametrize(
        "overrides,scalar",
        [
            ({}, False),
            ({"faults": FaultConfig(p_disconnect=0.2)}, True),
            ({"feed_cadences": HOURLY_FEEDS}, True),
        ],
        ids=["default", "faults", "feed-cadences"],
    )
    def test_entry_points_pick_the_engine(
        self, workload, annotations, users, tmp_path, monkeypatch,
        overrides, scalar,
    ):
        spec = MethodSpec(Method.RICHNOTE)
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7, **overrides)
        by_user = shard_by_user(workload.records, users)
        duration = workload.config.duration_hours * 3600.0
        reference = [
            run_user(
                user_id, by_user[user_id], spec, config, annotations, duration
            )
            for user_id in users
        ]
        log = tmp_path / "rounds"
        _ROUND_LOG["path"] = str(log)
        monkeypatch.setattr(RoundLoop, "run_round", _logged_run_round)

        def run_pool_cell():
            with ExperimentPool(
                workload, annotations=annotations, user_ids=users, max_workers=2
            ) as fresh:
                return fresh.run_cell(spec, config)

        for run in (
            lambda: run_experiment(workload, spec, config, annotations, users),
            lambda: sweep_budgets(
                workload, [spec], (5.0,), config, annotations, users
            )[(spec.label, 5.0)],
            run_pool_cell,
        ):
            log.write_text("")
            result = run()
            assert (log.stat().st_size > 0) == scalar
            assert result.per_user == reference
            assert result.aggregate == aggregate([o.metrics for o in reference])


class TestPoolRecovery:
    """A worker killed mid-batch must not kill the sweep (ISSUE: OOM-killed
    workers poisoning the executor)."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection patches a forked module global",
    )
    def test_broken_pool_rebuilds_once_and_folds_identically(
        self, workload, annotations, users, tmp_path, monkeypatch
    ):
        _CRASH_SENTINEL["path"] = str(tmp_path / "crashed-once")
        monkeypatch.setattr(pool_module, "_run_cell_batch", _crash_once_batch)
        spec = MethodSpec(Method.RICHNOTE)
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        with ExperimentPool(
            workload,
            annotations=annotations,
            user_ids=users,
            max_workers=2,
        ) as fresh:
            result = fresh.run_cell(spec, config)
            assert fresh.worker_restarts == 1
        # The retried batches replay the same resident shards with the
        # same seeds: aggregates stay bit-identical to sequential.
        sequential = run_experiment(workload, spec, config, annotations, users)
        assert result.aggregate == sequential.aggregate
        assert [o.metrics.user_id for o in result.per_user] == [
            o.metrics.user_id for o in sequential.per_user
        ]

    def test_clean_run_reports_zero_restarts(self, pool):
        assert pool.worker_restarts == 0


class TestBalancedBatches:
    def test_partitions_completely_and_disjointly(self):
        costs = {user: (user * 37) % 11 + 1 for user in range(100)}
        batches = balanced_batches(costs, 7)
        assert len(batches) == 7
        flat = [user for batch in batches for user in batch]
        assert sorted(flat) == sorted(costs)
        assert len(flat) == len(set(flat))

    def test_deterministic(self):
        costs = {user: (user * 13) % 29 + 1 for user in range(50)}
        assert balanced_batches(costs, 4) == balanced_batches(costs, 4)
        # Insertion order of the mapping must not matter.
        shuffled = dict(sorted(costs.items(), key=lambda kv: -kv[0]))
        assert balanced_batches(shuffled, 4) == balanced_batches(costs, 4)

    def test_balances_loads(self):
        costs = {user: 1 for user in range(40)}
        batches = balanced_batches(costs, 4)
        assert [len(batch) for batch in batches] == [10, 10, 10, 10]
        # One giant user does not drag equal-cost peers into its batch.
        costs[99] = 1000
        batches = balanced_batches(costs, 4)
        giant = next(batch for batch in batches if 99 in batch)
        assert giant == [99]

    def test_more_batches_than_users_collapses(self):
        assert balanced_batches({1: 5, 2: 3}, 10) == [[1], [2]]
        assert balanced_batches({}, 3) == []

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError, match="n_batches"):
            balanced_batches({1: 1}, 0)


class TestShardByUser:
    def test_preserves_record_order_and_covers_all_users(self, workload):
        users = workload.top_users(5)
        shards = shard_by_user(workload.records, users)
        assert set(shards) == set(users)
        for user_id, records in shards.items():
            assert records == workload.records_for_user(user_id)
            times = [r.timestamp for r in records]
            assert times == sorted(times)

    def test_requested_user_without_records_gets_empty_shard(self, workload):
        shards = shard_by_user(workload.records, [10**9])
        assert shards == {10**9: []}


class TestMetricsAccumulator:
    def test_streaming_fold_equals_batch_aggregate(
        self, workload, annotations, users
    ):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        result = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations, users
        )
        accumulator = MetricsAccumulator()
        for outcome in result.per_user:
            accumulator.add(outcome.metrics)
        assert accumulator.result() == aggregate(
            [o.metrics for o in result.per_user]
        )

    def test_empty_fold_rejected(self):
        with pytest.raises(ValueError, match="no user metrics"):
            MetricsAccumulator().result()
