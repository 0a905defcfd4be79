"""Tests for the persistent sweep-scale execution engine.

The contract under test (DESIGN.md §10): the pool is a pure performance
optimization -- every aggregate, per-user outcome and delivery sequence
must be bit-identical to the sequential runner, with only a shard-store
path and score map crossing the process boundary (once, at init) and the
temporary store gone when the pool is.
"""

import multiprocessing
import os
import pickle
import re
import tempfile
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

import repro.experiments.pool as pool_module
from repro.experiments.config import (
    PAPER_BUDGET_SWEEP_MB,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.figures import paper_method_specs
from repro.experiments.metrics import MetricsAccumulator, aggregate
from repro.experiments.pool import (
    ExperimentPool,
    WorkerPoolBroken,
    available_cores,
    run_store_columnar_parallel,
    sweep_budgets_parallel,
)
from repro.experiments.runner import (
    UtilityAnnotations,
    run_experiment,
    run_user,
    shard_by_user,
    sweep_budgets,
)
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
_real_run_range = pool_module._run_range


def _crash_once_range(cells, config, start, stop, digest_deliveries):
    """Worker-side stand-in: the first worker to claim the sentinel dies.

    ``open(..., "x")`` is atomic, so exactly one process across the
    pool's whole lifetime hard-exits mid-range; everyone else (including
    the rebuilt pool's workers) runs the real range.
    """
    try:
        with open(_CRASH_SENTINEL["path"], "x"):
            pass
    except FileExistsError:
        return _real_run_range(cells, config, start, stop, digest_deliveries)
    os._exit(1)


def _crash_always_range(cells, config, start, stop, digest_deliveries):
    """Worker-side stand-in: every claim of a task kills its worker."""
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

    @pytest.mark.parametrize("entry", [sweep_budgets, sweep_budgets_parallel])
    def test_duplicate_budgets_rejected_before_any_work(
        self, workload, annotations, users, entry, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the budgets were checked")

        monkeypatch.setattr(pool_module, "ExperimentPool", no_work)
        monkeypatch.setattr("repro.experiments.runner.sweep_users", no_work)
        with pytest.raises(ValueError, match="duplicate budget"):
            entry(
                workload, ALL_SPECS, (10.0, 2.0, 10.0), ExperimentConfig(seed=7),
                annotations, users,
            )

    @pytest.mark.parametrize("entry", [sweep_budgets, sweep_budgets_parallel])
    def test_duplicate_specs_rejected_before_any_work(
        self, workload, users, entry, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the specs were checked")

        monkeypatch.setattr(pool_module, "ExperimentPool", no_work)
        monkeypatch.setattr("repro.experiments.runner.sweep_users", no_work)
        monkeypatch.setattr(UtilityAnnotations, "train", no_work)
        fifo = MethodSpec(Method.FIFO, 2)
        with pytest.raises(ValueError, match="duplicate spec 'FIFO-L2'"):
            entry(
                workload, [fifo, MethodSpec(Method.UTIL, 3), fifo], (5.0,),
                ExperimentConfig(seed=7), None, users,
            )

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
        assert streamed.failures == kept.failures

    def test_streamed_fault_ledger_is_the_sequential_merge(
        self, workload, annotations, users, pool
    ):
        """Under faults the pool's cell state merges each user's engine
        ledger in store order: the streamed summary, the kept outcomes
        and the in-process run hold the same ledger, bit for bit."""
        config = ExperimentConfig(
            weekly_budget_mb=5.0, seed=7, faults=FaultConfig(p_disconnect=0.2)
        )
        spec = MethodSpec(Method.RICHNOTE)
        streamed = pool.run_cell(spec, config, keep_per_user=False)
        kept = pool.run_cell(spec, config, keep_per_user=True)
        sequential = run_experiment(workload, spec, config, annotations, users)
        assert streamed.failures.failed_attempts > 0
        assert streamed.failures == kept.failures == sequential.failures


class TestBudgetGroups:
    """A task is (engine pass, store range): cells whose configs differ only
    in the budget, each RichNote spec alone and every FIFO/UTIL spec
    together."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        """The task list of every ``_WorkerPool.run`` call, as submitted."""
        calls = []
        real_run = pool_module._WorkerPool.run

        def recording_run(self, tasks, *rest):
            calls.append(tasks)
            return real_run(self, tasks, *rest)

        monkeypatch.setattr(pool_module._WorkerPool, "run", recording_run)
        return calls

    def test_paper_grid_submits_one_task_per_group_batch(
        self, workload, annotations, users, submitted
    ):
        specs = paper_method_specs()
        grid = sweep_budgets_parallel(
            workload, specs, PAPER_BUDGET_SWEEP_MB, ExperimentConfig(seed=7),
            annotations, users, max_workers=2, keep_per_user=False,
        )
        assert len(grid) == len(specs) * len(PAPER_BUDGET_SWEEP_MB) == 35
        (tasks,) = submitted
        # Two passes on two workers: one range each, never one task per
        # cell or per policy.
        assert len(tasks) == 2
        assert [{spec.method for spec, _ in task[0]} for task in tasks] == [
            {Method.RICHNOTE}, {Method.FIFO, Method.UTIL},
        ]
        submitted_cells = [cell for task in tasks for cell in task[0]]
        assert len(submitted_cells) == 35
        assert set(submitted_cells) == {
            (spec, budget) for spec in specs for budget in PAPER_BUDGET_SWEEP_MB
        }
        for task in tasks:
            assert task[2:4] == (0, len(users))

    def test_mixed_submission_merges_on_the_budget_alone(
        self, workload, annotations, users, pool, submitted
    ):
        richnote, util = MethodSpec(Method.RICHNOTE), MethodSpec(Method.UTIL, 3)
        fifo = MethodSpec(Method.FIFO, 2)
        base = ExperimentConfig(seed=7)
        markov = replace(base, network_mode=NetworkMode.MARKOV)
        cells = [
            (richnote, base.with_budget(2.0)),
            (richnote, markov.with_budget(5.0)),
            (util, base.with_budget(2.0)),
            (richnote, base.with_v(10.0).with_budget(10.0)),
            (richnote, base.with_budget(20.0)),
            (fifo, base.with_budget(5.0)),
            (richnote, markov.with_budget(50.0)),
        ]
        grid = pool.run_cells(cells)
        (tasks,) = submitted
        per_pass = {
            (tuple((spec.label, budget) for spec, budget in t[0]),
             t[1].network_mode, t[1].lyapunov_v)
            for t in tasks
        }
        assert per_pass == {
            ((("RichNote", 2.0), ("RichNote", 20.0)), NetworkMode.CELL_ONLY, 1000.0),
            ((("RichNote", 5.0), ("RichNote", 50.0)), NetworkMode.MARKOV, 1000.0),
            ((("UTIL-L3", 2.0), ("FIFO-L2", 5.0)), NetworkMode.CELL_ONLY, 1000.0),
            ((("RichNote", 10.0),), NetworkMode.CELL_ONLY, 10.0),
        }
        # Four passes on two workers: one whole-store range each.
        assert len(tasks) == 4
        assert {task[2:4] for task in tasks} == {(0, len(users))}
        assert list(grid) == [(spec.label, c.weekly_budget_mb) for spec, c in cells]
        for spec, config in cells:
            result = grid[(spec.label, config.weekly_budget_mb)]
            sequential = run_experiment(workload, spec, config, annotations, users)
            assert result.config == config
            assert result.aggregate == sequential.aggregate
            assert result.per_user == sequential.per_user

    def test_cell_payload_is_the_submitted_task(self, users, pool, submitted):
        spec = MethodSpec(Method.UTIL, 3)
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        pool.run_cell(spec, config)
        (tasks,) = submitted
        # One pass on two workers: the pool's two ranges.
        assert len(tasks) == len(pool.batches) == 2
        assert pool.batches[0][0] == 0 and pool.batches[-1][1] == len(users)
        for index, task in enumerate(tasks):
            assert pool.cell_payload(spec, config, batch_index=index) == pickle.dumps(
                task, protocol=pickle.HIGHEST_PROTOCOL
            )


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

    def test_initializer_payload_excludes_records(self, workload, users, pool):
        """Not even at start: the initializer ships a store path, the score
        map of the pool's records and the duration."""
        payload = pickle.dumps(
            pool._workers._initargs, protocol=pickle.HIGHEST_PROTOCOL
        )
        assert b"NotificationRecord" not in payload
        assert b"trace.records" not in payload
        n_records = sum(len(workload.records_for_user(u)) for u in users)
        assert len(payload) < 24 * n_records + 1_024

    def test_method_spec_and_config_pickle_roundtrip(self):
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=7)
        spec = MethodSpec(Method.UTIL, fixed_level=3)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert pickle.loads(pickle.dumps(config)) == config


class TestEngineDispatch:
    """``runner.sweep_users`` is where the engine is chosen, for every entry
    point: the columnar engine (no ``RoundLoop`` round at all) on a config
    it supports, the scalar loop under faults -- and the
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
        ],
        ids=["default", "faults"],
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
        monkeypatch.setattr(pool_module, "_run_range", _crash_once_range)
        spec = MethodSpec(Method.RICHNOTE)
        config = ExperimentConfig(seed=7)
        budgets = (2.0, 5.0)
        with ExperimentPool(
            workload,
            annotations=annotations,
            user_ids=users,
            max_workers=2,
        ) as fresh:
            grid = fresh.run_cells(
                [(spec, config.with_budget(budget)) for budget in budgets]
            )
            assert fresh.worker_restarts == 1
        # The retried ranges replay the same store with the same seeds:
        # every budget of the retried pass stays bit-identical to
        # sequential.
        for budget in budgets:
            result = grid[(spec.label, budget)]
            sequential = run_experiment(
                workload, spec, config.with_budget(budget), annotations, users
            )
            assert result.aggregate == sequential.aggregate
            assert [o.metrics.user_id for o in result.per_user] == [
                o.metrics.user_id for o in sequential.per_user
            ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection patches a forked module global",
    )
    def test_second_break_propagates(
        self, workload, annotations, users, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "_run_range", _crash_always_range)
        with ExperimentPool(
            workload, annotations=annotations, user_ids=users, max_workers=2
        ) as fresh:
            with pytest.raises(WorkerPoolBroken) as broken:
                fresh.run_cell(
                    MethodSpec(Method.RICHNOTE),
                    ExperimentConfig(weekly_budget_mb=5.0, seed=7),
                )
            assert fresh.worker_restarts == 1
        # Typed, yet still what existing ``except BrokenProcessPool`` catches;
        # the message names the range whose future surfaced the break.
        assert isinstance(broken.value, BrokenProcessPool)
        assert isinstance(broken.value.__cause__, BrokenProcessPool)
        message = str(broken.value)
        assert "cells [RichNote at 5.0 MB], store positions [" in message
        assert any(
            f"store positions [{start}, {stop}), with" in message
            for start, stop in fresh.batches
        )
        assert re.search(rf"with [1-9]\d* of {len(fresh.batches)} tasks unfinished", message)

    def test_clean_run_reports_zero_restarts(self, pool):
        assert pool.worker_restarts == 0


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


#: Every pool entry point with a worker count: (argument name, call).
WORKER_ENTRIES = {
    "ExperimentPool": ("max_workers", lambda workload, users, n: ExperimentPool(
        workload, user_ids=users, max_workers=n,
    )),
    "sweep_budgets_parallel": ("max_workers", lambda workload, users, n: (
        sweep_budgets_parallel(
            workload, ALL_SPECS, (5.0,), ExperimentConfig(seed=7), None, users,
            max_workers=n,
        )
    )),
    "run_store_columnar_parallel": ("workers", lambda workload, users, n: (
        run_store_columnar_parallel(
            "no-such-store", MethodSpec(Method.RICHNOTE), ExperimentConfig(seed=7),
            3600.0, workers=n,
        )
    )),
}


class TestWorkerCount:
    """One rule on every entry point: ``None`` is every available core, a
    count below 1 a ``ValueError`` naming the argument, raised before any
    training, store read or write, or fork."""

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("entry", sorted(WORKER_ENTRIES))
    def test_count_below_one_rejected_before_any_work(
        self, workload, users, monkeypatch, entry, count
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the worker count was checked")

        monkeypatch.setattr(UtilityAnnotations, "train", no_work)
        for name in ("write_shard_store", "TraceShardStore", "ProcessPoolExecutor"):
            monkeypatch.setattr(pool_module, name, no_work)
        argument, call = WORKER_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{argument} must be >= 1 .*got {count}$"):
            call(workload, users, count)

    def test_none_is_every_available_core(self, workload, annotations, users):
        with ExperimentPool(
            workload, annotations=annotations, user_ids=users
        ) as fresh:
            assert fresh.max_workers == available_cores()


class TestStoreLifetime:
    """The pool's temporary shard store never outlives the pool."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        """Where the pool's store goes: empty again once the pool is gone."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def _pool(self, workload, annotations, users):
        return ExperimentPool(
            workload, annotations=annotations, user_ids=users, max_workers=2
        )

    def test_gone_after_a_clean_with(self, workload, annotations, users, temp_root):
        with self._pool(workload, annotations, users) as fresh:
            (store,) = temp_root.iterdir()
            assert (store / "index.json").exists()
            fresh.run_cell(
                MethodSpec(Method.RICHNOTE),
                ExperimentConfig(weekly_budget_mb=5.0, seed=7),
            )
        assert list(temp_root.iterdir()) == []

    def test_gone_after_an_exception_in_the_with(
        self, workload, annotations, users, temp_root
    ):
        with pytest.raises(RuntimeError, match="inside the pool"):
            with self._pool(workload, annotations, users):
                assert len(list(temp_root.iterdir())) == 1
                raise RuntimeError("inside the pool")
        assert list(temp_root.iterdir()) == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection patches a forked module global",
    )
    def test_gone_after_worker_pool_broken(
        self, workload, annotations, users, temp_root, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "_run_range", _crash_always_range)
        with pytest.raises(WorkerPoolBroken):
            with self._pool(workload, annotations, users) as fresh:
                fresh.run_cell(
                    MethodSpec(Method.RICHNOTE),
                    ExperimentConfig(weekly_budget_mb=5.0, seed=7),
                )
        assert list(temp_root.iterdir()) == []

    def test_gone_when_construction_fails_after_the_write(
        self, workload, annotations, users, temp_root, monkeypatch
    ):
        def refuse(*args, **kwargs):
            (store,) = temp_root.iterdir()
            assert (store / "index.json").exists()
            raise OSError("the executor refused to start")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        with pytest.raises(OSError, match="refused to start"):
            self._pool(workload, annotations, users)
        assert list(temp_root.iterdir()) == []


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
