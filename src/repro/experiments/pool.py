"""Persistent sweep-scale execution engine (Section V-C's backend).

The paper argues RichNote "can potentially scale to a much larger user
base using a backend parallel platform since our solution can work in
rounds and independently for each user".  Users are the shards, and a
:class:`~repro.trace.io.TraceShardStore` is where they live: every pool
run reads one store.  Two entry points:

* :class:`ExperimentPool` / :func:`sweep_budgets_parallel` -- a workload
  held in memory.  Construction writes the selected users to a temporary
  store (canonical fold order) and deletes it in :meth:`~ExperimentPool.shutdown`.
* :func:`run_store_columnar_parallel` -- a population already on disk:
  the caller's store.

Both start one :class:`_WorkerPool`.  Its initializer ships ``(store
path, scores or None, duration)`` -- never a record, and the scores as a
:class:`~repro.experiments.runner.ScoreTable` (two arrays, 16 bytes a
record), never a per-record map; workers memory-map
the store and read its pages through the shared page cache.  The pool
has **one task**, :func:`_run_range`: ``(pass cells, config, start,
stop, digest_deliveries)``, a cell being a ``(MethodSpec, budget)`` pair
-- kilobytes.  It takes store positions ``[start, stop)`` as lazy
:class:`~repro.trace.io.RecordsView` s and hands them, with the cells of
one engine pass, to :func:`repro.experiments.runner.sweep_users` -- the
dispatch the sequential runner uses, so a range runs its cells as one
pass over one columnar cohort (or, under fault injection, cell by cell
and user by user on ``run_user``).

What makes it a system rather than a ``map``:

* **One split rule** -- an engine pass, nearly flat in its row count, is
  the unit of work: each RichNote spec's budget column is one pass and
  every FIFO/UTIL cell shares another
  (:func:`repro.experiments.runner.spec_passes`).  A submission splits
  the store into ``ceil(workers / n_passes)`` contiguous, record-balanced
  ranges (:func:`_contiguous_ranges`), so users are split only as far as
  giving every worker a task needs (the paper grid on two workers: one
  range, two tasks).
* **Whole-grid scheduling** -- all (pass, range) tasks of a submission go
  onto the pool at once; workers drain one queue, no per-cell barrier.
* **One streamed fold** -- each cell's :class:`_CellState` folds ranges
  in start order (store order) into a
  :class:`~repro.experiments.metrics.MetricsAccumulator` as they arrive,
  holding only the out-of-order ranges (and the per-user list only with
  ``keep_per_user=True``).
* **Worker death** -- a killed worker breaks the whole executor; the pool
  rebuilds it once per run from the initializer payload and resubmits
  what was outstanding.  A second break raises :class:`WorkerPoolBroken`,
  naming the task that surfaced it.

Determinism: every user's simulation is seeded independently of
scheduling order (see :func:`repro.trace.generator.stream_seed`),
per-user outcomes do not depend on which users share a cohort, and the
fold follows store order whatever order ranges complete in -- float
summation order is preserved, so aggregates and per-user delivery
digests are bit-identical to
:func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tempfile
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.delivery import DeliveryStats
from repro.experiments.columnar import supports
from repro.experiments.config import ExperimentConfig, MethodSpec
from repro.experiments.metrics import MetricsAccumulator
from repro.experiments.runner import (
    Cell,
    CellSummary,
    ExperimentResult,
    ScoreTable,
    UserRunOutcome,
    UtilityAnnotations,
    distinct_budgets,
    distinct_specs,
    shard_by_user,
    spec_passes,
    sweep_users,
)
from repro.trace.generator import Workload
from repro.trace.io import TraceShardStore, shard_columns, write_shard_store
from repro.trace.records import NotificationRecord

__all__ = [
    "ExperimentPool",
    "WorkerPoolBroken",
    "available_cores",
    "oracle_scores",
    "run_store_columnar_parallel",
    "sweep_budgets_parallel",
]


def available_cores() -> int:
    """CPU cores this process may actually run on.

    Respects the scheduling affinity mask (containers and ``taskset``
    commonly grant fewer cores than the machine has), falling back to
    :func:`os.cpu_count` on platforms without ``sched_getaffinity``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or (os.cpu_count() or 1)
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def _worker_count(workers: int | None, name: str) -> int:
    """``None`` is :func:`available_cores`; a count below 1 is refused."""
    if workers is None:
        return available_cores()
    if workers < 1:
        raise ValueError(
            f"{name} must be >= 1 (or None for every available core), got {workers}"
        )
    return workers


def oracle_scores(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
) -> ScoreTable:
    """Oracle content-utility annotations for a record batch, as a
    :class:`~repro.experiments.runner.ScoreTable` built from the batch's
    id and clicked columns, the only two it reads
    (:func:`~repro.trace.io.shard_columns`; no Python object per record).

    The bench-standard labeling (clicked items are worth 0.9, the rest
    0.1).  Pure per-record, so any partition of the same records produces
    the same scores -- workers can derive their own slice locally instead
    of receiving a population-wide table through the initializer.
    """
    names = ("notification_id", "clicked")
    parts = [shard_columns(records, names) for _, records in user_records]
    parts.append(shard_columns((), names))  # np.concatenate needs one array
    item_ids, clicked = (np.concatenate(column) for column in zip(*parts))
    return ScoreTable(item_ids, np.where(clicked, 0.9, 0.1))


# -- worker side ---------------------------------------------------------------

@dataclass
class _WorkerState:
    """Everything a worker holds for the lifetime of the pool.

    The store is memory-mapped on first use, so record bytes reach the
    worker through the shared page cache.  ``scores=None`` makes the
    worker derive the oracle scores of each range it runs
    (:func:`oracle_scores`), so population-scale runs ship no score map.
    """

    store_path: str
    scores: ScoreTable | None
    duration_seconds: float
    store: TraceShardStore | None = None

    def run(
        self,
        cells: Sequence[Cell],
        config: ExperimentConfig,
        start: int,
        stop: int,
        digest_deliveries: bool,
    ) -> list[list[UserRunOutcome]]:
        """Store positions ``[start, stop)`` in every cell of one pass: one
        outcome list per cell, in store order."""
        if self.store is None:
            self.store = TraceShardStore(self.store_path)
        user_records = [
            (int(self.store.user_ids[position]), self.store.records_at(position))
            for position in range(start, stop)
        ]
        scores = self.scores if self.scores is not None else oracle_scores(user_records)
        return sweep_users(
            user_records,
            cells,
            config,
            UtilityAnnotations(scores=scores),
            self.duration_seconds,
            digest_deliveries=digest_deliveries,
        )


_WORKER: _WorkerState | None = None


def _init_worker(
    store_path: str, scores: ScoreTable | None, duration_seconds: float
) -> None:
    """Pool initializer: receive the shared state exactly once."""
    global _WORKER
    _WORKER = _WorkerState(store_path, scores, duration_seconds)


def _task(
    cells: Sequence[Cell],
    config: ExperimentConfig,
    start: int,
    stop: int,
    digest_deliveries: bool,
) -> tuple:
    """The arguments of one :func:`_run_range` task, as shipped."""
    return (tuple(cells), config, start, stop, digest_deliveries)


def _run_range(
    cells: Sequence[Cell],
    config: ExperimentConfig,
    start: int,
    stop: int,
    digest_deliveries: bool,
) -> list[list[UserRunOutcome]]:
    """The pool's one task: :meth:`_WorkerState.run` on the worker's state."""
    if _WORKER is None:
        raise RuntimeError(
            "worker not initialized; _run_range must run inside a pool worker"
        )
    return _WORKER.run(cells, config, start, stop, digest_deliveries)


# -- parent side ---------------------------------------------------------------


class WorkerPoolBroken(BrokenProcessPool):
    """Workers died twice in one pool run; the message names the task."""


def _contiguous_ranges(
    counts: Sequence[int] | np.ndarray, n_ranges: int
) -> list[tuple[int, int]]:
    """Split store positions into contiguous, record-balanced ranges.

    ``counts[p]`` is the record count at store position ``p``.  Cuts land
    at the record-mass quantiles, clamped so every range keeps at least
    one position.  Contiguity matters twice: workers fault in disjoint
    runs of the memory-mapped columns (no interleaved page sharing), and
    the fold restores store order from range starts alone.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_positions = len(counts)
    if n_positions == 0:
        return []
    n_ranges = max(1, min(int(n_ranges), n_positions))
    cumulative = np.cumsum(counts)
    total = int(cumulative[-1])
    bounds = [0]
    for index in range(1, n_ranges):
        target = total * index / n_ranges
        cut = int(np.searchsorted(cumulative, target, side="left")) + 1
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, n_positions - (n_ranges - index))
        bounds.append(cut)
    bounds.append(n_positions)
    return [
        (bounds[index], bounds[index + 1]) for index in range(n_ranges)
    ]


class _CellState:
    """Order-correcting streamed fold of one cell's store ranges.

    Ranges complete in arbitrary order; this buffer holds only the
    out-of-order ones and folds a range the moment every position before
    it has folded, so float summation order -- and therefore the
    aggregate, bit for bit -- matches the sequential runner.
    """

    def __init__(
        self,
        spec: MethodSpec,
        config: ExperimentConfig,
        n_users: int,
        keep_per_user: bool,
    ) -> None:
        self.spec = spec
        self.config = config
        self._n_users = n_users
        #: Store position of the next user to fold.
        self._folded = 0
        #: start -> (stop, outcomes) of ranges waiting on an earlier one.
        self._pending: dict[int, tuple[int, Sequence[UserRunOutcome]]] = {}
        self._accumulator = MetricsAccumulator()
        self._failures = DeliveryStats()
        self._backlog_sum = 0.0
        self._max_queue = 0
        self._keep = keep_per_user
        self.per_user: list[UserRunOutcome] = []

    def add_range(
        self, start: int, stop: int, outcomes: Sequence[UserRunOutcome]
    ) -> None:
        self._pending[start] = (stop, outcomes)
        while self._folded in self._pending:
            self._folded, ready = self._pending.pop(self._folded)
            for outcome in ready:
                self._accumulator.add(outcome.metrics)
                self._failures.merge(outcome.failures)
                self._backlog_sum += outcome.mean_backlog_bytes
                self._max_queue = max(self._max_queue, outcome.max_queue_length)
            if self._keep:
                self.per_user.extend(ready)

    def result(self) -> ExperimentResult:
        if self._folded != self._n_users or self._pending:
            raise RuntimeError(
                f"cell {self.spec.label!r} incomplete: folded "
                f"{self._folded}/{self._n_users} users"
            )
        n = self._n_users
        summary = CellSummary(
            mean_backlog_bytes=self._backlog_sum / n if n else 0.0,
            max_queue_length=self._max_queue,
            failures=self._failures,
        )
        return ExperimentResult(
            spec=self.spec,
            config=self.config,
            aggregate=self._accumulator.result(),
            per_user=self.per_user,
            summary=summary,
        )


class _WorkerPool:
    """Worker processes over one shard store, surviving one death per run.

    ``counts[p]`` is the record count at store position ``p`` (the split
    rule's weights).  A worker killed by the OS (OOM, SIGKILL, segfault
    in a C extension) poisons the whole ``ProcessPoolExecutor``: every
    outstanding future raises ``BrokenProcessPool`` and the executor
    refuses new work.  The initializer payload still lives in the
    parent, so recovery is a new executor plus re-initialization.
    """

    def __init__(
        self,
        store_path: str,
        scores: ScoreTable | None,
        duration_seconds: float,
        counts: Sequence[int] | np.ndarray,
        max_workers: int,
    ) -> None:
        self.counts = np.asarray(counts)
        self.max_workers = max_workers
        self._initargs = (str(store_path), scores, duration_seconds)
        self.restarts = 0
        self._executor = self._start()

    def _start(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_worker,
            initargs=self._initargs,
        )

    def shutdown(self) -> None:
        self._executor.shutdown()

    def ranges(self, n_passes: int) -> list[tuple[int, int]]:
        """The split rule: ``ceil(workers / n_passes)`` ranges per pass."""
        return _contiguous_ranges(self.counts, math.ceil(self.max_workers / n_passes))

    def run_cells(
        self,
        cells: Sequence[tuple[MethodSpec, ExperimentConfig]],
        keep_per_user: bool,
        digest_deliveries: bool,
    ) -> dict[tuple[str, float], ExperimentResult]:
        """Group ``cells`` into engine passes, run every (pass, range) task
        and fold each cell through its own :class:`_CellState`."""
        states: dict[tuple[str, float], _CellState] = {}
        #: (first config, its cells); configs may be unhashable.
        groups: list[tuple[ExperimentConfig, list[Cell]]] = []
        for spec, config in cells:
            budget = config.weekly_budget_mb
            key = (spec.label, budget)
            if key in states:
                raise ValueError(f"duplicate cell {key!r} in one submission")
            states[key] = _CellState(spec, config, len(self.counts), keep_per_user)
            for first, members in groups:
                if config.with_budget(first.weekly_budget_mb) == first:
                    members.append((spec, budget))
                    break
            else:
                groups.append((config, [(spec, budget)]))
        passes = [
            ([cell for cell in members if cell[0] in specs], config)
            for config, members in groups
            for specs in spec_passes(list(dict.fromkeys(spec for spec, _ in members)))
        ]
        tasks = [
            _task(pass_cells, config, start, stop, digest_deliveries)
            for pass_cells, config in passes
            for start, stop in self.ranges(len(passes))
        ]
        self.run(tasks, states)
        return {key: state.result() for key, state in states.items()}

    def run(self, tasks: Sequence[tuple], states: dict[tuple[str, float], _CellState]) -> None:
        """Run :func:`_run_range` on every task, folding each into ``states``.

        Tasks are idempotent replays of the store: when a worker dies
        the executor is rebuilt -- once per run -- and every unfinished
        task is resubmitted, folding identically.  The break may surface
        on a future or on ``submit`` itself (the executor refuses new
        work once it knows a worker died); both count.  A second break
        in the same run raises :class:`WorkerPoolBroken` naming the task
        that surfaced it: the workload itself is crashing workers, not a
        transient kill.
        """
        queue = deque(tasks)
        pending: dict = {}
        restarted = False
        while queue or pending:
            try:
                while queue:
                    surfaced = queue[0]
                    future = self._executor.submit(_run_range, *surfaced)
                    pending[future] = queue.popleft()
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    surfaced = pending[future]
                    per_cell = future.result()
                    cells, _, start, stop, _ = pending.pop(future)
                    for (spec, budget), outcomes in zip(cells, per_cell):
                        states[(spec.label, budget)].add_range(start, stop, outcomes)
            except BrokenProcessPool as error:
                if restarted:
                    cells, _, start, stop, _ = surfaced
                    named = ", ".join(f"{spec.label} at {budget} MB" for spec, budget in cells)
                    raise WorkerPoolBroken(
                        f"a worker died again after the run's one restart; the "
                        f"break surfaced on cells [{named}], store positions "
                        f"[{start}, {stop}), with {len(queue) + len(pending)} of "
                        f"{len(tasks)} tasks unfinished"
                    ) from error
                restarted = True
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = self._start()
                self.restarts += 1
                queue.extendleft(reversed(pending.values()))
                pending = {}


def run_store_columnar_parallel(
    store_path: "str | os.PathLike",
    spec: MethodSpec,
    config: ExperimentConfig,
    duration_seconds: float,
    *,
    workers: int | None = None,
    annotations: UtilityAnnotations | None = None,
    digest_deliveries: bool = False,
) -> list[UserRunOutcome]:
    """Shard-parallel columnar execution straight off a trace shard store.

    One cell on a :class:`_WorkerPool` over the caller's store: the
    initializer ships the store *path*, tasks ship position ranges --
    never records.  Outcomes come back in store order, bit-identical to
    ``workers=1``, which runs the whole store as one range in-process.
    ``workers=None`` uses :func:`available_cores`; a count below 1 is a
    ``ValueError``.  A killed worker costs one executor restart; a second
    break raises :class:`WorkerPoolBroken`.

    ``annotations=None`` ships no scores at all; each worker derives
    :func:`oracle_scores` for its own ranges.
    """
    workers = _worker_count(workers, "workers")
    if not supports(config):
        raise ValueError(
            "columnar execution supports the paper-default pipeline only "
            "(no fault injection)"
        )
    store_path = str(store_path)
    with TraceShardStore(store_path) as store:
        counts = np.diff(store.offsets)
    if len(counts) == 0:
        raise ValueError(f"{store_path}: shard store holds no users")
    scores = annotations.scores if annotations is not None else None
    cells = [(spec, config.weekly_budget_mb)]
    if workers == 1:
        (outcomes,) = _WorkerState(store_path, scores, duration_seconds).run(
            cells, config, 0, len(counts), digest_deliveries
        )
        return outcomes
    pool = _WorkerPool(store_path, scores, duration_seconds, counts, workers)
    try:
        (result,) = pool.run_cells(
            [(spec, config)], keep_per_user=True, digest_deliveries=digest_deliveries
        ).values()
    finally:
        pool.shutdown()
    return result.per_user


class ExperimentPool:
    """A persistent worker pool amortizing workload shipping over a sweep.

    Construction trains (or adopts) the content-utility annotations,
    writes the simulatable users to a temporary shard store in canonical
    fold order and starts the process pool over it, shipping the store
    path and the scores of its records -- one lookup of their ids, a
    :class:`~repro.experiments.runner.ScoreTable` -- to each worker
    exactly once.
    Every :meth:`run_cell` / :meth:`run_cells` call submits only
    ``(cells, config, start, stop)`` tasks.  :attr:`batches` are the
    store ranges of a one-pass submission.

    Use as a context manager, or call :meth:`shutdown` explicitly: it
    stops the workers and deletes the store.
    """

    def __init__(
        self,
        workload: Workload,
        annotations: UtilityAnnotations | None = None,
        user_ids: Sequence[int] | None = None,
        max_workers: int | None = None,
        base_config: ExperimentConfig | None = None,
    ) -> None:
        self.max_workers = _worker_count(max_workers, "max_workers")
        base_config = base_config or ExperimentConfig()
        if annotations is None:
            annotations = UtilityAnnotations.train(
                workload,
                seed=base_config.seed,
                oracle=base_config.use_oracle_utility,
            )
        self.annotations = annotations
        users = list(user_ids) if user_ids is not None else workload.user_ids()
        by_user = shard_by_user(workload.records, users)
        #: Canonical fold order == the sequential runner's user order.
        self.sim_users = [u for u in users if by_user[u]]
        if not self.sim_users:
            raise ValueError("no users with notifications to simulate")
        ids = np.fromiter(
            (record.notification_id for user in self.sim_users for record in by_user[user]),
            dtype=np.int64,
        )
        scores = ScoreTable(ids, annotations.scores.lookup(ids))
        self.duration_seconds = workload.config.duration_hours * 3600.0
        self._directory = tempfile.mkdtemp(prefix="richnote-pool-")
        try:
            write_shard_store(self._directory, ((u, by_user[u]) for u in self.sim_users))
            self._workers = _WorkerPool(
                self._directory,
                scores,
                self.duration_seconds,
                [len(by_user[u]) for u in self.sim_users],
                self.max_workers,
            )
        except BaseException:
            shutil.rmtree(self._directory, ignore_errors=True)
            raise
        self.batches = self._workers.ranges(1)

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ExperimentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        try:
            self._workers.shutdown()
        finally:
            shutil.rmtree(self._directory, ignore_errors=True)

    @property
    def worker_restarts(self) -> int:
        """Executor rebuilds after a worker death, over the pool's lifetime."""
        return self._workers.restarts

    # -- introspection ---------------------------------------------------------

    def cell_payload(
        self,
        spec: MethodSpec,
        config: ExperimentConfig,
        batch_index: int = 0,
        digest_deliveries: bool = False,
    ) -> bytes:
        """The exact pickled argument payload of one cell's task on range
        ``batch_index`` (what :meth:`run_cell` submits for that range).

        Exposed so benchmarks can assert the post-init process-boundary
        cost: registry keys, a config, budgets and two store positions --
        never the notification records.
        """
        task = _task(
            [(spec, config.weekly_budget_mb)], config, *self.batches[batch_index],
            digest_deliveries,
        )
        return pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)

    # -- execution -------------------------------------------------------------

    def run_cell(
        self,
        spec: MethodSpec,
        config: ExperimentConfig,
        keep_per_user: bool = True,
        digest_deliveries: bool = False,
    ) -> ExperimentResult:
        """Run one (policy, budget) cell on the pool's store."""
        results = self.run_cells(
            [(spec, config)],
            keep_per_user=keep_per_user,
            digest_deliveries=digest_deliveries,
        )
        return results[(spec.label, config.weekly_budget_mb)]

    def run_cells(
        self,
        cells: Sequence[tuple[MethodSpec, ExperimentConfig]],
        keep_per_user: bool = True,
        digest_deliveries: bool = False,
    ) -> dict[tuple[str, float], ExperimentResult]:
        """Run many cells concurrently; all tasks share one queue.

        Cells whose configs differ in nothing but the weekly budget are
        split into engine passes by :func:`~repro.experiments.runner.spec_passes`
        (each RichNote spec alone, every FIFO/UTIL spec together).  A task
        is (pass, store range) and replays the range in every cell of the
        pass at once, each cell still folding through its own
        :class:`_CellState`.  Returns ``{(label, weekly_budget_mb):
        ExperimentResult}`` like :func:`repro.experiments.runner.sweep_budgets`.
        """
        return self._workers.run_cells(cells, keep_per_user, digest_deliveries)


def sweep_budgets_parallel(
    workload: Workload,
    specs: Sequence[MethodSpec],
    budgets_mb: Sequence[float],
    base_config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    *,
    max_workers: int | None = None,
    keep_per_user: bool = True,
) -> dict[tuple[str, float], ExperimentResult]:
    """The Figures 3-5 grid on a shared pool, all cells in flight at once.

    Drop-in parallel equivalent of
    :func:`repro.experiments.runner.sweep_budgets`: same arguments, same
    result mapping, bit-identical aggregates.  The grid runs as the same
    engine passes (:meth:`ExperimentPool.run_cells`), each on
    ``ceil(workers / n_passes)`` store ranges.
    """
    specs = distinct_specs(specs)
    budgets = distinct_budgets(budgets_mb)
    base_config = base_config or ExperimentConfig()
    cells = [
        (spec, base_config.with_budget(budget))
        for budget in budgets
        for spec in specs
    ]
    with ExperimentPool(
        workload,
        annotations=annotations,
        user_ids=user_ids,
        max_workers=max_workers,
        base_config=base_config,
    ) as pool:
        return pool.run_cells(cells, keep_per_user=keep_per_user)
