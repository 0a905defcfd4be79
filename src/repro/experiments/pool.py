"""Persistent sweep-scale execution engine (Section V-C's backend).

The paper argues RichNote "can potentially scale to a much larger user
base using a backend parallel platform since our solution can work in
rounds and independently for each user".  Two entry points share one
worker pool (:class:`_WorkerPool`: submit, wait, one restart per run):

* :class:`ExperimentPool` / :func:`sweep_budgets_parallel` -- a workload
  held in memory.  The per-user record shards and the content-utility
  score map cross the process boundary exactly once, through the worker
  initializer; afterwards a task ships only ``(cells, ExperimentConfig,
  user-batch ids)`` with a cell a ``(MethodSpec, budget)`` pair --
  kilobytes.  The pool has **one task**, :func:`_run_pass_batch`, which
  hands its user batch and cells to
  :func:`repro.experiments.runner.sweep_users` -- the same dispatch the
  sequential runner uses, so a batch runs its cells as one pass over one
  columnar cohort (or, for fault / multi-feed configs, cell by cell and
  user by user).
* :func:`run_store_columnar_parallel` -- a population on disk.  The
  initializer ships a shard-store *path*, tasks ship position ranges and
  workers read the memory-mapped columns through the shared page cache.

What makes it a system rather than a ``map``:

* **Cost-balanced batching** -- users are partitioned into worker batches
  by notification count (:func:`repro.experiments.shards.balanced_batches`).
  An engine pass, nearly flat in its row count, is the unit of work:
  each RichNote spec's budget column is one pass and every FIFO/UTIL
  cell shares another (:func:`repro.experiments.runner.spec_passes`), so
  :func:`sweep_budgets_parallel` splits the users only when there are
  fewer passes than workers: ``ceil(workers / n_passes)`` batches (the
  paper grid on two workers: one batch, two tasks).  A task holds
  users-in-batch x cells rows, so the user split bounds its memory
  exactly as it bounds a one-cell batch.
* **Whole-grid scheduling** -- all cells of a Figures 3-5 grid go onto
  the shared pool at once, grouped by everything but the budget and then
  into passes; workers drain a single global queue of (pass, batch) tasks
  instead of cell-by-cell barriers, and every cell folds through its own
  :class:`_CellState`.
* **Streamed aggregation** -- batch results fold into a
  :class:`~repro.experiments.metrics.MetricsAccumulator` as they arrive
  and are discarded (unless ``keep_per_user=True``), so the parent holds
  at most the out-of-order frontier, never a 10k-user outcome list.
* **Worker death** -- a killed worker breaks the whole executor; the pool
  rebuilds it once per run from the resident initializer payload and
  resubmits what was outstanding.  A second break raises
  :class:`WorkerPoolBroken`, naming the task that surfaced it.

Determinism: every user's simulation is seeded independently of
scheduling order (see ``_stream_seed`` in the runner), per-user outcomes
do not depend on which users share a cohort, and the parent folds
outcomes in the *canonical sequential user order* regardless of batch
completion order -- float summation order is preserved, so aggregates
and per-user delivery digests are bit-identical to
:func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

import math
import os
import pickle
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.experiments.columnar import concat_record_columns, run_users_columnar, supports
from repro.experiments.config import ExperimentConfig, MethodSpec
from repro.experiments.metrics import FailureStats, MetricsAccumulator
from repro.experiments.runner import (
    Cell,
    CellSummary,
    ExperimentResult,
    UserRunOutcome,
    UtilityAnnotations,
    distinct_budgets,
    distinct_specs,
    spec_passes,
    sweep_users,
)
from repro.experiments.shards import balanced_batches, shard_by_user
from repro.trace.generator import Workload
from repro.trace.io import TraceShardStore
from repro.trace.records import NotificationRecord

__all__ = [
    "ExperimentPool",
    "WorkerPoolBroken",
    "available_cores",
    "oracle_scores",
    "run_experiment_parallel",
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


def oracle_scores(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
) -> dict[int, float]:
    """Oracle content-utility annotations for a record batch.

    The bench-standard labeling (clicked items are worth 0.9, the rest
    0.1).  Pure per-record, so any partition of the same records produces
    the same scores -- workers can derive their own slice locally instead
    of receiving a population-wide map through the initializer.
    """
    _, item_ids, _, clicked, _ = concat_record_columns(user_records)
    return dict(zip(item_ids.tolist(), np.where(clicked, 0.9, 0.1).tolist()))


# -- worker side ---------------------------------------------------------------

@dataclass
class _WorkerState:
    """Everything a worker holds for the lifetime of the pool.

    An :class:`ExperimentPool` worker holds ``shards`` (pickled through
    the initializer, no disk involved); a
    :func:`run_store_columnar_parallel` worker holds ``store_path`` and
    memory-maps the store on first use, so record bytes reach it via the
    shared page cache instead of pickling.  ``scores`` may be ``None``
    for store ranges: workers then derive the oracle scores for their own
    slice (:func:`oracle_scores`), so population-scale runs ship no score
    map at all.
    """

    shards: dict[int, list[NotificationRecord]] | None
    store_path: str | None
    scores: dict[int, float] | None
    duration_seconds: float
    store: TraceShardStore | None = None

    def ensure_store(self) -> TraceShardStore:
        if self.store is None:
            self.store = TraceShardStore(self.store_path)
        return self.store


_WORKER: _WorkerState | None = None


def _init_worker(
    shards: dict[int, list[NotificationRecord]] | None,
    store_path: str | None,
    scores: dict[int, float] | None,
    duration_seconds: float,
) -> None:
    """Pool initializer: receive the shared workload state exactly once."""
    global _WORKER
    _WORKER = _WorkerState(
        shards=shards,
        store_path=store_path,
        scores=scores,
        duration_seconds=duration_seconds,
    )


def _pass_task(
    cells: Sequence[Cell],
    config: ExperimentConfig,
    user_ids: Sequence[int],
    digest_deliveries: bool,
) -> tuple:
    """The arguments of one :func:`_run_pass_batch` task, as shipped."""
    return (tuple(cells), config, tuple(user_ids), digest_deliveries)


def _run_pass_batch(
    cells: Sequence[Cell],
    config: ExperimentConfig,
    user_ids: Sequence[int],
    digest_deliveries: bool,
) -> list[list[UserRunOutcome]]:
    """Replay one user batch against the worker-resident shards in every
    cell of one pass: one outcome list per cell."""
    state = _WORKER
    if state is None:
        raise RuntimeError(
            "worker not initialized; _run_pass_batch must run inside an "
            "ExperimentPool worker"
        )
    return sweep_users(
        [(user_id, state.shards[user_id]) for user_id in user_ids],
        cells,
        config,
        UtilityAnnotations(scores=state.scores),
        state.duration_seconds,
        digest_deliveries=digest_deliveries,
    )


def _columnar_outcomes_for_range(
    state: _WorkerState,
    spec: MethodSpec,
    config: ExperimentConfig,
    start: int,
    stop: int,
    digest_deliveries: bool,
) -> list[UserRunOutcome]:
    """One shard range ``[start, stop)`` of store positions, columnar.

    Takes the range's partitions as lazy views over the memory-mapped
    store (no record object is built), derives or adopts annotations, and
    runs one :class:`~repro.runtime.columnar.ColumnarEngine` over the
    sub-cohort.
    Per-user outcomes are independent of how the population is
    partitioned (every kernel is row-independent and every user is seeded
    by user id), so any range split folds back bit-identically.
    """
    store = state.ensure_store()
    user_records = [
        (int(store.user_ids[position]), store.records_at(position))
        for position in range(start, stop)
    ]
    if state.scores is not None:
        annotations = UtilityAnnotations(scores=state.scores)
    else:
        annotations = UtilityAnnotations(scores=oracle_scores(user_records))
    return run_users_columnar(
        user_records,
        spec,
        config,
        annotations,
        state.duration_seconds,
        digest_deliveries=digest_deliveries,
    )


def _run_columnar_range(
    spec: MethodSpec,
    config: ExperimentConfig,
    start: int,
    stop: int,
    digest_deliveries: bool,
) -> list[UserRunOutcome]:
    """Pool task: run one store-position range on the worker's shard store."""
    state = _WORKER
    if state is None:
        raise RuntimeError(
            "worker not initialized; _run_columnar_range must run inside a "
            "run_store_columnar_parallel worker"
        )
    return _columnar_outcomes_for_range(
        state, spec, config, start, stop, digest_deliveries
    )


# -- parent side ---------------------------------------------------------------


class WorkerPoolBroken(BrokenProcessPool):
    """Workers died twice in one pool run; the message names the task."""


class _WorkerPool:
    """Worker processes that survive one worker death per run.

    A worker killed by the OS (OOM, SIGKILL, segfault in a C extension)
    poisons the whole ``ProcessPoolExecutor``: every outstanding future
    raises ``BrokenProcessPool`` and the executor refuses new work.  The
    initializer payload still lives in the parent, so recovery is a new
    executor plus re-initialization -- no re-sharding, and the payload
    never leaves this process except through a pool initializer.
    """

    def __init__(self, max_workers: int, initargs: tuple) -> None:
        self.max_workers = max_workers
        self._initargs = initargs
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

    def run(self, function, tasks: Sequence[tuple], fold, describe) -> None:
        """Run ``function(*task)`` for every task; ``fold(task, result)`` each.

        Results fold in completion order, so ``fold`` must be
        order-correcting.  Tasks are idempotent replays of resident
        inputs: when a worker dies the executor is rebuilt -- once per
        run -- and every unfinished task is resubmitted, folding
        identically.  The break may surface on a future or on
        ``submit`` itself (the executor refuses new work once it knows a
        worker died); both count.  A second break in the same run raises
        :class:`WorkerPoolBroken` naming ``describe(task)`` of the task
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
                    future = self._executor.submit(function, *surfaced)
                    pending[future] = queue.popleft()
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    surfaced = pending[future]
                    result = future.result()
                    fold(pending.pop(future), result)
            except BrokenProcessPool as error:
                if restarted:
                    raise WorkerPoolBroken(
                        f"a worker died again after the run's one restart; the "
                        f"break surfaced on {describe(surfaced)}, with "
                        f"{len(queue) + len(pending)} of {len(tasks)} tasks unfinished"
                    ) from error
                restarted = True
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = self._start()
                self.restarts += 1
                queue.extendleft(reversed(pending.values()))
                pending = {}


def _contiguous_ranges(
    counts: Sequence[int] | np.ndarray, n_ranges: int
) -> list[tuple[int, int]]:
    """Split store positions into contiguous, record-balanced ranges.

    ``counts[p]`` is the record count at store position ``p``.  Cuts land
    at the record-mass quantiles, clamped so every range keeps at least
    one position.  Contiguity matters twice: workers fault in disjoint
    runs of the memory-mapped columns (no interleaved page sharing), and
    the parent can restore canonical store order by sorting ranges on
    their start position alone.
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

    Partitions the store's user positions into contiguous record-balanced
    ranges, runs each range through a per-shard
    :class:`~repro.runtime.columnar.ColumnarEngine` on a worker pool (the
    initializer ships the store *path* and tasks ship position ranges --
    never pickled records; workers read the memory-mapped columns through
    the shared page cache), and folds per-range outcomes back in
    ascending range-start order.  The fold is order-stable: outcomes are
    concatenated in canonical store order regardless of completion order,
    so the returned list -- including per-user delivery digests -- is
    bit-identical to ``workers=1``, which runs the same range code
    in-process.  A killed worker costs one executor restart
    (:meth:`_WorkerPool.run`); a second break raises :class:`WorkerPoolBroken`.

    ``annotations=None`` ships no score map at all; each worker derives
    :func:`oracle_scores` for its own slice.
    """
    if not supports(config):
        raise ValueError(
            "columnar execution supports the paper-default pipeline only "
            "(no fault injection, no multi-feed cadences)"
        )
    workers = workers if workers is not None else available_cores()
    store_path = str(store_path)
    with TraceShardStore(store_path) as store:
        counts = np.diff(store.offsets)
        n_users = store.n_users
    if n_users == 0:
        raise ValueError(f"{store_path}: shard store holds no users")
    scores = annotations.scores if annotations is not None else None
    if workers <= 1:
        state = _WorkerState(
            shards=None,
            store_path=store_path,
            scores=scores,
            duration_seconds=duration_seconds,
        )
        try:
            return _columnar_outcomes_for_range(
                state, spec, config, 0, n_users, digest_deliveries
            )
        finally:
            if state.store is not None:
                state.store.close()
    # Four ranges per worker, the pool's oversubscription everywhere: room
    # to smooth stragglers without ranges degenerating to single users.
    tasks = [
        (spec, config, start, stop, digest_deliveries)
        for start, stop in _contiguous_ranges(counts, workers * 4)
    ]
    parts: dict[int, list[UserRunOutcome]] = {}

    def fold(task, outcomes) -> None:
        parts[task[2]] = outcomes

    pool = _WorkerPool(workers, (None, store_path, scores, duration_seconds))
    try:
        pool.run(_run_columnar_range, tasks, fold, lambda t: f"store positions [{t[2]}, {t[3]})")
    finally:
        pool.shutdown()
    merged: list[UserRunOutcome] = []
    for start in sorted(parts):
        merged.extend(parts[start])
    return merged


class _CellState:
    """Order-correcting streamed fold of one cell's batch results.

    Workers complete batches in arbitrary order; this buffer holds only
    the out-of-order frontier and folds each outcome the moment the
    canonical sequential order reaches it, so float summation order --
    and therefore the aggregate, bit for bit -- matches the sequential
    runner.
    """

    def __init__(
        self,
        spec: MethodSpec,
        config: ExperimentConfig,
        user_order: Sequence[int],
        keep_per_user: bool,
    ) -> None:
        self.spec = spec
        self.config = config
        self._order = user_order
        self._position = 0
        self._pending: dict[int, UserRunOutcome] = {}
        self._accumulator = MetricsAccumulator()
        self._failures = FailureStats()
        self._backlog_sum = 0.0
        self._max_queue = 0
        self._keep = keep_per_user
        self.per_user: list[UserRunOutcome] = []

    def add_batch(self, outcomes: Sequence[UserRunOutcome]) -> None:
        for outcome in outcomes:
            self._pending[outcome.metrics.user_id] = outcome
        while (
            self._position < len(self._order)
            and self._order[self._position] in self._pending
        ):
            outcome = self._pending.pop(self._order[self._position])
            self._position += 1
            self._accumulator.add(outcome.metrics)
            self._failures.merge(outcome.failures)
            self._backlog_sum += outcome.mean_backlog_bytes
            self._max_queue = max(self._max_queue, outcome.max_queue_length)
            if self._keep:
                self.per_user.append(outcome)

    def result(self) -> ExperimentResult:
        if self._position != len(self._order) or self._pending:
            raise RuntimeError(
                f"cell {self.spec.label!r} incomplete: folded "
                f"{self._position}/{len(self._order)} users"
            )
        n = self._position
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


class ExperimentPool:
    """A persistent worker pool amortizing workload shipping over a sweep.

    Construction trains (or adopts) the content-utility annotations,
    shards the workload per user, partitions users into cost-balanced
    batches and spins up the process pool -- shipping shards + scores to
    each worker exactly once via the pool initializer.  Every subsequent
    :meth:`run_cell` / :meth:`run_cells` call submits only
    ``(cells, config, batch ids)`` tasks.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        workload: Workload,
        annotations: UtilityAnnotations | None = None,
        user_ids: Sequence[int] | None = None,
        max_workers: int | None = None,
        n_batches: int | None = None,
        base_config: ExperimentConfig | None = None,
    ) -> None:
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
        shards = {u: by_user[u] for u in self.sim_users}
        counts = {u: len(shards[u]) for u in self.sim_users}
        self.max_workers = max_workers or available_cores()
        if n_batches is None:
            # Oversubscribe so cost balancing has room to smooth
            # stragglers without batches degenerating to single users.
            n_batches = self.max_workers * 4
        self.batches = balanced_batches(counts, n_batches)
        self.duration_seconds = workload.config.duration_hours * 3600.0
        self._workers = _WorkerPool(
            self.max_workers,
            (shards, None, annotations.scores, self.duration_seconds),
        )

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "ExperimentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._workers.shutdown()

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
        """The exact pickled argument payload of one cell's task on batch
        ``batch_index`` (what :meth:`run_cell` submits for that batch).

        Exposed so benchmarks can assert the post-init process-boundary
        cost: registry keys, a config, budgets and a tuple of user ids --
        never the notification records.
        """
        task = _pass_task(
            [(spec, config.weekly_budget_mb)], config, self.batches[batch_index],
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
        """Run one (policy, budget) cell on the resident shards."""
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
        """Run many cells concurrently; all batches share one task queue.

        Cells whose configs differ in nothing but the weekly budget are
        split into engine passes by :func:`~repro.experiments.runner.spec_passes`
        (each RichNote spec alone, every FIFO/UTIL spec together).  A task
        is (pass, user batch) and replays the batch in every cell of the
        pass at once, each cell still folding through its own
        :class:`_CellState`.  Returns ``{(label, weekly_budget_mb):
        ExperimentResult}`` like :func:`repro.experiments.runner.sweep_budgets`.
        """
        states: dict[tuple[str, float], _CellState] = {}
        #: (first config, its cells); configs may be unhashable.
        groups: list[tuple[ExperimentConfig, list[Cell]]] = []
        for spec, config in cells:
            budget = config.weekly_budget_mb
            key = (spec.label, budget)
            if key in states:
                raise ValueError(f"duplicate cell {key!r} in one submission")
            states[key] = _CellState(
                spec, config, self.sim_users, keep_per_user
            )
            for first, members in groups:
                if config.with_budget(first.weekly_budget_mb) == first:
                    members.append((spec, budget))
                    break
            else:
                groups.append((config, [(spec, budget)]))

        tasks = [
            _pass_task(
                [cell for cell in members if cell[0] in specs], config, batch,
                digest_deliveries,
            )
            for config, members in groups
            for specs in spec_passes(list(dict.fromkeys(spec for spec, _ in members)))
            for batch in self.batches
        ]

        def fold(task, per_cell) -> None:
            for (spec, budget), outcomes in zip(task[0], per_cell):
                states[(spec.label, budget)].add_batch(outcomes)

        def describe(task) -> str:
            cells, _, batch = task[:3]
            named = ", ".join(f"{spec.label} at {budget} MB" for spec, budget in cells)
            return f"cells [{named}], users {list(batch)}"

        self._workers.run(_run_pass_batch, tasks, fold, describe)
        return {key: state.result() for key, state in states.items()}


def run_experiment_parallel(
    workload: Workload,
    spec: MethodSpec,
    config: ExperimentConfig,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Parallel equivalent of :func:`repro.experiments.runner.run_experiment`.

    One-shot convenience: spins a pool up for a single cell and tears it
    down again.  Deterministic -- results are identical to the sequential
    runner (each user's simulation is seeded independently of scheduling
    order, and the pool folds outcomes in the sequential user order);
    only wall-clock changes.  For sweeps, use
    :func:`sweep_budgets_parallel`, which amortizes the pool over the
    whole grid.
    """
    with ExperimentPool(
        workload,
        annotations=annotations,
        user_ids=user_ids,
        max_workers=max_workers,
        base_config=config,
    ) as pool:
        return pool.run_cell(spec, config)


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
    engine passes (:meth:`ExperimentPool.run_cells`), and the users are
    split only when there are fewer passes than workers:
    ``ceil(workers / n_passes)`` batches.
    """
    specs = distinct_specs(specs)
    budgets = distinct_budgets(budgets_mb)
    base_config = base_config or ExperimentConfig()
    cells = [
        (spec, base_config.with_budget(budget))
        for budget in budgets
        for spec in specs
    ]
    # An engine pass costs nearly the same at any row count: split the
    # users only as far as giving every worker a task needs.
    workers = max_workers or available_cores()
    with ExperimentPool(
        workload,
        annotations=annotations,
        user_ids=user_ids,
        max_workers=max_workers,
        n_batches=math.ceil(workers / max(1, len(spec_passes(specs)))),
        base_config=base_config,
    ) as pool:
        return pool.run_cells(cells, keep_per_user=keep_per_user)
