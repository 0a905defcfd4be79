"""ISSUE 10's execution surface: shard-parallel runs + batched kernels.

Three contracts under test:

* **Shard-parallel determinism** -- splitting a shard store across
  worker processes (:func:`run_store_columnar_parallel`) or a resident
  workload across pool ranges (:meth:`ExperimentPool.run_cell`) must
  produce per-user outcomes bit-identical to the in-process columnar run
  and to the scalar ``run_user``, regardless of how users are
  partitioned -- and survive one killed worker per run.
* **Concurrent store readers** -- N processes memory-mapping the same
  :class:`TraceShardStore` observe byte-identical columns and records.
* **Batched multichannel kernels + resume** -- the stacked
  (channel x level) kernels match their per-item scalar twins choice
  for choice, and an aging-free multichannel engine resumed across
  ``run(limit_rounds=...)`` boundaries equals its one-shot run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import (
    build_cohort,
    fold_outcomes,
    make_engine,
    run_users_columnar,
)
import repro.experiments.pool as pool_module
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.metrics import aggregate
from repro.experiments.pool import (
    ExperimentPool,
    WorkerPoolBroken,
    _contiguous_ranges,
    available_cores,
    oracle_scores,
    run_store_columnar_parallel,
)
from repro.experiments.runner import UtilityAnnotations, run_user
from repro.experiments.workloads import workload_spec
from repro.runtime.kernels import (
    hull_levels,
    hull_levels_batched,
    merge_channel_rows_batched,
)
from repro.trace.generator import TraceConfig, build_workload, iter_users
from repro.trace.io import SHARD_COLUMNS, TraceShardStore, write_shard_store

SPEC = MethodSpec(Method.RICHNOTE)

#: Crash injection for TestStoreWorkerDeath (the technique of
#: tests/test_pool.py::TestPoolRecovery): module-level so fork-started
#: workers resolve the stand-ins by qualified name and inherit the path.
_CRASH_SENTINEL = {"path": ""}
_real_run_range = pool_module._run_range


def _crash_once_range(cells, config, start, stop, digest_deliveries):
    """The first worker to claim the sentinel hard-exits mid-range."""
    try:
        with open(_CRASH_SENTINEL["path"], "x"):
            pass
    except FileExistsError:
        return _real_run_range(cells, config, start, stop, digest_deliveries)
    os._exit(1)


def _crash_always_range(cells, config, start, stop, digest_deliveries):
    os._exit(1)


def _refuse_submits(monkeypatch, refused):
    """``ProcessPoolExecutor.submit`` raises ``BrokenProcessPool`` on the
    ``refused`` call numbers (from 1, across executors), as it does once
    it has seen a worker die; it returns ``calls``, the numbers made."""
    real_submit = ProcessPoolExecutor.submit
    calls = []

    def submit(self, fn, /, *args, **kwargs):
        calls.append(len(calls) + 1)
        if calls[-1] in refused:
            raise BrokenProcessPool("refused a submit")
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    return calls


def _stream_pairs(n_users, seed=41, min_pairs=None):
    pairs = [(u, r) for u, r in iter_users(n_users, TraceConfig(seed=seed)) if r]
    if min_pairs is not None:
        assert len(pairs) >= min_pairs
    return pairs


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A small shard store plus its source pairs and duration."""
    pairs = _stream_pairs(60, min_pairs=40)
    path = tmp_path_factory.mktemp("shards") / "store"
    write_shard_store(path, pairs)
    duration = TraceConfig(seed=41).duration_hours * 3600.0
    return str(path), pairs, duration


# -- concurrent multi-process readers ------------------------------------------


def _read_store_fingerprint(path: str, positions: tuple[int, ...]) -> dict:
    """Open the store fresh and fingerprint its bytes (runs in workers)."""
    with TraceShardStore(path) as shard_store:
        fingerprint = {
            name: hashlib.sha256(
                np.ascontiguousarray(shard_store.column(name)).tobytes()
            ).hexdigest()
            for name in SHARD_COLUMNS
        }
        fingerprint["user_ids"] = hashlib.sha256(
            np.ascontiguousarray(shard_store.user_ids).tobytes()
        ).hexdigest()
        fingerprint["offsets"] = hashlib.sha256(
            np.ascontiguousarray(shard_store.offsets).tobytes()
        ).hexdigest()
        fingerprint["records"] = hashlib.sha256(
            repr(
                [shard_store.records_at(p) for p in positions]
            ).encode()
        ).hexdigest()
    return fingerprint


class TestConcurrentStoreReaders:
    def test_n_process_readers_see_identical_bytes(self, store):
        """The same store opened from N pool workers is byte-identical.

        Every worker memory-maps the same files concurrently; nothing is
        ever written after sealing, so all views (and the parent's) must
        fingerprint identically, column for column and record for record.
        """
        path, pairs, _ = store
        positions = tuple(range(0, len(pairs), 7))
        expected = _read_store_fingerprint(path, positions)
        with ProcessPoolExecutor(max_workers=3) as executor:
            futures = [
                executor.submit(_read_store_fingerprint, path, positions)
                for _ in range(6)
            ]
            for future in futures:
                assert future.result() == expected

    def test_records_round_trip(self, store):
        path, pairs, _ = store
        with TraceShardStore(path) as shard_store:
            for position, (user_id, records) in enumerate(pairs):
                assert int(shard_store.user_ids[position]) == user_id
                assert shard_store.records_at(position) == list(records)


# -- range partitioning --------------------------------------------------------


class TestContiguousRanges:
    def test_covers_all_positions_contiguously(self):
        rng = random.Random(3)
        for _ in range(50):
            counts = [rng.randrange(0, 40) for _ in range(rng.randrange(1, 60))]
            n_ranges = rng.randrange(1, 20)
            ranges = _contiguous_ranges(counts, n_ranges)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(counts)
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            assert all(start < stop for start, stop in ranges)
            assert len(ranges) == min(n_ranges, len(counts))

    def test_balances_record_mass(self):
        # One heavy head position must not drag the whole tail with it.
        counts = [1000] + [1] * 99
        ranges = _contiguous_ranges(counts, 4)
        assert ranges[0] == (0, 1)

    def test_empty(self):
        assert _contiguous_ranges([], 4) == []


class TestAvailableCores:
    def test_positive_int(self):
        cores = available_cores()
        assert isinstance(cores, int)
        assert cores >= 1


# -- shard-parallel execution --------------------------------------------------


class TestStoreColumnarParallel:
    def test_workers_split_is_bit_identical(self, store):
        """workers=1, workers=2 and the direct cohort run all agree.

        The workers=2 leg crosses real process boundaries (even on a
        single-core machine the pool still forks); digests, metrics and
        user order must match the in-process run exactly.
        """
        path, pairs, duration = store
        config = ExperimentConfig(seed=41)
        annotations = UtilityAnnotations(scores=oracle_scores(pairs))
        direct = run_users_columnar(
            pairs, SPEC, config, annotations, duration,
            digest_deliveries=True,
        )
        for workers in (1, 2):
            outcomes = run_store_columnar_parallel(
                path, SPEC, config, duration,
                workers=workers, digest_deliveries=True,
            )
            assert [o.metrics.user_id for o in outcomes] == [
                o.metrics.user_id for o in direct
            ]
            assert [o.delivery_digest for o in outcomes] == [
                o.delivery_digest for o in direct
            ]
            assert [o.metrics for o in outcomes] == [
                o.metrics for o in direct
            ]

    def test_workers_derive_their_own_oracle_scores(self, store):
        """annotations=None ships no score map; workers derive per-slice."""
        path, pairs, duration = store
        config = ExperimentConfig(seed=41)
        annotations = UtilityAnnotations(scores=oracle_scores(pairs))
        with_map = run_store_columnar_parallel(
            path, SPEC, config, duration,
            workers=2, annotations=annotations, digest_deliveries=True,
        )
        derived = run_store_columnar_parallel(
            path, SPEC, config, duration,
            workers=2, annotations=None, digest_deliveries=True,
        )
        assert [o.delivery_digest for o in derived] == [
            o.delivery_digest for o in with_map
        ]

    def test_unsupported_config_rejected(self, store):
        path, _, duration = store
        from repro.sim.faults import FaultConfig

        config = ExperimentConfig(
            seed=41, faults=FaultConfig(p_disconnect=0.2)
        )
        with pytest.raises(ValueError, match="paper-default"):
            run_store_columnar_parallel(path, SPEC, config, duration)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection patches a forked module global",
)
class TestStoreWorkerDeath:
    def test_crash_once_restarts_and_folds_identically(
        self, store, tmp_path, monkeypatch
    ):
        path, _, duration = store
        config = ExperimentConfig(seed=41)
        whole = run_store_columnar_parallel(
            path, SPEC, config, duration, workers=1, digest_deliveries=True
        )
        _CRASH_SENTINEL["path"] = str(tmp_path / "crashed-once")
        monkeypatch.setattr(pool_module, "_run_range", _crash_once_range)
        survived = run_store_columnar_parallel(
            path, SPEC, config, duration, workers=2, digest_deliveries=True
        )
        assert os.path.exists(_CRASH_SENTINEL["path"])
        assert survived == whole
        assert all(o.delivery_digest for o in survived)

    def test_second_break_propagates(self, store, monkeypatch):
        path, _, duration = store
        monkeypatch.setattr(pool_module, "_run_range", _crash_always_range)
        with pytest.raises(WorkerPoolBroken) as broken:
            run_store_columnar_parallel(
                path, SPEC, ExperimentConfig(seed=41), duration, workers=2
            )
        # Typed, yet still what existing ``except BrokenProcessPool`` catches;
        # the message names the store range whose future surfaced the break.
        assert isinstance(broken.value, BrokenProcessPool)
        with TraceShardStore(path) as shard_store:
            ranges = _contiguous_ranges(np.diff(shard_store.offsets), 2)
        named = re.search(
            r"cells \[RichNote at 20\.0 MB\], store positions \[(\d+), (\d+)\), "
            r"with ([1-9]\d*) of (\d+) tasks unfinished",
            str(broken.value),
        )
        assert named is not None
        assert (int(named[1]), int(named[2])) in ranges
        assert int(named[3]) <= int(named[4]) == len(ranges)


    def test_refused_submit_restarts_and_folds_identically(self, store, monkeypatch):
        """A break can surface on ``submit`` rather than on a future; it
        costs the run's one restart like any other (it used to escape raw)."""
        path, _, duration = store
        config = ExperimentConfig(seed=41)
        whole = run_store_columnar_parallel(
            path, SPEC, config, duration, workers=1, digest_deliveries=True
        )
        calls = _refuse_submits(monkeypatch, {2})
        survived = run_store_columnar_parallel(
            path, SPEC, config, duration, workers=2, digest_deliveries=True
        )
        assert survived == whole
        # 2 ranges: 1 accepted, the 2nd refused, then both again.
        assert len(calls) == 2 + 2

    def test_second_refused_submit_raises_typed(self, store, monkeypatch):
        path, _, duration = store
        calls = _refuse_submits(monkeypatch, {2, 4})
        with pytest.raises(WorkerPoolBroken, match=r"store positions \[\d+, \d+\), with 2 of 2 tasks unfinished"):
            run_store_columnar_parallel(
                path, SPEC, ExperimentConfig(seed=41), duration, workers=2
            )
        assert len(calls) == 4


class TestRunCellColumnar:
    def test_matches_scalar_cell(self):
        """A pool cell (columnar store ranges on two workers) == a ``run_user`` fold."""
        workload = build_workload(workload_spec("small", seed=11))
        users = workload.top_users(8)
        config = ExperimentConfig(seed=11, weekly_budget_mb=5.0)
        annotations = UtilityAnnotations.train(workload, seed=11)
        duration = workload.config.duration_hours * 3600.0
        with ExperimentPool(
            workload, annotations=annotations, user_ids=users, max_workers=2
        ) as pool:
            columnar = pool.run_cell(SPEC, config, digest_deliveries=True)
        scalar = [
            run_user(
                user_id, workload.records_for_user(user_id), SPEC, config,
                annotations, duration, digest_deliveries=True,
            )
            for user_id in users
        ]
        assert columnar.per_user == scalar
        assert columnar.aggregate == aggregate([o.metrics for o in scalar])


# -- batched multichannel kernels ----------------------------------------------


def merge_channel_rows(sizes_rows, profits_rows):
    """One item's per-channel ladders fused into a single choice row.

    The per-item sort-and-scan the batched kernel replaced in ``src/``,
    kept here as its oracle: all (channel, level > 0) choices sorted by
    (size, profit descending, channel, level); the first of each size
    wins; a billed size of 0 is dropped (index 0 is "not sent").
    Returns ``(sizes, profits, backmap)`` with ``backmap[j]`` the
    ``(channel_index, level)`` behind merged choice ``j``.
    """
    choices = []
    for channel_index, (sizes, profits) in enumerate(
        zip(sizes_rows, profits_rows)
    ):
        for level in range(1, len(sizes)):
            choices.append(
                (int(sizes[level]), float(profits[level]), channel_index, level)
            )
    choices.sort(key=lambda entry: (entry[0], -entry[1], entry[2], entry[3]))
    merged_sizes = [0]
    merged_profits = [0.0]
    backmap = [(0, 0)]
    for size, profit, channel_index, level in choices:
        if size <= merged_sizes[-1]:
            continue
        merged_sizes.append(size)
        merged_profits.append(profit)
        backmap.append((channel_index, level))
    return merged_sizes, merged_profits, backmap


def _random_ladders(rng):
    """Per-channel billed-size rows shared by a group, plus profit stacks."""
    n_channels = rng.randrange(1, 4)
    n_items = rng.randrange(1, 9)
    sizes_rows = []
    for _ in range(n_channels):
        n_levels = rng.randrange(2, 6)
        # Deliberately include duplicate and zero billed sizes: ties must
        # resolve like the scalar kernel, zero-size choices must drop.
        row = [0] + [
            rng.choice([0, 100, 200, 200, 300, 500, 800])
            for _ in range(n_levels - 1)
        ]
        sizes_rows.append(row)
    profits_stack = []
    for row in sizes_rows:
        profits = rng.choice([np.round, lambda x: x])(
            np.asarray(
                [
                    [0.0] + [rng.uniform(-1, 5) for _ in range(len(row) - 1)]
                    for _ in range(n_items)
                ]
            )
        )
        profits_stack.append(np.asarray(profits, dtype=np.float64))
    return sizes_rows, profits_stack


class TestBatchedKernels:
    def test_merge_channel_rows_batched_matches_scalar(self):
        """Stacked merge == per-item merge, winner for winner.

        Rounded profit matrices force exact ties, exercising the
        keep-first (highest profit, lowest channel, lowest level) rule.
        """
        rng = random.Random(7)
        for _ in range(200):
            sizes_rows, profits_stack = _random_ladders(rng)
            merged_sizes, profits, channels, levels = (
                merge_channel_rows_batched(sizes_rows, profits_stack)
            )
            n_items = profits_stack[0].shape[0]
            for i in range(n_items):
                scalar_sizes, scalar_profits, scalar_backmap = (
                    merge_channel_rows(
                        sizes_rows,
                        [stack[i] for stack in profits_stack],
                    )
                )
                assert merged_sizes == scalar_sizes
                assert profits[i].tolist() == scalar_profits
                assert list(
                    zip(channels[i].tolist(), levels[i].tolist())
                ) == scalar_backmap

    def test_hull_levels_batched_matches_scalar(self):
        rng = random.Random(13)
        for _ in range(200):
            k = rng.randrange(1, 10)
            sizes = [0]
            for _ in range(k - 1):
                sizes.append(sizes[-1] + rng.randrange(1, 300))
            n_items = rng.randrange(1, 8)
            profits = np.zeros((n_items, k), dtype=np.float64)
            for i in range(n_items):
                for j in range(1, k):
                    profits[i, j] = rng.choice(
                        [rng.uniform(-1, 4), round(rng.uniform(0, 4), 1)]
                    )
            hull_indices, hull_lengths = hull_levels_batched(sizes, profits)
            for i in range(n_items):
                expected = hull_levels(sizes, profits[i].tolist())
                got = hull_indices[i, : hull_lengths[i]].tolist()
                assert got == expected


# -- aging-free multichannel engine across resume boundaries -------------------


def _starved_multichannel_engine(pairs, duration):
    """A backlogged, aging-free multichannel engine.

    The starved budget keeps the same items queued round after round, so
    a resumed run re-merges rows it already merged before the boundary.
    """
    config = ExperimentConfig(
        seed=41, weekly_budget_mb=0.02, aging_tau_seconds=None
    )
    channels = ChannelSet(
        [
            builtin_channel("push"),
            builtin_channel("inapp"),
            builtin_channel("email"),
        ]
    )
    annotations = UtilityAnnotations(scores=oracle_scores(pairs))
    ladder = build_audio_ladder(config.presentation_spec)
    columns = build_cohort(pairs, annotations, ladder)
    engine = make_engine(
        columns, SPEC, config, duration, channels=channels
    )
    return columns, engine


class TestDirtyCacheResume:
    def test_cache_engages_on_stable_queues(self, store):
        """The starved engine the resume tests step stays on the batched
        kernels and still delivers."""
        _, pairs, duration = store
        _, engine = _starved_multichannel_engine(pairs, duration)
        assert len(engine.run().delivered) > 0

    def test_single_stepping_invalidates_and_stays_bit_identical(self, store):
        """run(limit_rounds=1) to completion == one-shot run: deliveries
        and channel codes stay bit-identical across every resume boundary."""
        _, pairs, duration = store
        columns, one_shot = _starved_multichannel_engine(pairs, duration)
        result = one_shot.run()

        _, stepper = _starved_multichannel_engine(pairs, duration)
        n_rounds = len(stepper.times)
        for _ in range(n_rounds):
            stepped = stepper.run(limit_rounds=1)

        assert stepped.deliveries == result.deliveries
        assert stepped.channel_names == result.channel_names
        for a, b in zip(stepped.channel_codes, result.channel_codes):
            assert a == b
        one = fold_outcomes(columns, result, digest_deliveries=True)
        step = fold_outcomes(columns, stepped, digest_deliveries=True)
        assert [o.delivery_digest for o in step] == [
            o.delivery_digest for o in one
        ]

    def test_interleaved_chunked_resume_matches(self, store):
        """Uneven resume chunks (1, 3, 7, ...) also fold bit-identically."""
        _, pairs, duration = store
        _, one_shot = _starved_multichannel_engine(pairs, duration)
        result = one_shot.run()

        _, chunked = _starved_multichannel_engine(pairs, duration)
        remaining = len(chunked.times)
        step = 1
        while remaining > 0:
            take = min(step, remaining)
            partial = chunked.run(limit_rounds=take)
            remaining -= take
            step = step * 2 + 1
        assert partial.deliveries == result.deliveries
