"""Population-scale throughput benchmark: columnar core vs per-user loop.

ISSUE 8's acceptance gate is quantitative: the columnar engine must
replay >= 5x more users per second per core than the scalar object-graph
loop at a 10k-user population, and ``BENCH_scalability.json`` must
record a users/sec/core curve at 10k and 100k users (1M as an opt-in
smoke).  This module is the measurement: it streams a cohort out of
:func:`repro.trace.generator.iter_users` (never materializing the full
population), replays it in bounded-memory chunks through the columnar
engine, replays a user sample through the scalar
:func:`repro.experiments.runner.run_user` twin, and asserts
delivery-digest parity on the overlap before reporting speed -- a fast
benchmark that silently diverged from the oracle would be a lie.

ISSUE 10 extends the curve to schema ``richnote-bench-scale/2`` with two
scenario columns, both behind the same in-bench digest-parity discipline:

* **multi-core** -- the streamed cohort is spilled once into a columnar
  :class:`~repro.trace.io.TraceShardStore` and replayed through
  :func:`~repro.experiments.pool.run_store_columnar_parallel` twice, at
  ``workers=1`` and ``workers=N``; the point records both wall times and
  the speedup, and raises if any per-user delivery digest differs
  between the two (run only when >= 2 workers are available/requested).
* **multichannel** -- a fixed-size sub-cohort is replayed under the
  three-channel set twice: once on the batched (channel x level) kernel
  path and once with the per-user ``RoundContext`` adapter path forced
  (a :class:`CombinedUtilityModel` subclass flips
  :func:`~repro.runtime.columnar.needs_item_objects`); digests must
  match and the point records the batched-vs-adapter speedup.

Scoring uses the oracle annotations (clicked -> 0.9 else 0.1) rather
than a trained forest: the benchmark isolates the simulation core, and
both paths consume the identical score table so the comparison stays
apples to apples.

Wall-clock here is host time (``time.perf_counter``), outside the
deterministic zone -- telemetry only, never fed back into scheduling.
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel
from repro.experiments.columnar import build_cohort, fold_outcomes, make_engine
from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.pool import available_cores, oracle_scores, run_store_columnar_parallel
from repro.experiments.runner import UserRunOutcome, UtilityAnnotations, run_user
from repro.runtime.columnar import round_times
from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import ShardStoreWriter
from repro.trace.records import NotificationRecord

__all__ = ["PROFILE_PHASES", "SCHEMA", "bench_scale", "write_scale_report"]

#: Version tag of the BENCH_scalability.json layout.
SCHEMA = "richnote-bench-scale/2"

#: The cProfile phases ``profile_dir`` dumps, one ``.pstats`` file each.
PROFILE_PHASES = ("cohort_build", "rounds", "merge")


class _AdapterPathModel(CombinedUtilityModel):
    """Stock arithmetic, forced adapter dispatch.

    Being a subclass is the whole point: it flips
    :func:`~repro.runtime.columnar.needs_item_objects`, so the engine
    runs the per-user ``RoundContext`` adapter path the multichannel
    scenario measures against -- while every computed number (and
    therefore every delivery digest) stays identical to the batched leg.
    """


class _PhaseProfiles:
    """Optional per-phase cProfile accumulation across the whole bench.

    Phases are disjoint code regions (cohort build / round loop / result
    merge); each gets one :class:`cProfile.Profile` that accumulates over
    every chunk and population, then dumps one ``.pstats`` file.  When
    disabled (``directory=None``) the context manager is a no-op so the
    timed regions carry zero instrumentation.
    """

    def __init__(self, directory: "str | None") -> None:
        self.directory = directory
        self.profiles = (
            {phase: cProfile.Profile() for phase in PROFILE_PHASES}
            if directory is not None
            else None
        )

    @contextmanager
    def phase(self, name: str):
        if self.profiles is None:
            yield
            return
        profile = self.profiles[name]
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    def dump(self) -> list[str]:
        if self.profiles is None:
            return []
        os.makedirs(self.directory, exist_ok=True)
        paths = []
        for phase, profile in self.profiles.items():
            path = os.path.join(self.directory, f"bench_scale_{phase}.pstats")
            profile.dump_stats(path)
            paths.append(path)
        return paths


def _chunked(
    pairs: Iterator[tuple[int, list[NotificationRecord]]], size: int
) -> Iterator[list[tuple[int, list[NotificationRecord]]]]:
    chunk: list[tuple[int, list[NotificationRecord]]] = []
    for pair in pairs:
        chunk.append(pair)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _scalar_twin(
    pairs: Sequence[tuple[int, list[NotificationRecord]]],
    spec: MethodSpec,
    config: ExperimentConfig,
    annotations: UtilityAnnotations,
    duration_seconds: float,
) -> list[UserRunOutcome]:
    return [
        run_user(
            user_id,
            records,
            spec,
            config,
            annotations,
            duration_seconds,
            digest_deliveries=True,
        )
        for user_id, records in pairs
    ]


def _digests(outcomes: Sequence[UserRunOutcome]) -> list:
    return [outcome.delivery_digest for outcome in outcomes]


def _bench_multi_core(
    store_path: str,
    spec: MethodSpec,
    config: ExperimentConfig,
    duration_seconds: float,
    workers: int,
) -> dict:
    """The multi-core scenario: workers=1 vs workers=N off one shard store.

    Both legs run the identical store-range code
    (:func:`~repro.experiments.pool.run_store_columnar_parallel`), so the
    only variable is process parallelism.  Raises if any per-user
    delivery digest differs -- the speedup is only reported over a
    verified bit-identical computation.
    """
    start = time.perf_counter()
    single = run_store_columnar_parallel(
        store_path, spec, config, duration_seconds,
        workers=1, digest_deliveries=True,
    )
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    multi = run_store_columnar_parallel(
        store_path, spec, config, duration_seconds,
        workers=workers, digest_deliveries=True,
    )
    multi_s = time.perf_counter() - start
    if _digests(single) != _digests(multi):
        raise AssertionError(
            f"multi-core delivery digests diverged from single-core at "
            f"workers={workers}"
        )
    return {
        "workers": workers,
        "single_core_wall_s": round(single_s, 6),
        "multi_core_wall_s": round(multi_s, 6),
        "speedup_vs_single_core": round(single_s / multi_s, 3),
        "digest_parity_users": len(single),
    }


def _bench_multichannel(
    pairs: Sequence[tuple[int, list[NotificationRecord]]],
    spec: MethodSpec,
    config: ExperimentConfig,
    duration_seconds: float,
    ladder,
) -> dict:
    """The multichannel scenario: batched kernels vs the adapter fallback.

    Replays one sub-cohort under the three-channel set twice.  The
    batched leg runs the stacked (channel x level) kernels
    (``engine.selection_path == "batched"``); the adapter leg forces the
    per-user ``RoundContext`` path via :class:`_AdapterPathModel`.  Only
    ``engine.run()`` is timed -- cohort build and the outcome fold are
    common to both legs.  Raises on any digest divergence.
    """
    channels = ChannelSet(
        [
            builtin_channel("push"),
            builtin_channel("inapp"),
            builtin_channel("email"),
        ]
    )
    annotations = UtilityAnnotations(scores=oracle_scores(pairs))
    columns = build_cohort(pairs, annotations, ladder)
    engine = make_engine(
        columns, spec, config, duration_seconds, channels=channels
    )
    batched_path = engine.selection_path
    start = time.perf_counter()
    result = engine.run()
    batched_s = time.perf_counter() - start
    batched = fold_outcomes(columns, result, digest_deliveries=True)

    adapter_columns = build_cohort(
        pairs, annotations, ladder, materialize_items=True
    )
    adapter_engine = make_engine(
        adapter_columns,
        spec,
        config,
        duration_seconds,
        channels=channels,
        utility_model=_AdapterPathModel(aging=config.utility_model().aging),
    )
    adapter_path = adapter_engine.selection_path
    start = time.perf_counter()
    adapter_result = adapter_engine.run()
    adapter_s = time.perf_counter() - start
    adapter = fold_outcomes(adapter_columns, adapter_result, digest_deliveries=True)

    if _digests(batched) != _digests(adapter):
        raise AssertionError(
            "multichannel batched/adapter delivery digests diverged"
        )
    return {
        "sampled_users": len(pairs),
        "channels": list(channels.names),
        "kernel_path": batched_path,
        "fallback_path": adapter_path,
        "batched_wall_s": round(batched_s, 6),
        "adapter_wall_s": round(adapter_s, 6),
        "speedup": round(adapter_s / batched_s, 3),
        "digest_parity_users": len(pairs),
    }


def bench_scale(
    user_counts: Sequence[int],
    *,
    seed: int = 97,
    scalar_sample: int = 150,
    parity_sample: int = 25,
    chunk_users: int = 20_000,
    spec: MethodSpec | None = None,
    workers: int | None = None,
    multichannel_sample: int = 1000,
    profile_dir: "str | None" = None,
) -> dict:
    """Measure users/sec/core at each population size in ``user_counts``.

    For every count the columnar engine replays the whole streamed
    cohort (in ``chunk_users``-sized chunks so peak memory stays one
    chunk); the scalar loop replays the first ``scalar_sample`` users
    with notifications and is extrapolated to a rate.  The first
    ``parity_sample`` users are replayed on *both* paths and their
    delivery digests compared -- the speedup is only reported over a
    verified-identical computation.

    ``workers`` (default: the CPU-affinity core count) adds the
    multi-core scenario when >= 2: the streamed cohort spills once into
    a temporary shard store and is replayed at ``workers=1`` vs
    ``workers=N``.  ``multichannel_sample`` > 0 adds the multichannel
    batched-vs-adapter scenario on that many head users.
    ``profile_dir`` dumps one accumulated cProfile ``.pstats`` per
    single-core phase (:data:`PROFILE_PHASES`); the profiler distorts
    wall times, so treat profiled runs as artifacts, not measurements.

    Returns the ``BENCH_scalability.json`` payload (see :data:`SCHEMA`).
    """
    if not user_counts:
        raise ValueError("user_counts must be non-empty")
    if scalar_sample < 1 or parity_sample < 0:
        raise ValueError("sample sizes must be positive")
    if multichannel_sample < 0:
        raise ValueError("multichannel_sample must be >= 0")
    spec = spec or MethodSpec(Method.RICHNOTE)
    config = ExperimentConfig(seed=seed)
    trace_config = TraceConfig(seed=seed)
    duration_seconds = trace_config.duration_hours * 3600.0
    ladder = build_audio_ladder(config.presentation_spec)
    cores_available = available_cores()
    workers = workers if workers is not None else cores_available
    profiles = _PhaseProfiles(profile_dir or None)
    wall_start = time.perf_counter()

    curve: list[dict] = []
    cores_used = 1
    for count in sorted(user_counts):
        build_s = 0.0
        rounds_s = 0.0
        merge_s = 0.0
        generate_s = 0.0
        store_write_s = 0.0
        users_run = 0
        records_run = 0
        parity_checked = 0
        head: list[tuple[int, list[NotificationRecord]]] = []
        mc_head: list[tuple[int, list[NotificationRecord]]] = []
        with tempfile.TemporaryDirectory(prefix="bench-scale-") as tmp:
            store_path = os.path.join(tmp, "store")
            # The store is only needed for the multi-core legs; spill it
            # while streaming so the cohort is still never materialized.
            writer = (
                ShardStoreWriter(store_path) if workers >= 2 else None
            )
            stream = iter_users(count, trace_config)
            gen_start = time.perf_counter()
            for chunk in _chunked(
                ((u, r) for u, r in stream if r), chunk_users
            ):
                generate_s += time.perf_counter() - gen_start
                if len(head) < scalar_sample:
                    head.extend(chunk[: scalar_sample - len(head)])
                if len(mc_head) < multichannel_sample:
                    mc_head.extend(chunk[: multichannel_sample - len(mc_head)])
                if writer is not None:
                    start = time.perf_counter()
                    for user_id, records in chunk:
                        writer.append(user_id, records)
                    store_write_s += time.perf_counter() - start
                annotations = UtilityAnnotations(scores=oracle_scores(chunk))
                start = time.perf_counter()
                with profiles.phase("cohort_build"):
                    columns = build_cohort(chunk, annotations, ladder)
                    engine = make_engine(
                        columns, spec, config, duration_seconds
                    )
                build_s += time.perf_counter() - start
                start = time.perf_counter()
                with profiles.phase("rounds"):
                    result = engine.run()
                rounds_s += time.perf_counter() - start
                start = time.perf_counter()
                with profiles.phase("merge"):
                    outcomes = fold_outcomes(
                        columns,
                        result,
                        digest_deliveries=parity_checked < parity_sample,
                    )
                merge_s += time.perf_counter() - start
                users_run += len(chunk)
                records_run += columns.cohort.n_items
                if parity_checked < parity_sample:
                    take = min(parity_sample - parity_checked, len(chunk))
                    twins = _scalar_twin(
                        chunk[:take], spec, config, annotations,
                        duration_seconds,
                    )
                    for outcome, twin in zip(outcomes[:take], twins):
                        if outcome.delivery_digest != twin.delivery_digest:
                            raise AssertionError(
                                "columnar/scalar delivery digests diverged "
                                f"for user {twin.metrics.user_id} at "
                                f"{count} users"
                            )
                    parity_checked += take
                gen_start = time.perf_counter()
            generate_s += time.perf_counter() - gen_start
            if not users_run:
                raise ValueError(f"population of {count} produced no records")

            multi_core = None
            if writer is not None:
                writer.close()
                multi_core = _bench_multi_core(
                    store_path, spec, config, duration_seconds, workers
                )
                multi_core["store_write_s"] = round(store_write_s, 6)
                cores_used = max(cores_used, workers)

        rounds = len(round_times(config.round_seconds, duration_seconds))
        columnar_s = build_s + rounds_s + merge_s

        sample = head[:scalar_sample]
        annotations = UtilityAnnotations(scores=oracle_scores(sample))
        start = time.perf_counter()
        _scalar_twin(sample, spec, config, annotations, duration_seconds)
        scalar_s = time.perf_counter() - start

        multichannel = None
        if multichannel_sample > 0:
            multichannel = _bench_multichannel(
                mc_head[:multichannel_sample], spec, config,
                duration_seconds, ladder,
            )

        columnar_rate = users_run / columnar_s
        scalar_rate = len(sample) / scalar_s
        point = {
            # Requested population vs users that actually had records
            # (the gate keys on ``population``: a 10k request yields
            # slightly fewer non-empty users).
            "population": count,
            "users": users_run,
            "records": records_run,
            "rounds": rounds,
            "generate_s": round(generate_s, 6),
            "cores_used": workers if multi_core is not None else 1,
            "columnar": {
                "wall_s": round(columnar_s, 6),
                "users_per_sec_per_core": round(columnar_rate, 3),
                "phases": {
                    "cohort_build_s": round(build_s, 6),
                    "rounds_s": round(rounds_s, 6),
                    "merge_s": round(merge_s, 6),
                },
            },
            "scalar": {
                "sampled_users": len(sample),
                "wall_s": round(scalar_s, 6),
                "users_per_sec_per_core": round(scalar_rate, 3),
            },
            "parity_checked_users": parity_checked,
            "speedup": round(columnar_rate / scalar_rate, 3),
        }
        if multi_core is not None:
            point["multi_core"] = multi_core
        if multichannel is not None:
            point["multichannel"] = multichannel
        curve.append(point)

    profile_paths = profiles.dump()
    payload = {
        "schema": SCHEMA,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "meta": {
            "seed": seed,
            "method": spec.label,
            "scoring": "oracle",
            "chunk_users": chunk_users,
            "cores_used": cores_used,
            "cores_available": cores_available,
            "workers_requested": workers,
            "multichannel_sample": multichannel_sample,
        },
        "curve": curve,
        "totals": {
            "populations": len(curve),
            "wall_s": round(time.perf_counter() - wall_start, 6),
        },
    }
    if profile_paths:
        payload["meta"]["profile_pstats"] = profile_paths
    return payload


def write_scale_report(path, payload: dict) -> dict:
    """Serialize a :func:`bench_scale` payload (BENCH_scalability.json)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
