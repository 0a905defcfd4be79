"""The four benchmark workloads.

Each workload is one object with the same five hooks:

``setup(directory, seed, scale, clock)``
    generate the inputs from ``seed`` and write them under ``directory``
    (timed as ``setup_s``); returns a JSON manifest.
``body(directory, manifest, clock, fraction=1.0)``
    the measured section: inputs on disk -> outputs in memory, every call
    into the program made through ``clock.stage(layer_name, fn, ...)``.
    ``fraction=0.1`` is the untimed warm-up.
``check(outputs, manifest, deep)``
    verify the outputs (invariants; ``deep`` adds a cross-check against a
    second execution path, done once per run) and derive the
    deterministic metrics and the output digest.
``wraps``
    public attributes the traced run times from outside.
``extras(directory, manifest, context)``
    additional traced-only passes (single-stepped rounds, sharded run,
    in-process sample).

Why these four, and what each is predicted to move, is in README.md; the
one-line reasons are in BENCHMARK.json.  Sizes were chosen so that one
timed repeat is ~1.5-3 s here: the driver runs ~90 benchmark processes
in under an hour, so a run has 16 s to measure in.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import build_cohort, fold_outcomes, make_engine
from repro.experiments.config import (
    PAPER_BUDGET_SWEEP_MB,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.figures import paper_method_specs
from repro.experiments.pool import (
    ExperimentPool,
    oracle_scores,
    run_store_columnar_parallel,
    sweep_budgets_parallel,
)
from repro.experiments.runner import (
    UtilityAnnotations,
    run_experiment,
    run_user,
    sweep_budgets,
)
from repro.experiments.workloads import workload_spec
from repro.service.chaos import FlashCrowdConfig, FlashCrowdScenario
from repro.service.harness import DemoConfig, build_item_factory, run_demo
from repro.trace.generator import TraceConfig, Workload, build_workload, iter_users
from repro.trace.io import ShardStoreWriter, TraceShardStore, read_trace, write_trace

from calibrate import StageClock
from spans import Recorder

#: Program-owned worker pools are pinned to this many processes (the
#: sandbox has two cores; load is generated from one process).
POOL_WORKERS = 2

KERNELS = (
    "ingest_round_index",
    "replenish_data_column",
    "replenish_energy_column",
    "exp_decay_column",
    "combined_utility_matrix",
    "lyapunov_adjusted_rows",
    "greedy_select_hull",
    "greedy_select",
    "merge_channel_rows_batched",
    "hull_levels_batched",
)


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank quantile (no interpolation), as the service reports it."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def sha256_of(payload) -> str:
    """SHA-256 of a JSON-able payload; floats keep every digit (repr)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Checked:
    """What one pass produced, reduced to numbers."""

    digest: str
    attempted: int
    failed: int
    #: Deterministic end-to-end metrics (must repeat exactly).
    values: dict[str, float]
    #: Amount of work, for the rate metrics: users, notifications, cores.
    work: dict[str, float]
    problems: list[str] = field(default_factory=list)
    #: Counts read off the outputs, reported per layer in the traced run.
    layer_counts: dict[str, float] = field(default_factory=dict)
    #: Per-user digests (cohort workloads), for the sharded comparison.
    digests: list[str] = field(default_factory=list)


# -- cohort workloads (columnar engine off a shard store) ----------------------


def _read_store(path: Path, fraction: float):
    store = TraceShardStore(path)
    stop = max(1, math.ceil(store.n_users * fraction))
    pairs = [
        (int(store.user_ids[position]), store.records_at(position))
        for position in range(stop)
    ]
    return store, pairs


class CohortWorkload:
    """Exactly the body of ``pool._columnar_outcomes_for_range``, staged."""

    cores = 1
    #: Users written between two calibration slices during set-up.
    setup_chunk = 150
    #: Scalar-twin parity sample of the deep check.
    twin_users = 6

    def __init__(self, name: str, multichannel: bool, users: dict[str, int]):
        self.name = name
        self.multichannel = multichannel
        self._users = users
        self.wraps = [
            (
                "repro.experiments.columnar",
                "build_device_columns",
                "runtime.columnar.build_device_columns",
            )
        ] + [
            ("repro.runtime.kernels", fn, f"runtime.kernels.{fn}")
            for fn in KERNELS
        ]

    def setup(self, directory: Path, seed: int, scale: str, clock: StageClock):
        trace_config = TraceConfig(seed=seed)
        stream = iter_users(
            self._users[scale], trace_config, mean_rate_per_hour=1.0
        )
        users = records = 0

        def write_chunk(writer, chunk):
            for user_id, user_records in chunk:
                if user_records:
                    writer.append(user_id, user_records)

        with clock, ShardStoreWriter(directory / "store") as writer:
            while True:
                chunk = clock.stage(
                    "trace.generator.iter_users",
                    lambda: list(islice(stream, self.setup_chunk)),
                    calibrate=False,
                )
                if not chunk:
                    break
                clock.stage("trace.io.store_write", write_chunk, writer, chunk)
                users += sum(1 for _, r in chunk if r)
                records += sum(len(r) for _, r in chunk)
            clock.stage("trace.io.store_write", writer.close, calibrate=False)
        return {
            "seed": seed,
            "users": users,
            "records": records,
            "duration_seconds": trace_config.duration_hours * 3600.0,
        }

    def _config(self, manifest) -> ExperimentConfig:
        # 10 MB/week binds: full-ladder demand is ~86 MB per user-week.
        return ExperimentConfig(
            weekly_budget_mb=10.0,
            seed=manifest["seed"],
            network_mode=(
                NetworkMode.MARKOV if self.multichannel else NetworkMode.CELL_ONLY
            ),
        )

    def _channels(self):
        if not self.multichannel:
            return None
        return ChannelSet(
            [builtin_channel(name) for name in ("push", "inapp", "email")]
        )

    def _prepare(self, directory: Path, manifest, clock: StageClock, fraction):
        """Store on disk -> an engine ready to run (the stages before it)."""
        spec = MethodSpec(Method.RICHNOTE)
        config = self._config(manifest)
        duration = manifest["duration_seconds"]
        ladder = build_audio_ladder(config.presentation_spec)
        store, pairs = clock.stage(
            "trace.io.read", _read_store, directory / "store", fraction
        )
        scores = clock.stage(
            "experiments.pool.oracle_scores", oracle_scores, pairs,
            calibrate=False,
        )
        annotations = UtilityAnnotations(scores=scores)
        columns = clock.stage(
            "experiments.columnar.build_cohort",
            build_cohort, pairs, annotations, ladder,
            calibrate=False,
        )
        engine = clock.stage(
            "experiments.columnar.make_engine",
            make_engine, columns, spec, config, duration,
            channels=self._channels(),
        )
        store.close()
        return {
            "pairs": pairs,
            "annotations": annotations,
            "columns": columns,
            "engine": engine,
            "config": config,
            "spec": spec,
            "duration": duration,
        }

    def body(self, directory: Path, manifest, clock: StageClock, fraction=1.0):
        with clock:
            outputs = self._prepare(directory, manifest, clock, fraction)
            result = clock.stage("runtime.columnar.run", outputs["engine"].run)
            outputs["result"] = result
            outputs["outcomes"] = clock.stage(
                "experiments.columnar.fold_outcomes",
                fold_outcomes, outputs["columns"], result, digest_deliveries=True,
            )
        return outputs

    def check(self, outputs, manifest, deep: bool) -> Checked:
        outcomes = outputs["outcomes"]
        result = outputs["result"]
        config = outputs["config"]
        problems: list[str] = []
        failed = 0
        byte_cap = config.theta_bytes_per_round * result.rounds * (1 + 1e-9)
        for outcome in outcomes:
            m = outcome.metrics
            ok = (
                m.delivered_notifications + outcome.final_queue_length
                <= m.total_notifications
            )
            if not self.multichannel:
                # Billed and wire bytes coincide on the single push channel.
                ok = ok and m.delivered_bytes <= byte_cap
            if not ok:
                failed += 1
                problems.append(f"user {m.user_id}: invariant violated")
        digests = [outcome.delivery_digest for outcome in outcomes]
        if deep and not self.multichannel:
            # The scalar per-user loop is the reference implementation.
            for (user_id, records), digest in zip(
                outputs["pairs"][: self.twin_users], digests
            ):
                twin = run_user(
                    user_id, records, outputs["spec"], config,
                    outputs["annotations"], outputs["duration"],
                    digest_deliveries=True,
                )
                if twin.delivery_digest != digest:
                    failed += 1
                    problems.append(f"user {user_id}: columnar != scalar twin")

        created = outputs["columns"].cohort.created_at
        delays = np.concatenate(
            [
                np.asarray([d[0] for d in user], dtype=np.float64)
                - created[np.asarray([d[1] for d in user], dtype=np.int64)]
                for user in result.deliveries
                if user
            ]
        )
        delivered = sum(o.metrics.delivered_notifications for o in outcomes)
        total = sum(o.metrics.total_notifications for o in outcomes)
        delivered_mb = sum(o.metrics.delivered_bytes for o in outcomes) / 1e6
        utility = sum(o.metrics.total_utility for o in outcomes)
        joules = sum(o.metrics.energy_joules for o in outcomes)
        engine = outputs["engine"]
        hits = getattr(engine, "merge_cache_hits", None)
        misses = getattr(engine, "merge_cache_misses", None)
        if hits is None or misses is None:
            hit_ratio = None
        else:
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        return Checked(
            digest=hashlib.sha256("\n".join(digests).encode()).hexdigest(),
            attempted=len(outcomes),
            failed=failed,
            values={
                "utility_per_mb": utility / delivered_mb,
                "joules_per_user_round": joules / (len(outcomes) * result.rounds),
                "latency_p50_s": nearest_rank(delays, 0.50),
                "latency_p99_s": nearest_rank(delays, 0.99),
                "goodput_ratio": delivered / total,
            },
            work={
                "users": len(outcomes),
                "notifications": total,
                "cores": self.cores,
                "rounds": result.rounds,
                "deliveries": delivered,
            },
            problems=problems,
            layer_counts={"runtime.columnar.merge_cache_hit_ratio": hit_ratio},
            digests=digests,
        )

    def extras(self, directory: Path, manifest, context) -> dict:
        """Single-stepped rounds; on the push cohort also the sharded run."""
        prepared = self._prepare(directory, manifest, StageClock(), 1.0)
        engine, spec, config, duration = (
            prepared[key] for key in ("engine", "spec", "config", "duration")
        )
        rounds = context["checked"].work["rounds"]
        samples = []
        clock = StageClock()
        with clock:
            for _ in range(rounds):
                start = time.perf_counter()
                engine.run(limit_rounds=1)
                samples.append(time.perf_counter() - start)
        to_ms = 1000.0 / clock.speed
        layers = {
            "runtime.columnar.round_ms_p50": nearest_rank(samples, 0.50) * to_ms,
            "runtime.columnar.round_ms_p90": nearest_rank(samples, 0.90) * to_ms,
        }
        if self.multichannel:
            return layers
        clock = StageClock()
        with clock:
            sharded = clock.stage(
                "experiments.pool.sharded",
                run_store_columnar_parallel,
                directory / "store", spec, config, duration,
                workers=POOL_WORKERS, digest_deliveries=True,
            )
        match = [o.delivery_digest for o in sharded] == context["checked"].digests
        if not match:
            context["problems"].append("sharded digests != in-process digests")
        layers.update(
            {
                "experiments.pool.sharded_wall_s": clock.reference_s,
                "experiments.pool.sharded_speedup": (
                    context["untraced_wall_s"] / clock.reference_s
                ),
                "experiments.pool.sharded_digest_match": int(match),
            }
        )
        return layers


# -- the paper's budget sweep (scalar loop on the experiment pool) -------------


class PaperSweepWorkload:
    name = "paper-sweep"
    cores = POOL_WORKERS
    #: (preset, users kept) of the generated trace.
    _sizes = {"full": ("medium", 12), "smoke": ("small", 6)}
    #: In-process sample of the traced run.
    sample_users = 3
    wraps = [
        ("repro.ml.forest.RandomForestClassifier", "fit", "ml.forest.fit"),
        (
            "repro.ml.forest.RandomForestClassifier",
            "predict_proba",
            "ml.forest.predict_proba",
        ),
        ("repro.experiments.pool.ExperimentPool", "__init__", "experiments.pool.init"),
        (
            "repro.experiments.pool.ExperimentPool",
            "run_cells",
            "experiments.pool.run_cells",
        ),
        (
            "repro.experiments.pool.ExperimentPool",
            "shutdown",
            "experiments.pool.shutdown",
        ),
    ]

    def setup(self, directory: Path, seed: int, scale: str, clock: StageClock):
        preset, keep = self._sizes[scale]
        # The calibrated world (catalog + social graph) stays the preset's;
        # the seed draws the week of activity in it.  A seeded *world* at
        # this size swings the trace 8x in volume (one hub user or hit
        # artist), which would drown every other effect.
        base = workload_spec(preset)
        spec = dataclasses.replace(
            base, trace=dataclasses.replace(base.trace, seed=seed)
        )

        def build_mid_pack(spec):
            # Users ranked keep..2*keep by volume: typical users, not the
            # few hubs whose week-to-week volume (and one-user batches)
            # would set the pool's wall on their own.
            workload = build_workload(spec)
            ranked = workload.top_users(2 * keep)[keep:]
            kept = set(ranked)
            return [r for r in workload.records if r.recipient_id in kept]

        with clock:
            records = clock.stage(
                "trace.generator.build_workload", build_mid_pack, spec
            )
            count = clock.stage(
                "trace.io.write_trace",
                write_trace, directory / "trace.jsonl", records,
            )
        return {
            "seed": seed,
            "users": keep,
            "records": count,
            "duration_hours": base.trace.duration_hours,
        }

    def _load(self, directory: Path, manifest, clock: StageClock):
        records = clock.stage(
            "trace.io.read_trace", read_trace, directory / "trace.jsonl"
        )
        workload = clock.stage(
            "trace.generator.from_records",
            Workload.from_records, records,
            duration_hours=manifest["duration_hours"],
            calibrate=False,
        )
        annotations = clock.stage(
            "ml.train", UtilityAnnotations.train, workload, seed=manifest["seed"]
        )
        return workload, annotations

    def body(self, directory: Path, manifest, clock: StageClock, fraction=1.0):
        config = ExperimentConfig(seed=manifest["seed"])
        specs = paper_method_specs()
        with clock:
            workload, annotations = self._load(directory, manifest, clock)
            user_ids = None
            if fraction < 1.0:
                everyone = workload.user_ids()
                user_ids = everyone[: max(2, math.ceil(len(everyone) * fraction))]
            grid = clock.stage(
                "experiments.pool.sweep_budgets_parallel",
                sweep_budgets_parallel,
                workload, specs, PAPER_BUDGET_SWEEP_MB, config, annotations,
                user_ids, max_workers=POOL_WORKERS, keep_per_user=False,
            )
        return {
            "workload": workload,
            "annotations": annotations,
            "grid": grid,
            "config": config,
            "specs": specs,
        }

    def check(self, outputs, manifest, deep: bool) -> Checked:
        grid = outputs["grid"]
        specs = outputs["specs"]
        config = outputs["config"]
        users = manifest["users"]
        rounds = int(manifest["duration_hours"])
        problems: list[str] = []
        failed = 0
        rows = []
        for budget in PAPER_BUDGET_SWEEP_MB:
            for spec in specs:
                result = grid.get((spec.label, budget))
                if result is None:
                    failed += users
                    problems.append(f"cell {spec.label}@{budget} missing")
                    continue
                aggregate = result.aggregate
                rows.append([spec.label, budget, aggregate.row()])
                # No policy may deliver past the weekly data budget.
                if (
                    aggregate.users != users
                    or not 0.0 <= aggregate.delivery_ratio <= 1.0
                    or aggregate.delivered_mb
                    > budget * users * rounds / 168.0 * (1 + 1e-9)
                ):
                    failed += users
                    problems.append(f"cell {spec.label}@{budget}: invariant violated")
        if deep:
            # The pool's contract: bit-identical to the sequential runner.
            probe = config.with_budget(10.0)
            sequential = run_experiment(
                outputs["workload"], specs[0], probe, outputs["annotations"]
            )
            if sequential.aggregate.row() != grid[(specs[0].label, 10.0)].aggregate.row():
                failed += users
                problems.append("pool cell != sequential run_experiment")

        richnote = [
            grid[(specs[0].label, budget)].aggregate
            for budget in PAPER_BUDGET_SWEEP_MB
            if (specs[0].label, budget) in grid
        ]
        delays = [a.mean_queuing_delay_s for a in richnote]
        cells = len(PAPER_BUDGET_SWEEP_MB) * len(specs)
        return Checked(
            digest=sha256_of(rows),
            attempted=cells * users,
            failed=failed,
            values={
                "utility_per_mb": (
                    sum(a.total_utility for a in richnote)
                    / sum(a.delivered_mb for a in richnote)
                ),
                "joules_per_user_round": (
                    sum(a.energy_kilojoules for a in richnote) * 1e3
                    / (len(richnote) * users * rounds)
                ),
                # Mean queuing delay per RichNote cell: median cell, worst cell.
                "latency_p50_s": nearest_rank(delays, 0.50),
                "latency_p99_s": nearest_rank(delays, 0.99),
                "goodput_ratio": (
                    sum(a.delivery_ratio for a in richnote) / len(richnote)
                ),
            },
            work={
                "users": cells * users,
                "notifications": cells * manifest["records"],
                "cores": self.cores,
                "rounds": rounds,
            },
            problems=problems,
        )

    def extras(self, directory: Path, manifest, context) -> dict:
        """An in-process sample of the same grid, and the pool's task shape."""
        config = ExperimentConfig(seed=manifest["seed"])
        specs = paper_method_specs()
        workload, annotations = self._load(directory, manifest, StageClock())
        sample = workload.user_ids()[: self.sample_users]
        cells = len(PAPER_BUDGET_SWEEP_MB) * len(specs)
        recorder = Recorder()
        clock = StageClock(recorder)
        recorder.wrap("repro.runtime.loop.RoundLoop", "run_round", "runtime.loop.run_round")
        try:
            with clock:
                clock.stage(
                    "experiments.runner.sweep_budgets",
                    sweep_budgets,
                    workload, specs, PAPER_BUDGET_SWEEP_MB, config, annotations,
                    sample,
                )
        finally:
            recorder.restore()
        context["missing"] |= recorder.missing
        user_cell_s = clock.reference_s / (cells * len(sample))
        layers = {"experiments.runner.user_cell_ms": user_cell_s * 1e3}
        rounds = recorder.totals().get("runtime.loop.run_round")
        if rounds is not None:
            layers["runtime.loop.run_round_s"] = rounds.total_s / clock.speed
            layers["runtime.loop.run_round_calls"] = rounds.calls
            layers["runtime.loop.run_round_us"] = (
                rounds.total_s / clock.speed / rounds.calls * 1e6
            )
        with ExperimentPool(
            workload, annotations=annotations, max_workers=POOL_WORKERS
        ) as pool:
            layers["experiments.pool.tasks"] = cells * len(pool.batches)
            layers["experiments.pool.task_payload_bytes"] = len(
                pool.cell_payload(specs[0], config)
            )
        layers["experiments.pool.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        run_cells_s = context["layers"].get("experiments.pool.run_cells_s")
        if run_cells_s:
            layers["experiments.pool.parallel_efficiency"] = (
                cells * manifest["users"] * user_cell_s
                / (POOL_WORKERS * run_cells_s)
            )
        return layers


# -- the live service under a flash crowd --------------------------------------


class ServiceWorkload:
    """``run_demo`` sessions on the simulated clock (open loop, lateness 0).

    One repeat is several independent sessions (think regions), each with
    its own derived seed: tail latency in a single flash crowd depends on
    when the ladder happens to escalate, so one session's p99 moves ~20 %
    from seed to seed; pooling sessions steadies it, and the gaps between
    sessions are where the calibration slices go.
    """

    name = "service-flash-crowd"
    cores = 1
    queue_bound = 32
    #: (sessions, users, rounds)
    _sizes = {"full": (6, 64, 18), "smoke": (2, 16, 6)}
    wraps = [
        ("repro.service.server.NotificationService", "ingest", "service.server.ingest"),
        ("repro.service.ratelimit.TieredRateLimiter", "allow", "service.ratelimit.allow"),
        ("repro.service.queues.IngestFrontier", "offer", "service.queues.offer"),
        ("repro.service.queues.IngestFrontier", "drain", "service.queues.drain"),
        ("repro.service.degrade.DegradationController", "update", "service.degrade.update"),
        ("repro.runtime.loop.RoundLoop", "run_round", "runtime.loop.run_round"),
    ]

    def _demo_config(self, seed: int, session: int, users: int, rounds: int):
        duration = rounds * 60.0
        return DemoConfig(
            users=users,
            rounds=rounds,
            queue_bound=self.queue_bound,
            seed=seed * 1000 + session,
            # ~2 notifications per user-minute, x6 for the middle third:
            # the ladder reaches SHED and recovers to NORMAL.
            flash_crowd=FlashCrowdConfig(
                n_users=users,
                duration_seconds=duration,
                base_rate=users / 30.0,
                crowd_start=duration / 3.0,
                crowd_duration=duration / 3.0,
                crowd_multiplier=6.0,
            ),
        )

    def setup(self, directory: Path, seed: int, scale: str, clock: StageClock):
        sessions, users, rounds = self._sizes[scale]
        events = []

        def write_schedule(path, schedule):
            with open(path, "w", encoding="utf-8") as handle:
                for event in schedule:
                    handle.write(
                        json.dumps([event.time, event.user_id, event.kind.value])
                        + "\n"
                    )

        with clock:
            for session in range(sessions):
                config = self._demo_config(seed, session, users, rounds)
                scenario = FlashCrowdScenario(
                    config.crowd_config(), build_item_factory(config), config.seed
                )
                schedule = clock.stage(
                    "service.chaos.schedule", scenario.schedule, calibrate=False
                )
                clock.stage(
                    "service.harness.write_schedule",
                    write_schedule, directory / f"schedule-{session}.jsonl", schedule,
                )
                events.append(len(schedule))
        return {
            "seed": seed,
            "sessions": sessions,
            "users": users,
            "rounds": rounds,
            "events": events,
        }

    def body(self, directory: Path, manifest, clock: StageClock, fraction=1.0):
        sessions, users, rounds = (
            manifest["sessions"], manifest["users"], manifest["rounds"]
        )
        if fraction < 1.0:
            sessions, users, rounds = 1, max(8, math.ceil(users * fraction)), 6
        with clock:
            runs = [
                clock.stage(
                    "service.harness.run_demo",
                    run_demo,
                    self._demo_config(manifest["seed"], session, users, rounds),
                )
                for session in range(sessions)
            ]
        return {"runs": runs}

    def check(self, outputs, manifest, deep: bool) -> Checked:
        problems: list[str] = []
        failed = 0
        ledger = []
        latencies: list[float] = []
        totals = dict.fromkeys(
            (
                "ingested", "delivered", "shed", "dead_lettered", "utility",
                "bytes", "joules", "attempts", "retries", "breaker_skips",
                "transitions", "ticks", "rounds_run",
            ),
            0.0,
        )
        high_water = 0
        for session, run in enumerate(outputs["runs"]):
            service = run.service
            stats = service.stats
            accounting = service.accounting()
            session_high = service.frontier.high_water()
            if accounting["error"] != 0:
                failed += abs(accounting["error"])
                problems.append(f"session {session}: conservation error")
            if session_high > self.queue_bound:
                failed += 1
                problems.append(f"session {session}: queue above its bound")
            # Open loop: every scheduled arrival was offered, none late.
            if not (
                len(run.ingest_results)
                == manifest["events"][session]
                == stats.ingested
            ):
                failed += 1
                problems.append(f"session {session}: arrivals != schedule on disk")
            ledger.append(
                [
                    accounting,
                    stats.latency_quantile(0.50),
                    stats.latency_quantile(0.99),
                ]
            )
            latencies.extend(stats.latencies)
            high_water = max(high_water, session_high)
            totals["ingested"] += stats.ingested
            totals["delivered"] += stats.delivered
            totals["shed"] += stats.shed
            totals["dead_lettered"] += stats.dead_lettered
            totals["utility"] += stats.delivered_utility
            totals["bytes"] += stats.delivered_bytes
            totals["joules"] += sum(
                service.loop_for(user).device.stats.energy_spent_joules
                for user in range(manifest["users"])
            )
            for sink in service.sinks:
                totals["attempts"] += sink.stats.attempts
                totals["retries"] += sink.stats.retries
                totals["breaker_skips"] += sink.stats.breaker_skips
            totals["transitions"] += len(service.controller.transitions)
            totals["ticks"] += stats.ticks
            totals["rounds_run"] += stats.rounds_run
        user_rounds = manifest["sessions"] * manifest["users"] * manifest["rounds"]
        ingested = int(totals["ingested"])
        return Checked(
            digest=sha256_of(ledger),
            attempted=ingested,
            failed=failed,
            values={
                "utility_per_mb": totals["utility"] / (totals["bytes"] / 1e6),
                "joules_per_user_round": totals["joules"] / user_rounds,
                "latency_p50_s": nearest_rank(latencies, 0.50),
                "latency_p99_s": nearest_rank(latencies, 0.99),
                "goodput_ratio": totals["delivered"] / ingested,
            },
            work={
                "users": manifest["sessions"] * manifest["users"],
                "notifications": ingested,
                "cores": self.cores,
                "rounds": manifest["rounds"],
            },
            problems=problems,
            layer_counts={
                "service.sinks.attempts": totals["attempts"],
                "service.sinks.retries": totals["retries"],
                "service.sinks.breaker_skips": totals["breaker_skips"],
                "service.sinks.useful_ratio": (
                    totals["delivered"] / totals["attempts"]
                ),
                "service.server.shed_ratio": totals["shed"] / ingested,
                "service.server.dead_letter_ratio": (
                    totals["dead_lettered"] / ingested
                ),
                "service.queues.high_water": high_water,
                "service.degrade.transitions": totals["transitions"],
                "service.server.ticks": totals["ticks"],
                "service.server.rounds_run": totals["rounds_run"],
            },
        )

    def extras(self, directory: Path, manifest, context) -> dict:
        return {}


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperSweepWorkload(),
        CohortWorkload("cohort-push", False, {"full": 1200, "smoke": 60}),
        CohortWorkload("cohort-multichannel", True, {"full": 800, "smoke": 40}),
        ServiceWorkload(),
    )
}
