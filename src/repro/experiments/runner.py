"""Trace-driven simulation runner (Section V-C's experimental loop).

For each user, the runner replays all notifications intended for them "as a
stream of content items arriving at our scheduling and delivery system",
drives the round-based scheduler on the shared round clock, and
joins the realized deliveries with the trace's ground-truth clicks to
produce the Section V-C metrics.

Content utility is annotated up front: a Random Forest is trained on the
workload's attended (clicked-vs-hovered) records and every notification is
scored once -- the scores, a :class:`ScoreTable` (two aligned columns, no
Python object per notification), are then shared by all (method, budget)
cells of a sweep, exactly as a deployed model would be.

Delivery digests, the parity surface between engines, have one
implementation: :func:`delivery_digests`, over a cohort's columns.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter, index, sub
from typing import Sequence

import numpy as np

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.delivery import DeliveryEngine, DeliveryStats
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel
from repro.experiments.adapters import record_to_item
from repro.experiments.config import ExperimentConfig, MethodSpec, NetworkMode
from repro.experiments.metrics import (
    AggregateMetrics,
    UserMetrics,
    aggregate,
    compute_user_metrics,
    segment_bounds,
)
from repro.runtime import registry
from repro.runtime.columnar import round_arrivals
from repro.runtime.loop import RoundLoop
from repro.runtime.types import Delivery
from repro.sim.faults import RandomFaultPolicy
from repro.ml.crossval import CrossValResult, cross_validate
from repro.ml.dataset import FeatureExtractor, build_training_set
from repro.ml.forest import RandomForestClassifier
from repro.sim.battery import DiurnalBatteryModel
from repro.sim.device import MobileDevice
from repro.sim.energy import TransferEnergyModel
from repro.sim.network import CellularOnlyNetwork, MarkovNetworkModel
from repro.trace.generator import Workload, stream_seed
from repro.trace.io import shard_columns
from repro.trace.records import NotificationRecord


#: One (spec, weekly budget in MB) cell of a sweep grid.
Cell = tuple[MethodSpec, float]


def shard_by_user(
    records: Sequence[NotificationRecord], user_ids: Sequence[int]
) -> dict[int, list[NotificationRecord]]:
    """Group ``records`` by recipient, restricted to ``user_ids``.

    Every requested user gets an entry (possibly empty); record order
    within a shard follows the input order, which for a
    :class:`~repro.trace.generator.Workload` is timestamp order (the
    order the simulator replays them in).
    """
    by_user: dict[int, list[NotificationRecord]] = {u: [] for u in user_ids}
    for record in records:
        shard = by_user.get(record.recipient_id)
        if shard is not None:
            shard.append(record)
    return by_user


def _forest_factory(seed: int):
    """The content-utility classifier configuration (speed-tuned RF)."""
    return RandomForestClassifier(
        n_estimators=15,
        max_depth=8,
        min_samples_leaf=5,
        max_features="sqrt",
        random_state=seed,
    )


class ScoreTable(Mapping):
    """Per-notification content utility ``U_c``: a read-only
    ``Mapping[int, float]`` over two aligned columns.

    ``id_column`` holds the notification ids, sorted and unique (int64);
    ``score_column`` their scores (float64) -- 16 bytes a notification and
    no Python object per entry.  Built from any ``ids`` / ``scores`` pair of
    one length; a repeated id keeps its last score, as building a ``dict``
    from the pairs would.  :meth:`lookup` gathers many scores with one
    ``searchsorted``; ``table[item_id]`` is one score as a Python float.
    Either way the bits are the ones stored.  Equal to any mapping with the
    same items, a ``dict`` included; iteration is in id order.
    """

    def __init__(self, ids, scores) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != scores.shape:
            raise ValueError(
                f"ids and scores must be 1-D columns of one length, got "
                f"shapes {ids.shape} and {scores.shape}"
            )
        # A stable sort keeps a repeated id's scores in input order: the
        # last of each run of equal ids is the one a dict would keep.
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        last = np.ones(len(ids), dtype=bool)
        last[:-1] = ids[1:] != ids[:-1]
        self.id_column, self.score_column = ids[last], scores[order[last]]

    def lookup(self, ids) -> np.ndarray:
        """The scores of ``ids``, in their order, as one float64 column;
        ``KeyError`` names the first id the table lacks."""
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(self.id_column, ids)
        if len(self.id_column):
            known = self.id_column[np.minimum(at, len(self.id_column) - 1)] == ids
        else:
            known = np.zeros(ids.shape, dtype=bool)
        if not known.all():
            raise KeyError(int(ids[~known][0]))
        return self.score_column[at]

    def __getitem__(self, item_id: int) -> float:
        try:
            (score,) = self.lookup([index(item_id)])
        except (TypeError, OverflowError):  # not an int64: no such key
            raise KeyError(item_id) from None
        return float(score)

    def __iter__(self):
        return iter(self.id_column.tolist())

    def __len__(self) -> int:
        return len(self.id_column)


@dataclass
class UtilityAnnotations:
    """Per-notification content-utility scores plus classifier diagnostics.

    ``scores`` is a :class:`ScoreTable`; any other mapping of notification
    id to score (a ``dict``, say) is converted to one on construction.
    """

    scores: ScoreTable
    cross_validation: CrossValResult | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scores, ScoreTable):
            self.scores = ScoreTable(list(self.scores), list(self.scores.values()))

    @classmethod
    def train(
        cls,
        workload: Workload,
        seed: int = 97,
        max_training_samples: int = 8000,
        run_cross_validation: bool = False,
        oracle: bool = False,
    ) -> "UtilityAnnotations":
        """Train on attended records and score every record in the workload.

        The table is built straight from the records' id column and the
        forest's probability column.  ``oracle=True`` bypasses learning and
        scores from ground truth (ablation: perfect content utility):
        clicked records 0.9, the rest 0.1.
        """
        if oracle:
            ids, clicked = shard_columns(workload.records, ("notification_id", "clicked"))
            return cls(scores=ScoreTable(ids, np.where(clicked, 0.9, 0.1)))

        extractor = FeatureExtractor()
        x, y = build_training_set(workload.records, extractor)
        if len(x) > max_training_samples:
            rng = np.random.default_rng(seed)
            keep = rng.choice(len(x), size=max_training_samples, replace=False)
            x, y = x[keep], y[keep]

        cv = None
        if run_cross_validation:
            cv = cross_validate(
                lambda: _forest_factory(seed), x, y, n_folds=5, random_state=seed
            )

        forest = _forest_factory(seed).fit(x, y)
        # Vectorized scoring: one array pass over the whole workload
        # (bit-identical to per-record extraction -- see
        # repro.runtime.kernels.feature_matrix).
        all_features = extractor.features_for_records(workload.records)
        (ids,) = shard_columns(workload.records, ("notification_id",))
        scores = ScoreTable(ids, forest.predict_proba(all_features)[:, 1])
        return cls(scores=scores, cross_validation=cv)


@dataclass
class UserRunOutcome:
    """One user's metrics plus queue-stability diagnostics.

    ``delivery_digest`` is filled only on request (``run_user(...,
    digest_deliveries=True)``): a SHA-256 over the user's realized
    delivery sequence, used by parity tests to compare execution engines
    without shipping the deliveries themselves across processes.
    """

    metrics: UserMetrics
    mean_backlog_bytes: float
    max_queue_length: int
    final_queue_length: int
    failures: DeliveryStats = field(default_factory=DeliveryStats)
    delivery_digest: str | None = None


@dataclass
class CellSummary:
    """Cross-user diagnostics of one cell, folded without the per-user list.

    Produced by streaming executors (``keep_per_user=False`` on the
    experiment pool) so :class:`ExperimentResult` keeps its backlog and
    failure views even when the per-user outcomes were discarded as they
    streamed back.
    """

    mean_backlog_bytes: float = 0.0
    max_queue_length: int = 0
    failures: DeliveryStats = field(default_factory=DeliveryStats)


@dataclass
class ExperimentResult:
    """One (method, configuration) cell of an experiment grid."""

    spec: MethodSpec
    config: ExperimentConfig
    aggregate: AggregateMetrics
    per_user: list[UserRunOutcome] = field(default_factory=list)
    summary: CellSummary | None = None

    @property
    def mean_backlog_bytes(self) -> float:
        if not self.per_user:
            return self.summary.mean_backlog_bytes if self.summary else 0.0
        return sum(u.mean_backlog_bytes for u in self.per_user) / len(self.per_user)

    @property
    def failures(self) -> DeliveryStats:
        """Cross-user fault ledger of this cell: the users' engine ledgers
        merged in user order."""
        if not self.per_user and self.summary is not None:
            return self.summary.failures
        totals = DeliveryStats()
        for user in self.per_user:
            totals.merge(user.failures)
        return totals


def _device_stream_seed(seed: int, user_id: int) -> int:
    """Stable per-user seed for connectivity/battery randomness."""
    return stream_seed(seed, user_id, 29)


def _row_texts(column: np.ndarray, template: str) -> list[str]:
    """``template % value`` for every row of ``column``.

    A numeric column renders each distinct *bit pattern* once (its
    same-width integer view, so ``0.0`` / ``-0.0`` and NaN payloads never
    share a text) and rows gather their text by code; an object column
    renders each row from the object it holds.
    """
    if column.dtype == object:
        return [template % (value,) for value in column.tolist()]
    keys, codes = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    texts = np.array(
        [template % (value,) for value in keys.view(column.dtype).tolist()], dtype=object
    )
    return texts[codes].tolist()


def delivery_digests(
    offsets: Sequence[int], user_ids: Sequence[int],
    times: np.ndarray, item_ids: np.ndarray, levels: np.ndarray,
    sizes: np.ndarray, energies: np.ndarray, utilities: np.ndarray,
) -> list[str]:
    """One SHA-256 per user over delivery rows given as cohort columns.

    Segment ``s`` -- rows ``offsets[s]:offsets[s + 1]``, all delivered to
    ``user_ids[s]`` -- hashes the bytes of ``"".join(map(repr, rows))`` over
    its ``(time, user, item, level, size, energy, realized utility)`` tuples
    in delivery order: the exact fields the runtime-extraction golden tests
    pin.  Two engines that produce the same digest for every user produced
    bit-identical delivery streams.  The only digest implementation: the
    scalar path reaches it through :func:`delivery_digest`.  ``offsets``
    must cut every column into exactly ``len(user_ids)`` whole segments
    (``ValueError`` otherwise).

    The call's text is built column by column, once: eight pieces per row,
    the row's ``repr`` with its separators folded into the pieces, and each
    segment hashes the run of that one piece list its rows hold.  A float's
    ``repr`` is the expensive part, and ``times`` / ``energies`` (round
    grid, batch-energy shares) as well as ``levels`` / ``sizes`` repeat a
    few values, so those four come from :func:`_row_texts` tables; only the
    item id and the realized utility are rendered per row.  The pieces live
    as long as the call, so a caller bounds them by the rows it passes.
    """
    bounds = segment_bounds(
        offsets, len(user_ids), times, item_ids, levels, sizes, energies, utilities
    )
    pieces = [")"] * (8 * bounds[-1])  # piece 7 of a row closes its tuple
    pieces[0::8] = _row_texts(np.asarray(times, dtype=np.float64), "(%r, ")
    pieces[1::8] = chain.from_iterable(
        map(repeat, (f"{user_id!r}, " for user_id in user_ids), map(sub, bounds[1:], bounds))
    )
    pieces[2::8] = map(repr, np.asarray(item_ids).tolist())
    pieces[3::8] = _row_texts(np.asarray(levels), ", %r, ")
    pieces[4::8] = _row_texts(np.asarray(sizes), "%r, ")
    pieces[5::8] = _row_texts(np.asarray(energies, dtype=np.float64), "%r, ")
    pieces[6::8] = map(repr, np.asarray(utilities).tolist())
    return [
        hashlib.sha256("".join(pieces[8 * lo : 8 * hi]).encode()).hexdigest()
        for lo, hi in zip(bounds, bounds[1:])
    ]


def delivery_digest(deliveries: Sequence[Delivery]) -> str:
    """:func:`delivery_digests` of one user's ``Delivery`` objects (non-float
    fields as object columns: each is rendered from the object it holds)."""
    item_ids, levels, sizes, utilities = (
        np.array(values, dtype=object)
        for values in (
            [d.item.item_id for d in deliveries], [d.level for d in deliveries],
            [d.size_bytes for d in deliveries], [d.utility for d in deliveries],
        )
    )
    return delivery_digests(
        [0, len(deliveries)], [deliveries[0].user_id if deliveries else None],
        [d.time for d in deliveries], item_ids, levels, sizes,
        [d.energy_joules for d in deliveries], utilities,
    )[0]


def _build_scheduler(
    spec: MethodSpec,
    config: ExperimentConfig,
    device: MobileDevice,
    utility_model: CombinedUtilityModel,
    channels=None,
) -> RoundLoop:
    """One user's round loop, its policy resolved through the registry.

    The runner never imports concrete policy classes: ``spec`` carries
    the registry key (one of the paper's three methods) plus parameters.
    Under ``config.faults`` the loop drains through a fault-injecting
    engine on the user's fault/backoff stream (salt 13); without, through
    its default engine, where every attempt succeeds.
    """
    engine = None
    if config.faults is not None:
        engine = DeliveryEngine(
            fault_policy=RandomFaultPolicy(config.faults),
            retry=config.retry,
            rng=random.Random(stream_seed(config.seed, device.user_id, 13)),
        )
    return RoundLoop(
        device,
        DataBudget(theta_bytes=config.theta_bytes_per_round),
        EnergyBudget(kappa_joules=config.kappa_joules_per_round),
        utility_model,
        delivery_engine=engine,
        policy=registry.create(spec.policy_name, **spec.policy_params(config)),
        channels=channels,
    )


def _build_device(
    user_id: int, config: ExperimentConfig, duration_seconds: float
) -> MobileDevice:
    seed = _device_stream_seed(config.seed, user_id)
    if config.network_mode is NetworkMode.MARKOV:
        network = MarkovNetworkModel(rng=random.Random(seed))
    else:
        network = CellularOnlyNetwork()
    battery = DiurnalBatteryModel(rng=random.Random(seed + 1)).generate(
        duration_seconds + config.round_seconds,
        sample_period_seconds=config.round_seconds,
    )
    return MobileDevice(
        user_id=user_id,
        network=network,
        battery=battery,
        energy_model=TransferEnergyModel(),
        expected_batch=config.expected_batch,
    )


def run_user(
    user_id: int,
    records: Sequence[NotificationRecord],
    spec: MethodSpec,
    config: ExperimentConfig,
    annotations: UtilityAnnotations,
    duration_seconds: float,
    ladder=None,
    digest_deliveries: bool = False,
    *,
    channels=None,
) -> UserRunOutcome:
    """Replay one user's notification stream under one policy.

    The scalar reference: one :class:`~repro.runtime.loop.RoundLoop` on
    the round clock of :func:`~repro.runtime.columnar.round_arrivals`
    (items stable-sorted by ``created_at``), and the only runner for fault
    injection.  ``ladder`` is the presentation ladder of
    ``config.presentation_spec``; it is identical for every user of a
    cell, so cell-level callers build it once and pass it in (``None``
    rebuilds it, for standalone use).  ``channels`` (a
    :class:`~repro.core.channels.ChannelSet`) configures multi-channel
    delivery, as on ``run_users_columnar``.
    """
    if ladder is None:
        ladder = build_audio_ladder(config.presentation_spec)
    (ids,) = shard_columns(records, ("notification_id",))
    scores = annotations.scores.lookup(ids)
    # ``replace`` re-runs the constructor, so a score outside [0, 1] raises.
    items = sorted((
        replace(record_to_item(record, ladder), content_utility=score)
        for record, score in zip(records, scores.tolist())
    ), key=attrgetter("created_at"))

    device = _build_device(user_id, config, duration_seconds)
    scheduler = _build_scheduler(
        spec, config, device, config.utility_model(), channels
    )

    deliveries: list[Delivery] = []
    backlog_samples: list[float] = []
    queue_samples: list[int] = []

    arrived = 0
    for now, end in round_arrivals(
        [item.created_at for item in items], config.round_seconds, duration_seconds
    ):
        for item in items[arrived:end]:
            scheduler.enqueue(item)
        arrived = end
        result = scheduler.run_round(now, config.round_seconds)
        deliveries.extend(result.deliveries)
        backlog_samples.append(result.backlog_bytes_after)
        queue_samples.append(result.queue_length_after)

    metrics = compute_user_metrics(user_id, records, deliveries)
    return UserRunOutcome(
        metrics=metrics,
        mean_backlog_bytes=(
            sum(backlog_samples) / len(backlog_samples) if backlog_samples else 0.0
        ),
        max_queue_length=max(queue_samples, default=0),
        final_queue_length=queue_samples[-1] if queue_samples else 0,
        # Without faults the ledger stays empty, as on the columnar engine.
        failures=(
            DeliveryStats() if config.faults is None
            else scheduler.delivery_engine.stats
        ),
        delivery_digest=delivery_digest(deliveries) if digest_deliveries else None,
    )


def sweep_users(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
    cells: Sequence[Cell],
    config: ExperimentConfig,
    annotations: UtilityAnnotations,
    duration_seconds: float,
    ladder=None,
    digest_deliveries: bool = False,
) -> list[list[UserRunOutcome]]:
    """Replay a batch of users in every cell of one pass (``result[c]``: the
    batch under ``cells[c]``'s spec and ``config.with_budget(budget)``);
    the engine is chosen here.

    A config the columnar engine models
    (:func:`repro.experiments.columnar.supports`) runs every cell as one
    pass over one cohort on :class:`~repro.runtime.columnar.ColumnarEngine`,
    so the cells' specs must share a pass (:func:`spec_passes`); fault
    injection replays cell by cell, user by user, through :func:`run_user`.
    The two are bit-identical where both apply, so the choice is invisible
    in the outcomes.  Every experiment entry
    point -- :func:`run_experiment`, :func:`sweep_budgets`, the pool's task
    -- comes through this function.
    """
    # Function-level import: repro.experiments.columnar imports this module.
    from repro.experiments.columnar import build_cohort, supports, sweep_cohort

    if ladder is None:
        ladder = build_audio_ladder(config.presentation_spec)
    if supports(config):
        return sweep_cohort(
            build_cohort(user_records, annotations, ladder), cells, config,
            duration_seconds, digest_deliveries,
        )
    # A store view rebuilds its records on every walk, and run_user walks
    # them twice: build each user's records once, for every cell.
    user_records = [(user_id, list(records)) for user_id, records in user_records]
    return [
        [
            run_user(
                user_id, records, spec, config.with_budget(budget), annotations,
                duration_seconds, ladder, digest_deliveries,
            )
            for user_id, records in user_records
        ]
        for spec, budget in cells
    ]


def distinct_budgets(budgets_mb: Sequence[float]) -> tuple[float, ...]:
    """The budgets of one sweep; a repeat would run a cell twice and keep one."""
    budgets = tuple(budgets_mb)
    if len(set(budgets)) != len(budgets):
        raise ValueError(f"duplicate budget in sweep: {budgets}")
    return budgets


def distinct_specs(specs: Sequence[MethodSpec]) -> tuple[MethodSpec, ...]:
    """The specs of one sweep; a repeated label would run its cells twice
    (stacked twice into one pass) and keep one."""
    specs = tuple(specs)
    labels = [spec.label for spec in specs]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"duplicate spec {label!r} in sweep")
    return specs


def spec_passes(specs: Sequence[MethodSpec]) -> list[tuple[MethodSpec, ...]]:
    """The engine passes a sweep's specs run in: each RichNote spec alone
    (its Eq. 7 controller is one per engine), every FIFO/UTIL spec together
    (a fixed level and a scoring rule are per-row columns)."""
    fixed = tuple(spec for spec in specs if spec.fixed_level is not None)
    alone = [(spec,) for spec in specs if spec.fixed_level is None]
    return alone + [fixed] if fixed else alone


def run_experiment(
    workload: Workload,
    spec: MethodSpec,
    config: ExperimentConfig,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
) -> ExperimentResult:
    """Run one policy over (a subset of) the workload's users: the
    one-cell :func:`sweep_budgets`."""
    (result,) = sweep_budgets(
        workload, [spec], (config.weekly_budget_mb,), config, annotations, user_ids
    ).values()
    return result


def sweep_budgets(
    workload: Workload,
    specs: Sequence[MethodSpec],
    budgets_mb: Sequence[float],
    base_config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
) -> dict[tuple[str, float], ExperimentResult]:
    """The Figures 3-5 grid: every policy at every weekly budget, one
    :func:`sweep_users` pass per :func:`spec_passes` group."""
    specs = distinct_specs(specs)
    budgets = distinct_budgets(budgets_mb)
    base_config = base_config or ExperimentConfig()
    if annotations is None:
        annotations = UtilityAnnotations.train(
            workload, seed=base_config.seed, oracle=base_config.use_oracle_utility
        )
    duration_seconds = workload.config.duration_hours * 3600.0
    users = list(user_ids) if user_ids is not None else workload.user_ids()
    by_user = shard_by_user(workload.records, users)
    user_records = [(u, by_user[u]) for u in users if by_user[u]]
    if not user_records:
        raise ValueError("no users with notifications to simulate")
    outcomes: dict[tuple[str, float], list[UserRunOutcome]] = {}
    for group in spec_passes(specs):
        cells = [(spec, budget) for spec in group for budget in budgets]
        grid = sweep_users(user_records, cells, base_config, annotations, duration_seconds)
        for (spec, budget), per_user in zip(cells, grid):
            outcomes[(spec.label, budget)] = per_user
    results: dict[tuple[str, float], ExperimentResult] = {}
    for budget in budgets:
        for spec in specs:
            per_user = outcomes[(spec.label, budget)]
            results[(spec.label, budget)] = ExperimentResult(
                spec=spec,
                config=base_config.with_budget(budget),
                aggregate=aggregate([o.metrics for o in per_user]),
                per_user=per_user,
            )
    return results
