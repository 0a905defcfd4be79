"""Cohort-scale experiment execution on the columnar runtime.

Bridges the experiment layer (records, annotations, :class:`MethodSpec`
cells) onto :class:`repro.runtime.columnar.ColumnarEngine`: it builds
one :class:`~repro.runtime.columnar.ColumnarCohort` from many users'
notification streams, runs all of them through a single struct-of-arrays
round loop, and folds the outcome columns back into the exact
per-user :class:`~repro.experiments.runner.UserRunOutcome` objects the
scalar :func:`~repro.experiments.runner.run_user` produces -- bit for
bit, including delivery digests.  The path is columnar end to end: it
reads four columns per user (:func:`repro.trace.io.record_columns`),
never a record object; device columns are one recurrence across users;
and the fold hands the engine's delivery columns, a block of whole users
at a time, to the metric and digest kernels the scalar path adapts to, so
the arithmetic cannot drift between them.  A sweep is one such pass per
RichNote spec plus one for every FIFO/UTIL spec (:func:`sweep_cohort`): the
budget is a per-row ``theta`` column and a baseline's fixed level and
scoring rule are per-row policy columns.

Scope mirrors the engine's: the paper-default pipeline.  :func:`supports`
says whether a config is inside it; the one caller that acts on the
answer is :func:`repro.experiments.runner.sweep_users`, which sends every
experiment entry point here and fault injection to the scalar
``run_user`` -- the parity oracle for everything this path does handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.presentations import build_audio_ladder
from repro.experiments.config import ExperimentConfig, MethodSpec, NetworkMode
from repro.experiments.metrics import user_metrics_from_columns
from repro.experiments.runner import (
    Cell,
    UserRunOutcome,
    UtilityAnnotations,
    _device_stream_seed,
    delivery_digests,
)
from repro.runtime import registry
from repro.runtime.columnar import (
    ColumnarCohort,
    ColumnarEngine,
    build_device_columns,
    round_times,
)
from repro.trace.io import record_columns
from repro.trace.records import NotificationRecord

__all__ = [
    "CohortColumns",
    "build_cohort",
    "concat_record_columns",
    "fold_outcomes",
    "make_engine",
    "make_pass_engine",
    "run_users_columnar",
    "supports",
    "sweep_cohort",
]


def supports(config: ExperimentConfig) -> bool:
    """Whether a config runs on the columnar path.

    The engine models the paper-default pipeline, where every delivery
    attempt succeeds; fault injection stays on the scalar runner.  The
    engine is *chosen* in one place (:func:`repro.experiments.runner.sweep_users`);
    the entry points that only take columnar input raise on ``False``.
    """
    return config.faults is None


@dataclass
class CohortColumns:
    """A built cohort plus the label columns needed to fold results back.

    ``clicked`` / ``click_time`` (``NaN`` = never clicked) align with the
    cohort's flat item columns.
    """

    cohort: ColumnarCohort
    user_ids: list[int]
    clicked: np.ndarray
    click_time: np.ndarray

    def tiled(self, copies: int) -> "CohortColumns":
        """The users ``copies`` times end to end, row ``c * n + u`` a copy of
        user ``u`` of ``n`` (:meth:`ColumnarCohort.tiled`); one copy is
        ``self``, so a one-cell pass copies nothing."""
        if copies == 1:
            return self
        return CohortColumns(
            cohort=self.cohort.tiled(copies),
            user_ids=self.user_ids * copies,
            clicked=np.tile(self.clicked, copies),
            click_time=np.tile(self.click_time, copies),
        )


def concat_record_columns(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
) -> tuple[np.ndarray, ...]:
    """Per-user record counts, then the users' cohort columns end to end."""
    parts = [record_columns(records) for _, records in user_records]
    counts = np.asarray([len(part[0]) for part in parts], dtype=np.int64)
    parts.append(record_columns(()))  # np.concatenate needs one array
    return counts, *(np.concatenate(column) for column in zip(*parts))


def build_cohort(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
    annotations: UtilityAnnotations,
    ladder,
) -> CohortColumns:
    """Flatten many users' streams into one set of columns.

    Within each user, records are stable-sorted by timestamp -- the order
    the scalar replay enqueues them.
    """
    user_ids = [user_id for user_id, _ in user_records]
    counts, item_ids, created, clicked, click_time = concat_record_columns(user_records)
    # lexsort is stable: users stay in place, ties keep their stream order.
    order = np.lexsort((created, np.repeat(np.arange(len(counts)), counts)))
    item_ids = item_ids[order].tolist()
    scores = annotations.scores
    contents = [scores[item_id] for item_id in item_ids]
    cohort = ColumnarCohort(
        user_ids=user_ids,
        offsets=np.concatenate(([0], np.cumsum(counts))),
        item_ids=item_ids,
        created_at=created[order],
        contents=contents,
        ladder=ladder,
    )
    return CohortColumns(
        cohort=cohort,
        user_ids=user_ids,
        clicked=clicked[order],
        click_time=click_time[order],
    )


def make_engine(
    columns: CohortColumns,
    spec: MethodSpec,
    config: ExperimentConfig,
    duration_seconds: float,
    *,
    channels=None,
) -> ColumnarEngine:
    """The one-cell :func:`make_pass_engine`: every row of ``columns`` runs
    ``spec`` at ``config``'s budget.

    Exposed separately so benches and the shard-parallel path can time
    cohort construction apart from the round loop (and resume runs via
    ``engine.run(limit_rounds=...)``).  ``channels`` is the delivery
    :class:`~repro.core.channels.ChannelSet`; ``None`` is the paper's
    push channel alone.
    """
    return make_pass_engine(
        columns, [(spec, config.weekly_budget_mb)], config, duration_seconds,
        channels=channels,
    )


def make_pass_engine(
    columns: CohortColumns,
    cells: Sequence[Cell],
    config: ExperimentConfig,
    duration_seconds: float,
    *,
    channels=None,
) -> ColumnarEngine:
    """Build the :class:`ColumnarEngine` one :func:`sweep_cohort` pass runs.

    ``columns`` holds the users once per cell (:meth:`CohortColumns.tiled`
    by ``len(cells)``): row ``c * n + u`` is user ``u`` under ``cells[c] =
    (spec, weekly budget)``, every other knob from ``config``.  The copies of a user share
    device columns (drawn once, then tiled) and differ in their ``theta``
    row and, when the cells name several specs, their policy row -- which
    the engine allows for FIFO/UTIL only (:func:`~repro.experiments.runner.spec_passes`).
    """
    users = len(columns.user_ids) // len(cells)
    policies = {
        spec: registry.create(spec.policy_name, **spec.policy_params(config))
        for spec in dict.fromkeys(spec for spec, _ in cells)
    }
    if len(policies) == 1:
        (policy,) = policies.values()
    else:
        policy = [policies[spec] for spec, _ in cells for _ in range(users)]
    times = round_times(config.round_seconds, duration_seconds)
    device = build_device_columns(
        [_device_stream_seed(config.seed, u) for u in columns.user_ids[:users]],
        times,
        config.round_seconds,
        duration_seconds,
        config.kappa_joules_per_round,
        markov=config.network_mode is NetworkMode.MARKOV,
    )
    if len(cells) > 1:
        device = device.tiled(len(cells))
    thetas = [config.with_budget(budget).theta_bytes_per_round for _, budget in cells]
    return ColumnarEngine(
        columns.cohort,
        device,
        policy,
        config.utility_model(),
        theta_bytes=np.repeat(thetas, users),
        kappa_joules=config.kappa_joules_per_round,
        round_seconds=config.round_seconds,
        duration_seconds=duration_seconds,
        expected_batch=config.expected_batch,
        channels=channels,
    )


#: Deliveries per :func:`fold_outcomes` block.  A kernel call's transient
#: arrays are a few times the block's rows, so the fold's memory is flat in
#: the cohort's deliveries; the per-call overhead is amortized well below it.
FOLD_ROWS = 1 << 14


def _user_blocks(starts: list[int], rows: int):
    """``(first, last)`` runs of whole users covering ``starts`` (per-user
    row offsets), each closed once it holds at least ``rows`` rows."""
    first = 0
    for last in range(1, len(starts)):
        if starts[last] - starts[first] >= rows or last == len(starts) - 1:
            yield first, last
            first = last


def fold_outcomes(
    columns: CohortColumns,
    result,
    digest_deliveries: bool = False,
) -> list[UserRunOutcome]:
    """Fold engine outcome columns back into per-user ``UserRunOutcome``s.

    Takes the engine's delivery rows regrouped per user and hands them, a
    block of whole users at a time (:data:`FOLD_ROWS` deliveries or one
    larger user), to the kernels the scalar metric/digest functions adapt,
    with the delivered items' fields gathered by flat index -- no
    per-delivery object, and the fold's transient arrays bounded by the
    block, not the cohort.  ``result`` must come from an engine over
    ``columns`` (``ValueError`` otherwise).
    """
    cohort = columns.cohort
    users = len(columns.user_ids)
    if len(result.backlog_sum_bytes) != users:
        raise ValueError(
            f"result holds {len(result.backlog_sum_bytes)} users, the cohort "
            f"columns {users}: fold a result with the columns its engine ran"
        )
    rows, starts = result.user_sorted
    starts = starts.tolist()
    records = cohort.offsets.tolist()
    metrics, digests = [], []
    for first, last in _user_blocks(starts, FOLD_ROWS):
        block = rows[starts[first] : starts[last]]
        flat = block["index"]
        offsets = np.subtract(starts[first : last + 1], starts[first])
        user_ids = columns.user_ids[first:last]
        times, levels, sizes, energies, utilities = (
            block[name] for name in ("time", "level", "size", "energy", "utility")
        )
        if digest_deliveries:
            digests += delivery_digests(
                offsets, user_ids, times, cohort.item_id_column[flat],
                levels, sizes, energies, utilities,
            )
        metrics += user_metrics_from_columns(
            user_ids,
            np.subtract(records[first : last + 1], records[first]),
            columns.clicked[records[first] : records[last]],
            offsets, times, levels, sizes, energies, utilities,
            cohort.created_at[flat], columns.clicked[flat], columns.click_time[flat],
        )
    return [
        UserRunOutcome(
            metrics=user_metrics,
            mean_backlog_bytes=backlog,
            max_queue_length=max_queue,
            final_queue_length=final_queue,
            delivery_digest=digest,
        )
        for user_metrics, backlog, max_queue, final_queue, digest in zip(
            metrics,
            result.mean_backlog_bytes.tolist(),
            result.max_queue_length.tolist(),
            result.final_queue_length.tolist(),
            digests or [None] * users,
        )
    ]


def sweep_cohort(
    columns: CohortColumns,
    cells: Sequence[Cell],
    config: ExperimentConfig,
    duration_seconds: float,
    digest_deliveries: bool = False,
    *,
    channels=None,
) -> list[list[UserRunOutcome]]:
    """Run one engine pass over a built cohort: every user in every cell
    ``(spec, weekly budget)``, a (user, cell) pair as independent as two
    users are.

    ``result[c]`` holds one :class:`UserRunOutcome` per cohort user, in
    cohort order, bit-identical to :func:`repro.experiments.runner.run_user`
    per user under ``cells[c]``'s spec and ``config.with_budget(budget)``.
    Several specs share a pass only if all are FIFO/UTIL
    (:func:`~repro.experiments.runner.spec_passes`).  The pass holds
    users x cells rows; a caller bounds that by splitting the users.
    """
    if not supports(config):
        raise ValueError(
            "columnar execution supports the paper-default pipeline only "
            "(no fault injection); use the scalar runner for this config"
        )
    if not cells:
        return []
    stacked = columns.tiled(len(cells))
    engine = make_pass_engine(stacked, cells, config, duration_seconds, channels=channels)
    outcomes = fold_outcomes(stacked, engine.run(), digest_deliveries)
    users = len(columns.user_ids)
    return [outcomes[c * users : (c + 1) * users] for c in range(len(cells))]


def run_users_columnar(
    user_records: Sequence[tuple[int, Sequence[NotificationRecord]]],
    spec: MethodSpec,
    config: ExperimentConfig,
    annotations: UtilityAnnotations,
    duration_seconds: float,
    ladder=None,
    digest_deliveries: bool = False,
    *,
    channels=None,
) -> list[UserRunOutcome]:
    """Columnar equivalent of per-user ``run_user`` over a user batch: the
    one-cell :func:`sweep_cohort`."""
    if ladder is None:
        ladder = build_audio_ladder(config.presentation_spec)
    (outcomes,) = sweep_cohort(
        build_cohort(user_records, annotations, ladder),
        [(spec, config.weekly_budget_mb)],
        config,
        duration_seconds,
        digest_deliveries,
        channels=channels,
    )
    return outcomes
