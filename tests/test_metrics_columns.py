"""Column-form metric/digest kernels == the object-form loops they replaced.

``compute_user_metrics`` and ``delivery_digest`` are adapters over
``user_metrics_from_columns`` / ``delivery_digests`` now, so comparing
the two forms with each other would prove nothing.  The references below
are the pre-column per-object loops, kept verbatim as the oracle: every
generated case must match them bit for bit (dataclass equality on floats
is exact), including ``level_histogram`` key order.  The cohort-level
digest kernel is also held to the definition of its bytes,
``"".join(map(repr, rows))`` per segment, on hostile columns; offsets
that do not cut the columns into whole segments are refused; and the
folded outcomes of three small-preset runs are pinned to the bits they
had before the fold became array code.
"""

from __future__ import annotations

import hashlib
import math
from functools import cache, reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.experiments import columnar
from repro.experiments.adapters import record_to_item
from repro.experiments.columnar import build_cohort, fold_outcomes, make_engine, sweep_cohort
from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.metrics import (
    UserMetrics,
    compute_user_metrics,
    user_metrics_from_columns,
)
from repro.experiments.runner import (
    UtilityAnnotations,
    delivery_digest,
    delivery_digests,
    shard_by_user,
)
from repro.experiments.workloads import eval_workload
from repro.pubsub.topics import TopicKind
from repro.runtime.types import Delivery
from repro.trace.records import NotificationRecord

LADDER = build_audio_ladder()
FLOATS = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def reference_metrics(user_id, records, deliveries) -> UserMetrics:
    """The object-form join as it was before the column kernels, its float
    sums spelled as the left folds they were (the built-in ``sum`` of
    floats is compensated from CPython 3.12)."""
    clicked_total = sum(1 for r in records if r.clicked)
    delivered = len(deliveries)
    bytes_delivered = float(reduce(add, (d.size_bytes for d in deliveries), 0))
    energy = reduce(add, (d.energy_joules for d in deliveries), 0)
    total_utility = reduce(add, (d.utility for d in deliveries), 0)
    in_time_clicks = 0
    clicked_utility = 0.0
    delays = []
    histogram = {}
    for delivery in deliveries:
        item = delivery.item
        delays.append(max(0.0, delivery.time - item.created_at))
        histogram[delivery.level] = histogram.get(delivery.level, 0) + 1
        if item.clicked:
            clicked_utility += delivery.utility
            if item.click_time is not None and delivery.time <= item.click_time:
                in_time_clicks += 1
    return UserMetrics(
        user_id=user_id,
        total_notifications=len(records),
        delivered_notifications=delivered,
        delivered_bytes=bytes_delivered,
        clicked_total=clicked_total,
        clicked_delivered_in_time=in_time_clicks,
        total_utility=total_utility,
        clicked_utility=clicked_utility,
        energy_joules=energy,
        mean_queuing_delay_s=(reduce(add, delays, 0) / len(delays)) if delays else 0.0,
        level_histogram=histogram,
    )


def reference_digest(deliveries) -> str:
    """The per-delivery ``digest.update`` loop the golden digests came from."""
    digest = hashlib.sha256()
    for d in deliveries:
        digest.update(
            repr(
                (d.time, d.user_id, d.item.item_id, d.level, d.size_bytes,
                 d.energy_joules, d.utility)
            ).encode()
        )
    return digest.hexdigest()


@st.composite
def records_and_deliveries(draw):
    """One user's trace plus a delivery sequence over (some of) its items.

    Items may be delivered out of order, more than once or not at all;
    zero records and zero deliveries both occur.
    """
    n_records = draw(st.integers(min_value=0, max_value=8))
    records = []
    for notification_id in range(n_records):
        timestamp = draw(FLOATS)
        clicked = draw(st.booleans())
        # Unclicked records usually have no click time, but the kernels
        # must also ignore one that is set (hover-then-leave traces).
        has_time = clicked or draw(st.booleans())
        click_time = timestamp + draw(FLOATS) if has_time else None
        records.append(
            NotificationRecord(
                notification_id=notification_id, recipient_id=7, sender_id=1,
                kind=TopicKind.FRIEND, track_id=1, album_id=1, artist_id=1,
                track_popularity=1, album_popularity=1, artist_popularity=1,
                tie_strength=0.5, is_friend=True, favorite_genre=False,
                timestamp=timestamp, hovered=clicked or draw(st.booleans()),
                clicked=clicked, click_time=click_time,
            )
        )
    items = [record_to_item(r, LADDER) for r in records]
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=n_records - 1), max_size=12)
        if n_records
        else st.just([])
    )
    deliveries = [
        Delivery(
            time=draw(FLOATS),
            user_id=7,
            item=items[pick],
            level=draw(st.integers(min_value=1, max_value=6)),
            size_bytes=draw(st.one_of(st.integers(0, 10**7), FLOATS)),
            energy_joules=draw(FLOATS),
            utility=draw(FLOATS),
        )
        for pick in picks
    ]
    return records, deliveries


def as_columns(deliveries):
    """Transpose the way ``fold_outcomes`` does: tuples, NaN for no click."""
    if not deliveries:
        return ((),) * 9
    return tuple(
        zip(
            *(
                (
                    d.time, d.item.item_id, d.level, d.size_bytes,
                    d.energy_joules, d.utility, d.item.created_at,
                    int(d.item.clicked),
                    math.nan if d.item.click_time is None else d.item.click_time,
                )
                for d in deliveries
            )
        )
    )


@settings(max_examples=200, deadline=None)
@given(records_and_deliveries())
def test_metric_forms_match_the_object_loop(case):
    records, deliveries = case
    expected = reference_metrics(7, records, deliveries)

    adapted = compute_user_metrics(7, records, deliveries)
    assert adapted == expected
    assert list(adapted.level_histogram) == list(expected.level_histogram)
    assert repr(adapted) == repr(expected)

    times, _, levels, sizes, energies, utilities, created, clicked, click_times = (
        np.array(column, dtype=object) for column in as_columns(deliveries)
    )
    (from_columns,) = user_metrics_from_columns(
        [7], [0, len(records)], [int(r.clicked) for r in records], [0, len(deliveries)],
        times.astype(float), levels, sizes, energies, utilities, created.astype(float),
        clicked, click_times.astype(float),
    )
    assert from_columns == expected
    assert list(from_columns.level_histogram) == list(expected.level_histogram)


@settings(max_examples=200, deadline=None)
@given(records_and_deliveries())
def test_digest_forms_match_the_object_loop(case):
    _, deliveries = case
    expected = reference_digest(deliveries)
    assert delivery_digest(deliveries) == expected
    times, item_ids, levels, sizes, energies, utilities, *_ = as_columns(deliveries)
    assert delivery_digests(
        [0, len(deliveries)], [7],
        np.array(times, dtype=np.float64), np.array(item_ids, dtype=np.int64),
        np.array(levels, dtype=np.int64), np.array(sizes, dtype=object),
        np.array(energies, dtype=np.float64), np.array(utilities, dtype=np.float64),
    ) == [expected]


#: Floats whose ``repr`` is easy to get wrong: specials, both zeros,
#: subnormals, and both sides of repr's switches to exponent notation.
AWKWARD_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         9999999999999998.0, 1e16, 1.0000000000000002e16, 0.0001, 9.999e-5,
         1e-5, 0.1 + 0.2, 3600.0]
    ),
)
INT64S = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def float_column(draw, n_rows):
    """Low-cardinality (repeats of up to three values, ``0.0`` and ``-0.0``
    forced in together) or all drawn independently."""
    if draw(st.booleans()):
        pool = [0.0, -0.0] + draw(st.lists(AWKWARD_FLOATS, max_size=3))
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    return draw(st.lists(AWKWARD_FLOATS, min_size=n_rows, max_size=n_rows))


@st.composite
def segmented_columns(draw):
    """Cohort columns cut into zero or more segments, some of them empty."""
    lengths = draw(st.lists(st.integers(min_value=0, max_value=6), max_size=5))
    n_rows = sum(lengths)
    user_ids = draw(st.lists(INT64S, min_size=len(lengths), max_size=len(lengths)))
    floats = [draw(float_column(n_rows)) for _ in range(3)]
    ints = [
        draw(st.lists(INT64S, min_size=n_rows, max_size=n_rows)) for _ in range(3)
    ]
    return lengths, user_ids, floats, ints


@settings(max_examples=300, deadline=None)
@given(segmented_columns())
def test_cohort_digests_are_sha256_of_the_joined_row_reprs(case):
    lengths, user_ids, (times, energies, utilities), (item_ids, levels, sizes) = case
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    expected = []
    for user_id, lo, hi in zip(user_ids, offsets[:-1], offsets[1:]):
        rows = zip(
            times[lo:hi], [user_id] * (hi - lo), item_ids[lo:hi], levels[lo:hi],
            sizes[lo:hi], energies[lo:hi], utilities[lo:hi],
        )
        expected.append(hashlib.sha256("".join(map(repr, rows)).encode()).hexdigest())
    assert delivery_digests(
        offsets, user_ids,
        np.array(times, dtype=np.float64), np.array(item_ids, dtype=np.int64),
        np.array(levels, dtype=np.int64), np.array(sizes, dtype=np.int64),
        np.array(energies, dtype=np.float64), np.array(utilities, dtype=np.float64),
    ) == expected


def test_no_deliveries_and_no_records():
    no_rows = np.array([], dtype=np.float64)
    (empty,) = user_metrics_from_columns([3], [0, 0], [], [0, 0], *[no_rows] * 8)
    assert empty == reference_metrics(3, [], [])
    assert empty.mean_queuing_delay_s == 0.0
    assert empty.level_histogram == {}
    assert delivery_digest([]) == hashlib.sha256().hexdigest()
    assert delivery_digests([0, 0], [3], *[no_rows] * 6) == [
        hashlib.sha256().hexdigest()
    ]
    assert delivery_digests([0], [], *[no_rows] * 6) == []


def test_histogram_keys_keep_first_delivery_order():
    first, second = user_metrics_from_columns(
        [1, 2], [0, 3, 3], [0, 0, 0], [0, 3, 5],
        *map(np.array, (
            (10.0, 20.0, 30.0, 40.0, 50.0), (3, 1, 3, 2, 1), (5, 5, 5, 5, 5),
            (0.1,) * 5, (0.5,) * 5, (0.0,) * 5, (0,) * 5, (math.nan,) * 5,
        )),
    )
    assert list(first.level_histogram.items()) == [(3, 2), (1, 1)]
    assert list(second.level_histogram.items()) == [(2, 1), (1, 1)]


#: Two delivery rows, every digest column.
TWO_ROWS = [np.array([1.0, 2.0]), np.array([5, 6]), np.array([1, 2]),
            np.array([10, 20]), np.array([0.5, 0.5]), np.array([0.25, 0.75])]


class TestSegmentValidation:
    """Offsets must cut every column into exactly one whole segment per
    user; anything else once hashed or folded the wrong rows silently."""

    @pytest.mark.parametrize(
        "offsets, user_ids",
        [
            ([0, 1, 2], [7]),      # one user, two segments: row 1 was never hashed
            ([0, 1], [7, 8]),      # two users, one segment
            ([0, 1], [7]),         # ends short of the columns: row 1 ignored
            ([0, 3], [7]),         # ends past them
            ([1, 2], [7]),         # does not start at row 0
            ([0, 2, 1, 2], [7, 8, 9]),  # decreasing
            ([], []),
        ],
    )
    def test_digests_refuse_offsets_that_do_not_cut_the_columns(self, offsets, user_ids):
        with pytest.raises(ValueError, match="offsets"):
            delivery_digests(offsets, user_ids, *TWO_ROWS)

    def test_digests_refuse_columns_of_different_lengths(self):
        short = [*TWO_ROWS[:-1], np.array([0.25])]
        with pytest.raises(ValueError, match=r"\[1, 2\] rows"):
            delivery_digests([0, 2], [7], *short)

    @pytest.mark.parametrize(
        "record_offsets, offsets",
        [([0, 1], [0, 2]), ([0, 3], [0, 1]), ([0, 1, 1], [0, 2]), ([0, 3], [1, 2])],
    )
    def test_metrics_refuse_offsets_that_do_not_cut_the_columns(self, record_offsets, offsets):
        times, levels, sizes, energies, utilities = TWO_ROWS[0], *TWO_ROWS[2:]
        with pytest.raises(ValueError, match="offsets"):
            user_metrics_from_columns(
                [7], record_offsets, [True, False, True], offsets,
                times, levels, sizes, energies, utilities,
                times, np.array([True, False]), times,
            )

    @pytest.mark.parametrize("copies", [(1, 2), (2, 1)])
    def test_fold_refuses_a_result_of_another_cohort(self, copies):
        columns, duration = small_cohort()
        ran, folded = (columns.tiled(c) for c in copies)
        config = ExperimentConfig()
        result = make_engine(ran, MethodSpec(Method.RICHNOTE), config, duration).run()
        ran_users, folded_users = len(ran.user_ids), len(folded.user_ids)
        with pytest.raises(ValueError, match=rf"{ran_users} users.* {folded_users}\b"):
            fold_outcomes(folded, result)


@cache
def small_cohort():
    """The ``small`` preset's users with a trained forest's scores."""
    workload = eval_workload("small")
    annotations = UtilityAnnotations.train(workload)
    by_user = shard_by_user(workload.records, workload.user_ids())
    pairs = [(u, by_user[u]) for u in workload.user_ids() if by_user[u]]
    ladder = build_audio_ladder(ExperimentConfig().presentation_spec)
    return build_cohort(pairs, annotations, ladder), workload.config.duration_hours * 3600.0


#: run -> (cells, config, channels, SHA-256 of its folded outcomes).
PINNED_RUNS = {
    "richnote-cell-only": (
        [(MethodSpec(Method.RICHNOTE), 5.0)], ExperimentConfig(), None,
        "b437ce93da178044278674f69af85acab66040f1148e4c4e9d7b0dcb2caac3b6",
    ),
    "richnote-markov-push-inapp-email": (
        [(MethodSpec(Method.RICHNOTE), 5.0)],
        ExperimentConfig(network_mode=NetworkMode.MARKOV),
        ("push", "inapp", "email"),
        "6b18f97cb4f630fc840d2da97e985bddf8e3f63357f3922b040c05e46d4e32fd",
    ),
    "fifo-util-stacked-two-budgets": (
        [
            (MethodSpec(method, fixed_level=level), budget)
            for method in (Method.FIFO, Method.UTIL)
            for level in (2, 3)
            for budget in (2.0, 20.0)
        ],
        ExperimentConfig(), None,
        "60d5a4b89fd9efa677e02d3c694de2a58e3d3890d99fcea378a18ba87f475a13",
    ),
}


def folded_outcomes(run: str):
    cells, config, channels, _ = PINNED_RUNS[run]
    columns, duration = small_cohort()
    if channels is not None:
        channels = ChannelSet([builtin_channel(name) for name in channels])
    grid = sweep_cohort(
        columns, cells, config, duration, digest_deliveries=True, channels=channels
    )
    return [outcome for outcomes in grid for outcome in outcomes]


def outcome_bits(outcomes) -> str:
    """SHA-256 over every outcome's metrics ``repr`` and digest, in order."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome.metrics).encode())
        digest.update(outcome.delivery_digest.encode())
    return digest.hexdigest()


class TestPinnedBits:
    """Every folded ``UserRunOutcome`` of three small-preset runs, hashed:
    recorded from the per-delivery fold that ``tests/reference_fold.py``
    keeps, so the array fold must reproduce every metric bit, histogram key
    order and digest of it."""

    @pytest.mark.parametrize("run", sorted(PINNED_RUNS))
    def test_folded_outcomes_keep_their_bits(self, run):
        outcomes = folded_outcomes(run)
        assert sum(o.metrics.delivered_notifications for o in outcomes) > 1000
        assert outcome_bits(outcomes) == PINNED_RUNS[run][-1]

    @pytest.mark.parametrize("run", sorted(PINNED_RUNS))
    @pytest.mark.parametrize("fold_rows", [1, 50, 700])
    def test_any_fold_block_gives_the_same_bits(self, run, fold_rows, monkeypatch):
        """Blocks of one user, of a few, and cut mid-cell: the same outcomes."""
        monkeypatch.setattr(columnar, "FOLD_ROWS", fold_rows)
        assert outcome_bits(folded_outcomes(run)) == PINNED_RUNS[run][-1]
