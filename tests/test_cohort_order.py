"""The cohort's row order: each user's stream stable-sorted by timestamp.

``experiments.columnar.build_cohort`` checks that order with one
neighbour compare and sorts only where it is broken.  Both branches must
give exactly the columns of ``np.lexsort((created, owner))`` over the
users' concatenated columns: a store's streams (already in order, each
user starting below where the last one ended) without a sort, and
streams with shuffled and tied timestamps with one.
"""

from __future__ import annotations

import dataclasses
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presentations import build_audio_ladder
from repro.experiments import columnar
from repro.experiments.columnar import build_cohort, concat_record_columns
from repro.experiments.runner import UtilityAnnotations
from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import ShardStoreWriter, TraceShardStore

LEXSORT = np.lexsort


@cache
def _template_records():
    """Generated records to restamp: distinct ids, valid labels."""
    return [r for _, records in iter_users(12, TraceConfig(seed=5)) for r in records]


def annotations(user_records):
    return UtilityAnnotations(
        scores={r.notification_id: 0.5 for _, records in user_records for r in records}
    )


def expected_columns(user_records):
    """``item_ids, created, clicked, click_time`` in ``lexsort((created, owner))`` order."""
    counts, item_ids, created, clicked, click_time = concat_record_columns(user_records)
    order = LEXSORT((created, np.repeat(np.arange(len(counts)), counts)))
    return item_ids[order], created[order], clicked[order], click_time[order]


def built_columns(columns):
    cohort = columns.cohort
    return cohort.item_ids, cohort.created_at, columns.clicked, columns.click_time


def assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.fixture
def lexsorts(monkeypatch):
    """How many times ``build_cohort`` sorted."""
    calls = []

    def counting(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return LEXSORT(keys, *args, **kwargs)

    monkeypatch.setattr(columnar.np, "lexsort", counting)
    return calls


def test_a_stores_streams_are_kept_without_a_sort(tmp_path, lexsorts):
    path = tmp_path / "store"
    with ShardStoreWriter(path) as writer:
        for user_id, records in iter_users(40, TraceConfig(seed=97), mean_rate_per_hour=1.0):
            if records:
                writer.append(user_id, records)
    store = TraceShardStore(path)
    pairs = [
        (int(store.user_ids[position]), store.records_at(position))
        for position in range(store.n_users)
    ]
    pairs.insert(3, (10**6, []))  # an empty user between two streams
    want = expected_columns(pairs)
    # Each stream starts below where the previous one ended: the compare
    # must not read a user boundary as a break.
    starts = [float(records[0].timestamp) for _, records in pairs if len(records)]
    ends = [float(records[-1].timestamp) for _, records in pairs if len(records)]
    assert any(start < end for start, end in zip(starts[1:], ends))

    columns = build_cohort(pairs, annotations(pairs), build_audio_ladder())
    assert lexsorts == []
    assert_bit_equal(built_columns(columns), want)
    store.close()


@st.composite
def restamped_streams(draw):
    """1-5 users, each some template records restamped from a few values
    (ties are the rule) and listed in the order drawn."""
    templates = _template_records()
    users = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 8), min_size=users, max_size=users))
    picks = iter(draw(st.permutations(range(len(templates))))[: sum(sizes)])
    stamps = st.sampled_from([0.0, 60.0, 60.0, 3600.0, 7200.5])
    user_records = []
    for user, size in enumerate(sizes):
        records = []
        for _ in range(size):
            record, timestamp = templates[next(picks)], draw(stamps)
            records.append(
                dataclasses.replace(
                    record, timestamp=timestamp,
                    click_time=timestamp + 30.0 if record.clicked else None,
                )
            )
        user_records.append((user, records))
    return user_records


@settings(max_examples=200, deadline=None)
@given(restamped_streams())
def test_any_stream_order_equals_the_stable_sort(user_records):
    calls = []

    def counting(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return LEXSORT(keys, *args, **kwargs)

    broken = any(
        later.timestamp < earlier.timestamp
        for _, records in user_records
        for earlier, later in zip(records, records[1:])
    )
    want = expected_columns(user_records)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar.np, "lexsort", counting)
        columns = build_cohort(user_records, annotations(user_records), build_audio_ladder())
    assert len(calls) == broken
    assert_bit_equal(built_columns(columns), want)


def test_a_shuffled_stream_with_ties_is_sorted_stably(lexsorts):
    templates = _template_records()[:6]
    stamps = [120.0, 60.0, 120.0, 0.0, 60.0, 120.0]
    records = [
        dataclasses.replace(r, timestamp=t, click_time=t + 30.0 if r.clicked else None)
        for r, t in zip(templates, stamps)
    ]
    pairs = [(1, records[:2]), (2, records[2:])]
    columns = build_cohort(pairs, annotations(pairs), build_audio_ladder())
    assert lexsorts == [6]
    ids = [r.notification_id for r in records]
    # Ties keep their stream order; users stay in place.
    assert columns.cohort.item_ids.tolist() == [ids[1], ids[0], ids[3], ids[4], ids[2], ids[5]]
    assert_bit_equal(built_columns(columns), expected_columns(pairs))
