"""``ScoreTable``: content utility as two columns, against the dict it replaced.

The runner's ``U_c`` annotations used to be a ``dict`` with one entry per
notification (about 98 bytes a record, two Python objects each).  The table
must behave like that dict wherever it is read -- ``table[id]``, ``in``,
``len``, iteration, ``==`` both ways, pickling -- and its one gather,
:meth:`ScoreTable.lookup`, must give the bits a dict gather gives.  The
memory guard holds the cohort path (shard store -> oracle scores ->
annotations -> cohort) to 24 bytes of score table a record, the oracle
scores' peak to the two columns they read, and no Python object per record.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import build_cohort
from repro.experiments.pool import oracle_scores
from repro.experiments.runner import ScoreTable, UtilityAnnotations
from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import ShardStoreWriter, TraceShardStore

#: Ids drawn near 0 (many repeats) and near +-2^62 (far from every float).
ids = st.one_of(
    st.integers(-8, 8),
    st.integers(2**62 - 8, 2**62 + 8),
    st.integers(-(2**62) - 8, -(2**62) + 8),
)
#: Any float64, NaN, -0.0, infinities and subnormals included.
scores = st.floats(allow_nan=True, allow_infinity=True, width=64)
pairs = st.lists(st.tuples(ids, scores), max_size=40)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _table_and_dict(items):
    table = ScoreTable([i for i, _ in items], [s for _, s in items])
    return table, dict(items)


class TestLikeTheDict:
    @settings(max_examples=200, deadline=None)
    @given(pairs)
    def test_items_length_and_iteration(self, items):
        """A repeated id keeps its last score, as ``dict(items)`` does."""
        table, expected = _table_and_dict(items)
        assert len(table) == len(expected)
        assert list(table) == sorted(expected)
        assert all(type(item_id) is int for item_id in table)
        for item_id, score in expected.items():
            assert item_id in table
            assert type(table[item_id]) is float
            assert _bits([table[item_id]]) == _bits([score])
        assert table.id_column.dtype == np.int64
        assert table.score_column.dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(pairs, st.lists(ids, max_size=40))
    def test_lookup_is_a_dict_gather(self, items, wanted):
        table, expected = _table_and_dict(items)
        known = [item_id for item_id in wanted if item_id in expected]
        gathered = table.lookup(known)
        assert gathered.dtype == np.float64
        assert gathered.tobytes() == _bits([expected[item_id] for item_id in known])
        assert table.lookup(np.asarray(known, dtype=np.int64)).tobytes() == (
            gathered.tobytes()
        )

    @settings(max_examples=200, deadline=None)
    @given(pairs, st.lists(ids, min_size=1, max_size=40))
    def test_a_missing_id_raises_key_error_naming_it(self, items, wanted):
        table, expected = _table_and_dict(items)
        missing = [item_id for item_id in wanted if item_id not in expected]
        if not missing:
            return
        with pytest.raises(KeyError) as raised:
            table.lookup(wanted)
        assert raised.value.args == (missing[0],)
        with pytest.raises(KeyError) as raised:
            table[missing[0]]
        assert raised.value.args == (missing[0],)
        assert missing[0] not in table
        assert table.get(missing[0]) is None

    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_equality_with_the_dict_both_ways(self, items, other_items):
        table, expected = _table_and_dict(items)
        other_table, other = _table_and_dict(other_items)
        # NaN scores: a dict compares floats by identity, then ``==``.
        comparable = not any(np.isnan(score) for _, score in items + other_items)
        if comparable:
            assert (table == expected) and (expected == table)
            assert not table != expected
            assert (table == other) == (expected == other) == (other == table)
            assert (table == other_table) == (expected == other)
        assert table != list(expected.items())

    @settings(max_examples=100, deadline=None)
    @given(pairs)
    def test_pickle_round_trip(self, items):
        table, _ = _table_and_dict(items)
        back = pickle.loads(pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(back) is ScoreTable
        assert back.id_column.tobytes() == table.id_column.tobytes()
        assert back.score_column.tobytes() == table.score_column.tobytes()
        assert list(back) == list(table)

    def test_empty_table(self):
        table = ScoreTable([], [])
        assert len(table) == 0 and list(table) == []
        assert table == {} and {} == table
        assert table.lookup([]).dtype == np.float64
        assert len(table.lookup(np.empty(0, dtype=np.int64))) == 0
        with pytest.raises(KeyError) as raised:
            table.lookup([7])
        assert raised.value.args == (7,)
        with pytest.raises(KeyError):
            table[0]

    def test_keys_the_dict_would_refuse(self):
        table = ScoreTable([1, 2**62], [0.25, 0.5])
        assert table[True] == 0.25  # True == 1, as in a dict
        for key in ("1", None, 2**64, -(2**70)):
            with pytest.raises(KeyError):
                table[key]
            assert key not in table

    def test_mismatched_columns_are_refused(self):
        with pytest.raises(ValueError, match="one length"):
            ScoreTable([1, 2], [0.5])
        with pytest.raises(ValueError, match="1-D"):
            ScoreTable([[1]], [[0.5]])


class TestAnnotationsHoldATable:
    def test_a_dict_is_converted_once(self):
        scores = {5: 0.5, -3: 0.25, 2**62: 1.0}
        annotations = UtilityAnnotations(scores=scores)
        assert type(annotations.scores) is ScoreTable
        assert annotations.scores == scores
        table = annotations.scores
        assert UtilityAnnotations(scores=table).scores is table


class TestNoPerRecordObjectOnTheCohortPath:
    def test_scores_and_cohort_are_columns(self, tmp_path):
        """Store -> ``oracle_scores`` -> annotations -> ``build_cohort``.

        As a dict the scores read 83.7 bytes a record here and the path left
        64 887 new blocks for 21 591 records; as columns they read 16.7
        bytes and the path 467 blocks (a few per user).
        """
        with ShardStoreWriter(tmp_path / "store") as writer:
            for user_id, records in iter_users(
                200, TraceConfig(seed=97), mean_rate_per_hour=1.0
            ):
                if records:
                    writer.append(user_id, records)
        store = TraceShardStore(tmp_path / "store")
        pairs = [
            (int(store.user_ids[position]), store.records_at(position))
            for position in range(store.n_users)
        ]
        records = store.n_records
        assert records > 20 * store.n_users
        ladder = build_audio_ladder()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scores = oracle_scores(pairs)
            table_bytes, scores_peak = (
                traced - start for traced in tracemalloc.get_traced_memory()
            )
            annotations = UtilityAnnotations(scores=scores)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            columns = build_cohort(pairs, annotations, ladder)
            build_peak = tracemalloc.get_traced_memory()[1] - held
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert annotations.scores is scores
        assert columns.cohort.n_items == records
        assert table_bytes <= 24 * records, f"{table_bytes / records:.1f} B a record"
        # The id and clicked columns, the scores and the table's sort: 58.7 B
        # a record.  Concatenating all four cohort columns read 66.8 B.
        assert scores_peak <= 62 * records, f"{scores_peak / records:.1f} B a record"
        # Columns and their sort keys: 78 B a record.  A transient item-id
        # list (``.tolist()`` plus one dict read per item) read 118 B.
        assert build_peak <= 100 * records, f"{build_peak / records:.1f} B a record"
        blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
        assert blocks < records // 10, f"{blocks} new blocks for {records} records"
