"""Differential property: the column generator == the record-by-record one.

``repro.trace.generator.iter_users`` draws each user's stream straight
into shard-store columns and yields a ``RecordsView`` over them;
``tests/reference_generator.py`` keeps the generator it replaced, which
built one ``NotificationRecord`` per draw and sorted the list.  Over
seeds, horizons (non-integer ones clamp events to the horizon, making
timestamp ties), rates (up to the sampler's normal branch above 30 an
hour, and down to zero) and user-id ranges, every user must come out as

* a view equal to the reference's record list, record for record;
* columns bit-equal to the reference read field by field;
* a shard store byte-identical, file for file, to one written from the
  reference's lists.

The property counts what it generated and fails if a class is missing;
``derandomize=True`` makes the counts reproducible.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.topics import TopicKind
from repro.trace.generator import TraceConfig, iter_users
from repro.trace.io import SHARD_COLUMNS, write_shard_store
from tests import reference_generator as reference

KINDS = list(TopicKind)


def field_column(records, name):
    """One column of a record list, read field by field in store dtypes."""
    if name == "kind":
        values = [KINDS.index(r.kind) for r in records]
    else:
        values = [getattr(r, name) for r in records]
    return np.asarray(values, dtype=SHARD_COLUMNS[name])


def store_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def observe(seen, config, mean_rate_per_hour, user_id, records):
    seen["users"] += 1
    if not records:
        seen["empty_user"] += 1
    horizon = config.duration_hours * 3600.0
    if sum(r.timestamp >= horizon for r in records) >= 2:  # clamped
        seen["clamped_tie"] += 1
    seen["clicked_row"] += sum(r.clicked for r in records)
    if not config.duration_hours.is_integer():
        seen["non_integer_horizon"] += 1
    # The user's first draw is their activity; above 30 an hour the
    # sampler takes its normal approximation.
    rng = random.Random(reference._user_stream_seed(config.seed, user_id))
    activity = 0.2 + 1.6 * rng.random()
    peak = max(
        reference.diurnal_factor(hour % 24)
        for hour in range(math.ceil(config.duration_hours))
    )
    if activity * peak * config.listen_rate_scale * mean_rate_per_hour > 30:
        seen["normal_branch"] += 1


def test_column_generator_matches_the_reference():
    seen: Counter = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        duration_hours=st.one_of(
            st.sampled_from([1.0, 2.5, 6.75, 20.5]),
            st.floats(0.05, 26.0, allow_nan=False),
        ),
        mean_rate_per_hour=st.one_of(
            st.sampled_from([0.0, 0.25, 1.0, 4.0, 40.0, 150.0]), st.floats(0.0, 12.0)
        ),
        listen_rate_scale=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        first_user_id=st.one_of(st.integers(0, 50), st.integers(0, 10**6)),
        n_users=st.integers(0, 4),
    )
    def prop(
        seed, duration_hours, mean_rate_per_hour, listen_rate_scale,
        first_user_id, n_users,
    ):
        config = TraceConfig(
            seed=seed, duration_hours=duration_hours,
            listen_rate_scale=listen_rate_scale,
        )
        args = (n_users, config, mean_rate_per_hour, first_user_id)
        views = list(iter_users(*args))
        lists = list(reference.iter_users(*args))
        assert [u for u, _ in views] == [u for u, _ in lists]
        for (user_id, view), (_, records) in zip(views, lists):
            assert view.user_id == user_id
            assert list(view) == records
            for name, dtype in SHARD_COLUMNS.items():
                column = view.column(name)
                assert column.dtype == np.dtype(dtype), name
                assert column.tobytes() == field_column(records, name).tobytes(), name
            observe(seen, config, mean_rate_per_hour, user_id, records)
        with tempfile.TemporaryDirectory() as directory:
            from_views, from_lists = Path(directory, "views"), Path(directory, "lists")
            write_shard_store(from_views, views)
            write_shard_store(from_lists, lists)
            assert store_bytes(from_views) == store_bytes(from_lists)

    prop()
    for needed, at_least in {
        "users": 200,
        "empty_user": 80,
        "clamped_tie": 40,
        "clicked_row": 3000,
        "non_integer_horizon": 150,
        "normal_branch": 15,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)
