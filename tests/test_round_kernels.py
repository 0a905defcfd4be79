"""The columnar round's queue kernels, Algorithm 1's pop-order key limit
and ``DeviceColumns.tiled``.

* ``_merged`` (ingest) and ``_without`` (dequeue) against the
  ``np.insert`` / ``np.delete`` calls they replaced, over sorted, disjoint
  key columns with either side possibly empty, and delivered keys in any
  order;
* ``kernels.greedy_select`` packs a segment with a rank among a call's
  ``n`` upgrades into one int64, ``segment * (n + 1) - rank``.  The engine
  refuses any cohort whose user rows and upgrades could push that past
  int64; the refusal is checked one item either side of the limit;
* ``DeviceColumns.tiled`` builds its copy without re-running the
  validation, as ``ColumnarCohort.tiled`` does.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.runtime import registry
from repro.runtime.columnar import (
    ColumnarEngine,
    DeviceColumns,
    _merged,
    _refuse_key_overflow,
    _without,
    build_device_columns,
    round_times,
)

INT64_MAX = int(np.iinfo(np.int64).max)

KEYS = st.lists(st.integers(-(2**62), 2**62), unique=True, max_size=60)


def _sorted(keys) -> np.ndarray:
    return np.sort(np.asarray(keys, dtype=np.int64))


@st.composite
def split_keys(draw):
    """Distinct keys dealt into a sorted queue and a sorted arrival column."""
    keys = draw(KEYS)
    joins = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return (
        _sorted([k for k, j in zip(keys, joins) if not j]),
        _sorted([k for k, j in zip(keys, joins) if j]),
    )


@st.composite
def queue_and_taken(draw):
    """A sorted queue and some of its keys, in any order (a round hands
    them over in delivery order)."""
    queue = _sorted(draw(KEYS))
    taken = [k for k in queue.tolist() if draw(st.booleans())]
    return queue, np.asarray(draw(st.permutations(taken)), dtype=np.int64)


class TestQueueKernels:
    @settings(max_examples=300, deadline=None)
    @given(split_keys())
    @example((_sorted([]), _sorted([])))
    @example((_sorted([]), _sorted([4, 9])))
    @example((_sorted([4, 9]), _sorted([])))
    @example((_sorted([5, 6]), _sorted([1, 2, 9])))
    def test_merge_is_the_insert(self, case):
        queue, joining = case
        merged = _merged(queue, joining)
        expected = np.insert(queue, np.searchsorted(queue, joining), joining)
        assert merged.dtype == expected.dtype
        assert merged.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(queue_and_taken())
    @example((_sorted([]), _sorted([])))
    @example((_sorted([3, 8]), _sorted([])))
    @example((_sorted([3, 8]), np.asarray([8, 3])))
    def test_dequeue_is_the_delete(self, case):
        queue, taken = case
        left = _without(queue, taken)
        expected = np.delete(queue, np.searchsorted(queue, taken))
        assert left.dtype == expected.dtype
        assert left.tobytes() == expected.tobytes()


# -- the pop-order key's limit --------------------------------------------------


def _wire_rows(channels) -> list[list[int]]:
    """The engine's wire-size rows: each channel's ladder, or the cohort's."""
    return [
        [step.size_bytes for step in (channel.ladder or build_audio_ladder())]
        for channel in channels
    ]


def _largest_fit(users: int, per_item: int) -> int:
    """The most items for which ``users * (items * per_item + 1)`` fits."""
    return (INT64_MAX // users - 1) // per_item


class TestSelectionKeyLimit:
    @pytest.mark.parametrize(
        "channels",
        [None, ChannelSet([builtin_channel(n) for n in ("push", "inapp", "email")])],
        ids=["push", "three-channels"],
    )
    @pytest.mark.parametrize("users", [1, 2**31 - 1])
    def test_refused_one_item_past_the_limit(self, channels, users):
        wire_rows = _wire_rows(channels or [builtin_channel("push")])
        per_item = sum(len(row) - 1 for row in wire_rows)
        items = _largest_fit(users, per_item)
        assert users * (items * per_item + 1) <= INT64_MAX
        assert users * ((items + 1) * per_item + 1) > INT64_MAX
        _refuse_key_overflow(users, items, wire_rows)
        with pytest.raises(ValueError, match="selection key is int64"):
            _refuse_key_overflow(users, items + 1, wire_rows)

    def test_the_engine_refuses_before_reading_the_cohort(self):
        """A stand-in cohort: the check needs only its counts, so the
        refused size allocates nothing; one item fewer gets past it."""
        users = 2**31 - 1
        items = _largest_fit(users, len(build_audio_ladder()) - 1)

        def engine(n_items):
            cohort = SimpleNamespace(
                n_users=users, n_items=n_items, ladder=build_audio_ladder()
            )
            return ColumnarEngine(
                cohort, None, registry.create("richnote"), theta_bytes=1e6,
                kappa_joules=3000.0, round_seconds=3600.0, duration_seconds=3600.0,
            )

        with pytest.raises(ValueError, match="selection key is int64"):
            engine(items + 1)
        with pytest.raises(AttributeError):  # past the check: no device columns
            engine(items)


# -- DeviceColumns.tiled ----------------------------------------------------------


class TestTiledDevice:
    @pytest.mark.parametrize("markov", [False, True], ids=["cell", "markov"])
    def test_the_copy_equals_the_validated_one_and_skips_the_checks(
        self, monkeypatch, markov
    ):
        base = build_device_columns(
            [3, 1, 4], round_times(3600.0, 6 * 3600.0), 3600.0, 6 * 3600.0, 30.0,
            markov=markov,
        )
        checks = []
        validate = DeviceColumns.__post_init__
        monkeypatch.setattr(
            DeviceColumns, "__post_init__",
            lambda self: (checks.append(self), validate(self))[1],
        )
        for copies in (1, 2, 4):
            tiled = base.tiled(copies)
            assert checks == []
            validated = DeviceColumns(
                e_t=np.tile(base.e_t, (1, copies)),
                states=None if base.states is None else np.tile(base.states, (1, copies)),
            )
            assert checks.pop() is validated
            assert type(tiled) is DeviceColumns
            assert vars(tiled).keys() == vars(validated).keys()
            for name, value in vars(validated).items():
                mine = getattr(tiled, name)
                if value is None:
                    assert mine is None
                else:
                    assert mine.dtype == value.dtype and mine.shape == value.shape
                    assert mine.tobytes() == value.tobytes()
