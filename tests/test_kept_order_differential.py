"""Order keys and pending counters against both queue oracles.

``ColumnarEngine`` fixes each item's place in its user's queue when the
engine is built (UTIL rows by the static aging key ``log U_c + created_at /
tau``) and counts queues with exact pending counters, so a baseline round
scores the first ``take`` entries of a member's run plus a band of near-ties
past them.  The oracles are the engines it replaced, kept in
``tests/test_fixed_differential.py``: ``FlatQueueEngine`` (a sorted queue of
flat item indices, re-counted by ``bincount`` every round, UTIL scoring each
affording member's whole queue) and ``WholeBacklogEngine`` (every queued row
scored).  Streams carry seeded near-ties -- equal ``U_c`` and
``created_at``, ``U_c`` or ``created_at`` one ulp apart, equal static keys
from different (``U_c``, ``created_at``) pairs, zero ``U_c`` -- placed where
a round's take boundary falls: on high-utility items, which reach the head
of a UTIL queue as they arrive.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.experiments.columnar as experiments_columnar
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging, LinearAging
from repro.experiments.columnar import (
    CohortColumns,
    build_cohort,
    fold_outcomes,
    make_pass_engine,
)
from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.runner import UtilityAnnotations
from repro.runtime import kernels
from repro.runtime.columnar import ColumnarCohort, ColumnarEngine, DeviceColumns
from repro.runtime.policy import UtilPolicy
from repro.trace.generator import TraceConfig, iter_users
from tests.test_fixed_differential import FlatQueueEngine, WholeBacklogEngine

LADDER = build_audio_ladder(ExperimentConfig().presentation_spec)
TAU = 8 * 3600.0

#: The paper's exponential rule, one rule with no static key at all, aging
#: off, and an exponential rule so short that a week of it underflows (no
#: static key either: whole runs are scored).
AGINGS = {
    "exponential": ExponentialAging(TAU),
    "linear": LinearAging(2 * 86_400.0),
    "none": None,
    "exponential-underflowing": ExponentialAging(60.0),
}

NEAR_TIES = ("equal", "content-ulp", "created-ulp", "equal-key", "zero")
UTIL_2 = MethodSpec(Method.UTIL, 2)


@cache
def _base(weeks):
    trace = TraceConfig(seed=59, duration_hours=168.0 * weeks)
    pairs = [(u, r) for u, r in iter_users(5, trace) if r]
    # A coarse score grid: equal U_c is common, so keys tie in created_at.
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    columns = build_cohort(pairs, UtilityAnnotations(scores=scores), LADDER)
    return columns, trace.duration_hours * 3600.0


def _with_near_ties(columns, ties, stride):
    """``columns`` with each ``(kind, position, utility)`` of ``ties`` seeded
    on the item at ``position`` (mod the item count) and the next one of the
    same user: the first gets ``utility``, the second the near-tie.  A
    ``stride`` of ``(step, kind, utility)`` seeds one on every ``step``-th
    item (none for step 0)."""
    cohort = columns.cohort
    contents, created = cohort.contents.copy(), cohort.created_at.copy()
    last_of_user = set((cohort.offsets[1:] - 1).tolist())
    step, kind, utility = stride
    if step:
        ties = ties + [(kind, i, utility) for i in range(0, cohort.n_items, step)]
    for kind, position, utility in ties:
        i = position % cohort.n_items
        if i in last_of_user:
            continue
        j = i + 1
        contents[i] = utility
        if kind == "equal":
            contents[j], created[j] = utility, created[i]
        elif kind == "content-ulp":
            contents[j], created[j] = np.nextafter(utility, 0.0), created[i]
        elif kind == "created-ulp":
            contents[j], created[j] = utility, np.nextafter(created[i], np.inf)
        elif kind == "equal-key":
            # log U_c + created / tau equal up to rounding, U_c and created apart.
            contents[j] = utility * math.exp(-(created[j] - created[i]) / TAU)
        else:
            contents[i] = contents[j] = 0.0
    return CohortColumns(
        cohort=ColumnarCohort(
            user_ids=cohort.user_ids, offsets=cohort.offsets, item_ids=cohort.item_ids,
            created_at=created, contents=contents, ladder=cohort.ladder,
        ),
        user_ids=columns.user_ids,
        clicked=columns.clicked,
        click_time=columns.click_time,
    )


FIXED = st.builds(
    MethodSpec, st.sampled_from([Method.UTIL, Method.FIFO]), st.integers(1, LADDER.max_level + 1)
)


@st.composite
def passes(draw):
    """``(cells, weeks, aging, network_mode, ties, split)``: a RichNote budget
    column, one FIFO/UTIL spec over a budget column, or stacked cells."""
    budgets = st.lists(
        st.sampled_from([0.5, 2.0, 5.0, 20.0, 200.0]), min_size=1, max_size=3, unique=True
    )
    shape = draw(st.sampled_from(["richnote", "fixed", "stacked"]))
    if shape == "richnote":
        cells = [(MethodSpec(Method.RICHNOTE), b) for b in draw(budgets)]
    elif shape == "fixed":
        spec = draw(FIXED)
        cells = [(spec, b) for b in draw(budgets)]
    else:
        cells = draw(
            st.lists(st.tuples(FIXED, st.sampled_from([0.5, 2.0, 20.0])),
                     min_size=2, max_size=4, unique=True)
        )
    weeks = draw(st.sampled_from([1, 2, 3, 4]))
    tie = st.tuples(st.sampled_from(NEAR_TIES), st.sampled_from([0.55, 0.85, 1.0]))
    ties = [
        (kind, position, utility)
        for position, (kind, utility) in draw(
            st.lists(st.tuples(st.integers(0, 10**6), tie), max_size=20)
        )
    ]
    # And one near-tie on every ``stride``-th item.
    stride = (draw(st.sampled_from([0, 3, 8, 25])), *draw(tie))
    return (
        cells,
        weeks,
        draw(st.sampled_from(list(AGINGS))),
        draw(st.sampled_from([NetworkMode.CELL_ONLY, NetworkMode.MARKOV])),
        (ties, stride),
        draw(st.integers(0, 168 * weeks + 2)),
    )


def _columns_of(result):
    return (
        result.delivered.tobytes(),
        result.backlog_sum_bytes.tobytes(),
        result.max_queue_length.tobytes(),
        result.final_queue_length.tobytes(),
    )


def test_kept_order_equals_both_queue_oracles(monkeypatch):
    seen: Counter[str] = Counter()
    band, bands = ColumnarEngine._band, Counter()

    def counted_band(engine, members, starts, take, counts):
        extra = band(engine, members, starts, take, counts)
        bands["extended"] += int(np.count_nonzero(extra))
        bands["standing"] += bool((take < counts).any())
        return extra

    monkeypatch.setattr(ColumnarEngine, "_band", counted_band)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(passes())
    # Whatever the draws: UTIL under exponential aging with a near-tie on
    # many items (band extensions), a stacked pass, non-exponential and
    # underflowing aging, and RichNote.
    @example(([(UTIL_2, 0.5), (UTIL_2, 2.0)], 4, "exponential", NetworkMode.CELL_ONLY,
              ([], (3, "equal", 1.0)), 100))
    @example(([(UTIL_2, 0.5), (MethodSpec(Method.FIFO, 3), 2.0),
               (MethodSpec(Method.UTIL, 1), 20.0)], 2, "exponential", NetworkMode.MARKOV,
              ([], (8, "equal-key", 0.85)), 50))
    @example(([(MethodSpec(Method.UTIL, 3), 2.0)], 1, "linear", NetworkMode.MARKOV,
              ([("zero", 10, 1.0)], (25, "created-ulp", 0.55)), 0))
    @example(([(UTIL_2, 0.5)], 2, "exponential-underflowing", NetworkMode.CELL_ONLY,
              ([], (0, "equal", 1.0)), 10))
    @example(([(MethodSpec(Method.RICHNOTE), 0.5), (MethodSpec(Method.RICHNOTE), 20.0)], 3,
              "none", NetworkMode.CELL_ONLY, ([], (3, "content-ulp", 1.0)), 200))
    def prop(drawn):
        cells, weeks, aging, network_mode, ties, split = drawn
        base, duration = _base(weeks)
        columns = _with_near_ties(base, *ties).tiled(len(cells))
        config = ExperimentConfig(seed=59, network_mode=network_mode)
        model = CombinedUtilityModel(aging=AGINGS[aging])
        oracles = [FlatQueueEngine]
        if len({spec for spec, _ in cells}) == 1 and cells[0][0].method is not Method.RICHNOTE:
            oracles.append(WholeBacklogEngine)
        before = dict(bands)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ExperimentConfig, "utility_model", lambda self: model)
            engine = make_pass_engine(columns, cells, config, duration)
            result = engine.run(limit_rounds=split)
            stopped = _columns_of(result)
            result = engine.run()
            digests = [o.delivery_digest for o in fold_outcomes(columns, result, True)]
            for oracle_type in oracles:
                patch.setattr(experiments_columnar, "ColumnarEngine", oracle_type)
                oracle = make_pass_engine(columns, cells, config, duration)
                assert type(oracle) is oracle_type
                # Equal where both stop at ``split``, and again at the end.
                assert _columns_of(oracle.run(limit_rounds=split)) == stopped
                expected = oracle.run()
                assert _columns_of(expected) == _columns_of(result)
                assert [
                    o.delivery_digest for o in fold_outcomes(columns, expected, True)
                ] == digests

        specs = {spec for spec, _ in cells}
        util = any(spec.method is Method.UTIL for spec in specs)
        seen["cases"] += 1
        seen["delivered"] += len(result.delivered) > 0
        seen["stacked" if len(specs) > 1 else cells[0][0].method.value] += 1
        seen[f"weeks-{weeks}"] += 1
        seen[aging] += 1
        seen[network_mode.value] += 1
        seen["split_mid_run"] += 0 < split < len(engine.times)
        seen["keyed"] += engine._flat_of is not None
        seen["util_unkeyed"] += util and engine._flat_of is None
        seen["non_exponential_delivering"] += aging == "linear" and len(result.delivered) > 0
        extended = bands["extended"] - before.get("extended", 0)
        seen["band_extensions"] += extended
        seen["band_extensions_exponential"] += extended if aging == "exponential" else 0
        seen["standing_backlog_rounds"] += bands["standing"] - before.get("standing", 0)

    prop()
    assert seen["cases"] == 105, seen
    # The explicit examples alone give ~180 band extensions under
    # exponential aging, ~270 in all and ~330 standing-backlog rounds.
    for needed, at_least in {
        "delivered": 95,
        "richnote": 10,
        "stacked": 8,
        "util": 10,
        "fifo": 5,
        "weeks-4": 10,
        "exponential": 15,
        "linear": 8,
        "none": 5,
        "exponential-underflowing": 5,
        "markov": 8,
        "split_mid_run": 40,
        "keyed": 10,
        "util_unkeyed": 6,
        "non_exponential_delivering": 8,
        "band_extensions": 800,
        "band_extensions_exponential": 150,
        "standing_backlog_rounds": 2500,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)


def _first_round(created, contents, aging):
    """One user's first hourly round, UTIL at level 2 with a budget for one
    item, on the engine and on ``FlatQueueEngine``: both delivery logs."""
    cohort = ColumnarCohort(
        user_ids=[7], offsets=[0, len(created)], item_ids=list(range(len(created))),
        created_at=created, contents=contents, ladder=LADDER,
    )
    return [
        engine_type(
            cohort,
            DeviceColumns(e_t=np.full((2, 1), 1.0), states=None),
            UtilPolicy(fixed_level=2),
            CombinedUtilityModel(aging=aging),
            theta_bytes=float(LADDER[2].size_bytes),
            kappa_joules=3000.0,
            round_seconds=3600.0,
            duration_seconds=2 * 3600.0,
        ).run(limit_rounds=1).delivered
        for engine_type in (ColumnarEngine, FlatQueueEngine)
    ]


def test_tied_utilities_go_to_the_earlier_item():
    """Static keys order near-ties by rounding, so rows reach the delivery
    sort in key order; an exact tie in realized utility must still go to
    the earlier item, as on the scalar loop.  Here the later item has the
    larger key, the two realize the same utility in the first round, and
    the budget affords one item."""
    created = np.array([1754.1764118509288, 3487.6800892979554])
    contents = np.array([0.6906021188441063, 0.6502603057844788])
    keys = np.log(contents) + created / TAU
    assert keys[1] > keys[0]
    first, second = kernels.exp_decay_column(contents, 3600.0 - created, TAU)
    assert first == second
    delivered, expected = _first_round(created, contents, ExponentialAging(TAU))
    assert expected["index"].tolist() == [0]
    assert delivered.tobytes() == expected.tobytes()


def test_underflowing_aging_keeps_flat_order():
    """With tau = 1 s an hour-old item decays to exactly 0: every item ties
    and the earliest is taken, whatever its static key.  Such an engine
    has no static key, so it keeps flat order and scores whole runs."""
    created, contents = np.array([0.0, 10.0, 20.0]), np.full(3, 0.5)
    delivered, expected = _first_round(created, contents, ExponentialAging(1.0))
    assert expected["index"].tolist() == [0]
    assert delivered.tobytes() == expected.tobytes()
