"""A stacked fixed-level pass against its cells run one at a time.

Every FIFO/UTIL cell of a sweep shares one engine pass: row ``c * n + u``
is user ``u`` in cell ``c``, with that cell's fixed level, scoring rule
and budget as per-row columns.  The oracle is the one-cell pass, which
binds a single policy, plus the scalar ``run_user`` on a sampled row.
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import (
    build_cohort,
    fold_outcomes,
    make_pass_engine,
    sweep_cohort,
)
from repro.experiments.config import (
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.runner import UtilityAnnotations, run_user
from repro.runtime.columnar import ColumnarPolicyError
from repro.trace.generator import TraceConfig, iter_users

LADDER = build_audio_ladder(ExperimentConfig().presentation_spec)


@cache
def _streams():
    trace = TraceConfig(seed=41)
    pairs = [(u, r) for u, r in iter_users(10, trace) if r]
    # A coarse score grid: equal realized utilities are common, so the
    # per-user sort must keep ties in queue order within every row block.
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    annotations = UtilityAnnotations(scores=scores)
    columns = build_cohort(pairs, annotations, LADDER)
    return pairs, annotations, columns, trace.duration_hours * 3600.0


@pytest.fixture(scope="module")
def streams():
    return _streams()


@st.composite
def fixed_cells(draw):
    """1-4 FIFO/UTIL specs (levels past the ladder top clamp) x 1-4 budgets,
    as an arbitrary, usually non-rectangular, ordered subset of the grid."""
    specs = draw(
        st.lists(
            st.builds(
                MethodSpec,
                st.sampled_from([Method.FIFO, Method.UTIL]),
                st.integers(1, LADDER.max_level + 1),
            ),
            min_size=1, max_size=4, unique=True,
        )
    )
    budgets = draw(st.lists(st.floats(0.05, 500.0), min_size=1, max_size=4, unique=True))
    grid = [(spec, budget) for spec in specs for budget in budgets]
    return draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique=True))


class TestFixedLevelPass:
    @settings(max_examples=100, deadline=None)
    @given(
        cells=fixed_cells(),
        network_mode=st.sampled_from([NetworkMode.CELL_ONLY, NetworkMode.MARKOV]),
        aging_tau_seconds=st.sampled_from([None, 28_800.0]),
        split=st.integers(0, 170),
        sampled=st.integers(0, 10**6),
    )
    def test_any_fixed_level_pass_equals_its_cells_run_alone(
        self, streams, cells, network_mode, aging_tau_seconds, split, sampled
    ):
        """Whole outcomes, digests included, of the stacked pass resumed at
        ``split`` == each cell's one-cell pass; plus ``run_user`` on one
        sampled (user, cell) row."""
        pairs, annotations, columns, duration = streams
        config = ExperimentConfig(
            seed=41, network_mode=network_mode, aging_tau_seconds=aging_tau_seconds
        )
        stacked = columns.tiled(len(cells))
        engine = make_pass_engine(stacked, cells, config, duration)
        engine.run(limit_rounds=split)
        outcomes = fold_outcomes(stacked, engine.run(), digest_deliveries=True)
        # A draw that delivers nothing proves nothing.
        assume(any(o.metrics.delivered_notifications for o in outcomes))
        users = len(pairs)
        for at, cell in enumerate(cells):
            (alone,) = sweep_cohort(columns, [cell], config, duration, digest_deliveries=True)
            assert outcomes[at * users : (at + 1) * users] == alone

        at, user = divmod(sampled % len(outcomes), users)
        (spec, budget), (user_id, records) = cells[at], pairs[user]
        assert outcomes[at * users + user] == run_user(
            user_id, records, spec, config.with_budget(budget), annotations,
            duration, digest_deliveries=True,
        )

    def test_richnote_never_shares_a_pass(self, streams):
        _, _, columns, duration = streams
        cells = [(MethodSpec(Method.RICHNOTE), 5.0), (MethodSpec(Method.FIFO, 2), 5.0)]
        with pytest.raises(ColumnarPolicyError, match="per row"):
            make_pass_engine(columns.tiled(2), cells, ExperimentConfig(), duration)
