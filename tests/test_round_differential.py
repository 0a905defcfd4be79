"""The one-pass round against the per-connectivity-group round it replaced.

``ColumnarEngine`` selects a round's CELL and WIFI users in one pass, each
row priced by its own user's connectivity code.  The oracle is the round
that ran one selection pass per network state, kept below as
``PerGroupEngine`` (on the engine's order-key queue and pending counters):
scalar-code capacity, energy-estimate rows and radio profile per group,
CELL first, then WIFI.  Both share everything else (ingest, the select
bodies, queue bookkeeping), so any difference is the
per-row pricing's or the one pass's.  Within a round the two logs order
deliveries differently -- (user, utility) against (state, user, utility)
-- so rows are compared per user, which is all the fold and the digests
read.  The Eq. 7 profit rows are compared too, since the energy term
that reads the state seldom moves a pick, and one-second rounds make
each state's link capacity bind.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.columnar as experiments_columnar
from repro.core.channels import ChannelSet, builtin_channel
from repro.core.presentations import build_audio_ladder
from repro.experiments.columnar import build_cohort, fold_outcomes, make_pass_engine
from repro.experiments.config import ExperimentConfig, Method, MethodSpec, NetworkMode
from repro.experiments.runner import UtilityAnnotations
from repro.runtime import kernels, registry
from repro.runtime.columnar import (
    STATE_CODES,
    ColumnarCohort,
    ColumnarEngine,
    DeviceColumns,
    _estimate_row,
)
from repro.sim.energy import TransferEnergyModel
from repro.sim.network import DEFAULT_BANDWIDTH_BPS, NetworkState
from repro.trace.generator import TraceConfig, iter_users

_OFF_CODE = STATE_CODES[NetworkState.OFF]


class PerGroupEngine(ColumnarEngine):
    """The engine with one selection pass per network-state group; a
    group's ``codes`` field carries that group's one code."""

    def __init__(self, *args, round_seconds, expected_batch=10, **kwargs):
        super().__init__(
            *args, round_seconds=round_seconds, expected_batch=expected_batch, **kwargs
        )
        self.mixed_rounds = 0
        energy_model = TransferEnergyModel()
        states = (NetworkState.CELL, NetworkState.WIFI)
        self._capacity = {
            STATE_CODES[state]: DEFAULT_BANDWIDTH_BPS[state] * round_seconds
            for state in states
        }
        self._radio = {
            STATE_CODES[state]: energy_model.profile(state) for state in states
        }
        estimates = {
            STATE_CODES[state]: partial(
                energy_model.estimate_for_selection,
                state,
                expected_batch=expected_batch,
            )
            for state in states
        }
        ladders = [channel.ladder or self.cohort.ladder for channel in self.channels]
        wire_rows = [[step.size_bytes for step in ladder] for ladder in ladders]
        self._energies_rows = {
            code: [_estimate_row(estimate, wire) for wire in wire_rows]
            for code, estimate in estimates.items()
        }

    def _select_and_deliver(self, k, now):
        codes = self._all_cell if self.device.states is None else self.device.states[k]
        groups = 0
        for code in range(_OFF_CODE):
            members = np.flatnonzero((self.state.pending > 0) & (codes == code))
            if members.size:
                groups += 1
                self._select(now, members, code)
        self.mixed_rounds += groups == _OFF_CODE

    def _budgets(self, members, code):
        return np.minimum(
            self.state.data_available[members], self._capacity[code]
        ).astype(np.int64)

    def _adjusted_rows(self, group, decayed):
        cfg = self._lyapunov
        q_column = np.repeat(group.counts * self._ladder_total_f, group.counts)
        p_column = np.repeat(
            self.state.energy_available[group.members], group.counts
        )
        return [
            kernels.lyapunov_adjusted_rows(
                kernels.combined_utility_matrix(decayed, presentation_row),
                energies_row,
                self._ladder_total_f,
                q_column,
                p_column,
                kappa_joules=cfg.kappa_joules,
                v=cfg.v,
                size_scale=cfg.size_scale,
                energy_scale=cfg.energy_scale,
            )
            for presentation_row, energies_row in zip(
                self._pres_rows, self._energies_rows[group.codes]
            )
        ]

    def _deliver(self, now, code, keys, level, utility, channel):
        if not keys.size:
            return
        wire = self._wire_table[channel, level]
        billed = self._billed_table[channel, level]
        users = self._user_of[keys]
        starts = np.flatnonzero(np.diff(users, prepend=-1))
        batch_sizes = np.diff(starts, append=users.size)
        totals = np.repeat(np.add.reduceat(wire, starts), batch_sizes)
        radio = self._radio[code]
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(
                totals > 0,
                (radio.per_kb_joules * (totals / 1024.0) + radio.overhead_joules)
                * (wire / totals),
                0.0,
            )
        state = self.state
        for step in range(int(batch_sizes.max())):
            at = starts[batch_sizes > step] + step
            who = users[at]
            state.data_available[who] = np.maximum(
                0.0, state.data_available[who] - billed[at]
            )
            state.energy_available[who] = np.maximum(
                0.0, state.energy_available[who] - share[at]
            )
        index = keys if self._flat_of is None else self._flat_of[keys]
        end = self._n_delivered + users.size
        rows = self._delivered[self._n_delivered : end]
        for name, column in zip(
            rows.dtype.names,
            (users, now, index, level, wire, share, utility, channel),
        ):
            rows[name] = column
        self._n_delivered = end
        self._dequeue(keys, users[starts], batch_sizes)


@cache
def _streams():
    trace = TraceConfig(seed=37)
    pairs = [(u, r) for u, r in iter_users(12, trace) if r]
    # A coarse score grid, so equal utilities and gradients are common.
    scores = {
        r.notification_id: 0.15 + 0.1 * (r.notification_id % 8)
        for _, records in pairs for r in records
    }
    return pairs, UtilityAnnotations(scores=scores), trace.duration_hours * 3600.0


def _three_channels():
    return ChannelSet([builtin_channel(name) for name in ("push", "inapp", "email")])


CHANNELS = {"push": lambda: None, "push-inapp-email": _three_channels}

#: FIFO/UTIL at a fixed level: the cells one stacked baseline pass carries.
FIXED_SPECS = st.tuples(st.sampled_from([Method.FIFO, Method.UTIL]), st.integers(1, 4))


@st.composite
def passes(draw):
    """``(cells, channels, aging, kappa, split)``: a RichNote budget column,
    or any set of FIFO/UTIL (spec, budget) cells -- one policy per row."""
    budgets = st.sampled_from([0.05, 0.5, 2.0, 20.0, 200.0])
    if draw(st.booleans()):
        cells = [
            (MethodSpec(Method.RICHNOTE), budget)
            for budget in draw(st.lists(budgets, min_size=1, max_size=3, unique=True))
        ]
    else:
        cells = [
            (MethodSpec(method, level), budget)
            for (method, level), budget in draw(
                st.lists(st.tuples(FIXED_SPECS, budgets), min_size=1, max_size=4, unique=True)
            )
        ]
    return (
        cells,
        draw(st.sampled_from(sorted(CHANNELS))),
        draw(st.sampled_from([None, 28_800.0])),
        # The default kappa never binds, so Eq. 7's energy term -- the one
        # that reads each row's state -- moves no pick; 5 J a round does.
        draw(st.sampled_from([3000.0, 5.0])),
        draw(st.integers(0, 170)),
    )


def _state(engine):
    state = engine.state
    return [
        state.data_available.tobytes(),
        state.energy_available.tobytes(),
        state.pending.tobytes(),
    ]


def _per_user(result):
    order, offsets = result.user_order
    return result.delivered.take(order).tobytes(), offsets.tolist()


def _recorded_profits(engine):
    """Record every Eq. 7 profit row ``engine`` selects with; returns a
    function giving them, channels side by side, in (round, flat index)
    order.  Picks alone would hide a wrong energy row: at these scales
    the energy term is far below ``V * U`` and rarely moves a pick."""
    rounds, flats, rows, at = [], [], [], [0]
    select_and_deliver, adjusted_rows = engine._select_and_deliver, engine._adjusted_rows

    def in_round(k, now):
        at[0] = k
        select_and_deliver(k, now)

    def recording(group, decayed):
        profits = adjusted_rows(group, decayed)
        rounds.append(np.full(group.flat.size, at[0]))
        flats.append(group.flat)
        rows.append(np.hstack(profits))
        return profits

    engine._select_and_deliver, engine._adjusted_rows = in_round, recording

    def table():
        if not rows:
            return np.zeros((0, 0))
        order = np.lexsort((np.concatenate(flats), np.concatenate(rounds)))
        return np.concatenate(rows)[order]

    return table


def test_one_pass_round_equals_the_per_group_round():
    seen: Counter[str] = Counter()
    pairs, annotations, duration = _streams()
    ladder = build_audio_ladder(ExperimentConfig().presentation_spec)
    base = build_cohort(pairs, annotations, ladder)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(passes())
    def prop(drawn):
        cells, channels, aging, kappa, split = drawn
        config = ExperimentConfig(
            seed=37, network_mode=NetworkMode.MARKOV, aging_tau_seconds=aging,
            kappa_joules_per_round=kappa,
        )
        columns = base.tiled(len(cells))
        engine = make_pass_engine(
            columns, cells, config, duration, channels=CHANNELS[channels]()
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments_columnar, "ColumnarEngine", PerGroupEngine)
            oracle = make_pass_engine(
                columns, cells, config, duration, channels=CHANNELS[channels]()
            )
        assert type(oracle) is PerGroupEngine and type(engine) is ColumnarEngine
        profits, expected_profits = _recorded_profits(engine), _recorded_profits(oracle)

        # Equal where both stop at ``split``, and again once resumed to the end.
        result, expected = engine.run(split), oracle.run(split)
        assert _per_user(result) == _per_user(expected)
        assert _state(engine) == _state(oracle)
        result, expected = engine.run(), oracle.run()
        assert _per_user(result) == _per_user(expected)
        assert _state(engine) == _state(oracle)
        assert result.backlog_sum_bytes.tobytes() == expected.backlog_sum_bytes.tobytes()
        assert np.array_equal(result.max_queue_length, expected.max_queue_length)
        assert [o.delivery_digest for o in fold_outcomes(columns, result, True)] == [
            o.delivery_digest for o in fold_outcomes(columns, expected, True)
        ]
        priced = profits()
        assert priced.tobytes() == expected_profits().tobytes()

        seen["cases"] += 1
        seen["profit_rows"] += len(priced)
        seen["mixed_rounds"] += oracle.mixed_rounds
        seen["cases_with_mixed_rounds"] += oracle.mixed_rounds > 0
        seen["delivered"] += len(result.delivered) > 0
        richnote = cells[0][0].method is Method.RICHNOTE
        seen["richnote" if richnote else "fixed"] += 1
        seen["richnote_energy_bound"] += richnote and kappa < 3000.0
        seen["stacked"] += len(cells) > 1
        seen["policy_per_row"] += len({spec for spec, _ in cells}) > 1
        seen[channels] += 1
        seen["split_mid_run"] += 0 < split < len(engine.times)

    prop()
    assert seen["cases"] == 60, seen
    for needed, at_least in {
        "mixed_rounds": 3000,
        "cases_with_mixed_rounds": 55,
        "delivered": 50,
        "richnote": 20,
        "fixed": 20,
        "richnote_energy_bound": 8,
        "profit_rows": 10_000,
        "stacked": 25,
        "policy_per_row": 10,
        "push": 25,
        "push-inapp-email": 10,
        "split_mid_run": 25,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)


def test_link_capacity_is_each_users_own():
    """One-second rounds make the link bind: CELL carries 125 kB a round,
    WIFI 625 kB.  A CELL and a WIFI user with equal queues in one round get
    batches capped by their own link, on both engines alike."""
    items = 40
    cohort = ColumnarCohort(
        user_ids=[1, 2], offsets=[0, items, 2 * items],
        item_ids=list(range(2 * items)), created_at=np.zeros(2 * items),
        contents=np.tile(np.linspace(0.2, 0.9, items), 2),
        ladder=build_audio_ladder(),
    )
    cell, wifi = STATE_CODES[NetworkState.CELL], STATE_CODES[NetworkState.WIFI]
    device = DeviceColumns(
        e_t=np.full((3, 2), 1.0),
        states=np.asarray([[cell, wifi], [wifi, cell], [cell, cell]], dtype=np.int8),
    )
    for name, params in (("richnote", {}), ("fifo", {"fixed_level": 2})):
        engine, oracle = (
            engine_type(
                cohort, device, registry.create(name, **params), theta_bytes=1e9,
                kappa_joules=30.0, round_seconds=1.0, duration_seconds=3.0,
            )
            for engine_type in (ColumnarEngine, PerGroupEngine)
        )
        result, expected = engine.run(), oracle.run()
        assert _per_user(result) == _per_user(expected)
        assert _state(engine) == _state(oracle)
        first = result.delivered[result.delivered["time"] == 1.0]
        cell_bytes, wifi_bytes = np.bincount(first["user"], weights=first["size"])
        assert 0 < cell_bytes <= 125_000 < wifi_bytes <= 625_000, name
