"""Columnar multi-user round execution: struct-of-arrays, one cohort at a time.

The scalar stack (:mod:`repro.runtime.loop` driven per user on the round
clock of :func:`round_arrivals`) walks one Python object graph per user
per round.  That is the right shape for extensibility -- policies,
fault engines and observers all hook the loop -- but it caps simulations
at a few hundred users.  This module expresses the *paper-default* round
semantics (no TTL, no fault engine, no level caps) as columns over a
whole cohort; a round phase is a handful of array operations over every
connected user at once, never a loop over users:

* :class:`ColumnarRoundState` -- the Algorithm 2 state as parallel numpy
  arrays (byte budgets ``B(t)``, energy budgets ``P(t)``, backlog
  ``Q(t)``, exact pending counters) plus *one* scheduling queue for the
  whole cohort: the sorted array of queued *order keys*.  An item's key
  is fixed when the engine is built: keys are user-partitioned like flat
  indices (user ``u`` owns ``cohort.offsets[u]:cohort.offsets[u + 1]``)
  and ascend in that user's selection order -- created-at order, or for
  a UTIL row the static aging key -- so a user's queue is one contiguous
  run, found from the pending counters alone;
* :class:`DeviceColumns` -- per-round connectivity states and battery
  replenishment ``e(t)`` for every user, precomputed from the *same*
  seeded :mod:`repro.sim` models the scalar path steps round by round:
  :func:`build_device_columns` runs each model as one recurrence across
  a block of users, every user's RNG lane drawn in its scalar order;
* :class:`ColumnarEngine` -- the phase loop.  Ingest merges the round's
  slice of a precomputed argsort into the queue; RichNote selection stacks
  the queued rows of every connected user, prices every configured channel's
  ladder with the Eq. 7 kernels (each row under its user's network state)
  and runs one segmented Algorithm 1
  (:func:`repro.runtime.kernels.greedy_select`, one segment per user)
  over each item's (channel x level) choice row; delivery debits the
  budget columns and appends :data:`DELIVERY_DTYPE` rows, each naming its
  carrying channel, to one log.  As in the scalar runtime there is no
  single-channel path: an engine built with no channels runs the
  one-channel :func:`~repro.core.channels.default_channel_set`.  The
  engine has one column kernel per registered built-in (RichNote / FIFO
  / UTIL under the stock
  :class:`~repro.core.utility.CombinedUtilityModel`); any other policy
  or utility model raises :class:`ColumnarPolicyError` -- custom
  policies are evaluated on :class:`~repro.runtime.loop.RoundLoop`.

Bit-for-bit parity with the scalar path is a hard contract, not an
aspiration: every float operation pairs the same operands in the same
order as the object path (see the golden-digest tests in
``tests/test_runtime.py`` and the seeded property tests in
``tests/test_columnar.py``).  When editing this module, treat any change
to an arithmetic expression as a digest-breaking change.

Scope: the engine models the paper's atomic delivery semantics.  TTL
expiry, the fault-tolerant delivery engine and service-layer level caps
stay on :class:`~repro.runtime.loop.RoundLoop` (the experiment layer
picks the driver in ``repro.experiments.runner.sweep_users``).  One
native presentation ladder is shared across the cohort, mirroring how
the experiment layer builds items.  Policy lifecycle hooks run once per
engine, not once per user:
``attach`` is invoked against a budget shim at bind time, and
``after_round`` diagnostics are not replayed -- deliveries and metrics,
the parity surface, are unaffected.

Layering (``tests/test_layering.py``): this module sits in the runtime zone -- it
may use :mod:`repro.core`, :mod:`repro.sim` and its sibling runtime
modules, never :mod:`repro.experiments` or the CLI.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.core.budgets import EnergyBudget
from repro.core.channels import ChannelSet, default_channel_set
from repro.core.content import PresentationLadder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.runtime import kernels
from repro.runtime.policy import (
    FifoPolicy,
    RichNotePolicy,
    SchedulerPolicy,
    UtilPolicy,
)
from repro.sim.battery import DiurnalBatteryModel
from repro.sim.energy import TransferEnergyModel
from repro.sim.network import (
    DEFAULT_BANDWIDTH_BPS,
    MarkovNetworkModel,
    NetworkState,
)

__all__ = [
    "DELIVERY_DTYPE",
    "ColumnarCohort",
    "ColumnarEngine",
    "ColumnarPolicyError",
    "ColumnarRoundState",
    "ColumnarRunResult",
    "DeviceColumns",
    "build_device_columns",
    "markov_state_columns",
    "round_arrivals",
    "round_times",
]


class ColumnarPolicyError(TypeError):
    """The engine has no column kernel for this policy or utility model."""


#: Compact per-round connectivity codes used by :class:`DeviceColumns`.
#: OFF is the last: the engine's per-state tables cover the codes below it.
STATE_CODES: dict[NetworkState, int] = {
    NetworkState.CELL: 0,
    NetworkState.WIFI: 1,
    NetworkState.OFF: 2,
}
_OFF_CODE = STATE_CODES[NetworkState.OFF]


def round_times(round_seconds: float, duration_seconds: float) -> list[float]:
    """The round clock: the time of every round tick, on both engines.

    The first tick is at ``round_seconds``; ticks follow while the next
    one falls before ``duration + 1.0``, by float *accumulation*
    (``t += period``), which is not the same sequence as ``k * period``
    once rounding error compounds.  Battery traces sample with the same
    accumulation, so round ``k`` reads battery sample ``k + 1``.
    """
    for name, value in (
        ("round_seconds", round_seconds), ("duration_seconds", duration_seconds)
    ):
        # NaN would give zero rounds and inf a clock that never stops.
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if round_seconds <= 0:
        raise ValueError(f"period must be positive, got {round_seconds}")
    times: list[float] = []
    if round_seconds < duration_seconds + 2.0:
        t = round_seconds
        times.append(t)
        while t + round_seconds < duration_seconds + 1.0:
            t = t + round_seconds
            times.append(t)
    return times


def round_arrivals(
    arrival_times: Sequence[float], round_seconds: float, duration_seconds: float
) -> list[tuple[float, int]]:
    """The round clock over one time-sorted arrival stream, for scalar replay.

    One ``(time, end)`` per round of :func:`round_times`: arrivals from the
    previous round's ``end`` up to this ``end`` join the round
    (:func:`repro.runtime.kernels.ingest_round_index`), so a caller hands
    them in and then runs the round.  ``arrival_times`` must be sorted,
    ties in stream order (a stable sort); arrivals past the last ``end``
    come after the last round.
    """
    times = round_times(round_seconds, duration_seconds)
    rounds = kernels.ingest_round_index(arrival_times, times)
    ends = np.searchsorted(rounds, np.arange(len(times)), side="right")
    return list(zip(times, ends.tolist()))


@dataclass
class ColumnarCohort:
    """A population's notification streams as flat, user-partitioned columns.

    Items of user ``user_ids[u]`` occupy flat positions
    ``offsets[u]:offsets[u + 1]``, stable-sorted by ``created_at`` within
    the user (the order the scalar replay enqueues them).  One
    presentation ladder is shared cohort-wide.
    """

    user_ids: list[int]
    offsets: np.ndarray
    item_ids: list[int]
    created_at: np.ndarray
    contents: np.ndarray
    ladder: PresentationLadder
    #: ``item_ids`` as an array, for gathers by flat index.
    item_id_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.created_at = np.asarray(self.created_at, dtype=np.float64)
        self.contents = np.asarray(self.contents, dtype=np.float64)
        n_users = len(self.user_ids)
        if self.offsets.shape != (n_users + 1,):
            raise ValueError(
                f"offsets must have length n_users + 1 = {n_users + 1}, "
                f"got {self.offsets.shape}"
            )
        if int(self.offsets[0]) != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must start at 0 and be non-decreasing")
        n_items = int(self.offsets[-1])
        for name, column in (
            ("item_ids", self.item_ids),
            ("created_at", self.created_at),
            ("contents", self.contents),
        ):
            if len(column) != n_items:
                raise ValueError(
                    f"{name} has {len(column)} entries, offsets imply {n_items}"
                )
        # Eq. 1 needs U_c in [0, 1] (what ``ContentItem`` enforces on the
        # scalar path) and a NaN timestamp would never be ingested.
        hostile = ~(
            (self.contents >= 0.0)
            & (self.contents <= 1.0)
            & np.isfinite(self.created_at)
        )
        if hostile.any():
            at = int(np.flatnonzero(hostile)[0])
            owner = int(np.searchsorted(self.offsets, at, side="right")) - 1
            raise ValueError(
                f"user {self.user_ids[owner]} item {self.item_ids[at]}: content "
                f"utility must be in [0, 1] and created_at finite, got "
                f"{self.contents[at]} at {self.created_at[at]}"
            )
        # Item ids break Algorithm 1's gradient ties, so they must be
        # unique within a user.  Equal ids stay in flat (= user) order
        # under a stable sort, which puts a user's duplicates side by side.
        self.item_id_column = np.asarray(self.item_ids)
        order = np.argsort(self.item_id_column, kind="stable")
        owner = np.repeat(np.arange(n_users), np.diff(self.offsets))[order]
        ids = self.item_id_column[order]
        repeated = (ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])
        if repeated.any():
            at = np.flatnonzero(repeated)[0]
            raise ValueError(
                f"user {self.user_ids[owner[at]]} has duplicate item id {ids[at]}"
            )

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return int(self.offsets[-1])

    def tiled(self, copies: int) -> "ColumnarCohort":
        """The population ``copies`` times end to end (row ``c * n_users + u``
        copies user ``u``): independent users to the engine, so one pass can
        carry a per-row setting, such as a budget, per copy."""
        counts = np.tile(np.diff(self.offsets), copies)
        return ColumnarCohort(
            user_ids=self.user_ids * copies,
            offsets=np.concatenate(([0], np.cumsum(counts))),
            item_ids=self.item_ids * copies,
            created_at=np.tile(self.created_at, copies),
            contents=np.tile(self.contents, copies),
            ladder=self.ladder,
        )


@dataclass
class DeviceColumns:
    """Per-round device context for every user, precomputed as columns.

    ``e_t[k, u]`` is user ``u``'s battery-aware energy replenishment at
    round ``k``; ``states[k, u]`` their connectivity code
    (:data:`STATE_CODES`), or ``None`` when the whole cohort is pinned to
    CELL (the paper's main cellular-only setup).  The engine indexes its
    per-state tables by code, so a code outside :data:`STATE_CODES` is
    refused here rather than read as some other state.
    """

    e_t: np.ndarray
    states: np.ndarray | None

    def __post_init__(self) -> None:
        if np.ndim(self.e_t) != 2:
            raise ValueError(
                f"e_t must be a (round, user) matrix, got shape {np.shape(self.e_t)}"
            )
        states = self.states
        if states is None:
            return
        if not (
            isinstance(states, np.ndarray) and np.issubdtype(states.dtype, np.integer)
        ):
            raise ValueError(
                "states must be an integer array of STATE_CODES codes, got "
                f"{getattr(states, 'dtype', type(states).__name__)}"
            )
        if states.shape != np.shape(self.e_t):
            raise ValueError(
                f"states shaped {states.shape}, expected e_t's {np.shape(self.e_t)}: "
                "one code per (round, user)"
            )
        bad = np.isin(states, list(STATE_CODES.values()), invert=True)
        if bad.any():
            k, u = np.argwhere(bad)[0].tolist()
            raise ValueError(
                f"states[{k}, {u}] (round {k}, user row {u}) is {states[k, u]}, "
                f"not a connectivity code in {sorted(STATE_CODES.values())}"
            )

    def tiled(self, copies: int) -> "DeviceColumns":
        """The user axis ``copies`` times over, as :meth:`ColumnarCohort.tiled`."""
        states = None if self.states is None else np.tile(self.states, (1, copies))
        return DeviceColumns(e_t=np.tile(self.e_t, (1, copies)), states=states)


#: Users per pass of :func:`build_device_columns`: bounds its (round x user)
#: temporaries and live ``random.Random`` lanes (2.5 kB each) at any population.
_LANE_BLOCK = 128


def markov_state_columns(
    model: MarkovNetworkModel, lanes: Sequence[random.Random], n_rounds: int
) -> np.ndarray:
    """``n_rounds`` steps of ``model``'s chain per RNG lane, as codes.

    ``out[k, u]`` is the :data:`STATE_CODES` code call ``k + 1`` of
    :meth:`~repro.sim.network.MarkovNetworkModel.step` returns with
    ``lanes[u]`` as the ``rng``; each lane is left where those calls leave
    it.  ``step`` draws once per call whatever the state, so draws are taken
    per lane in bulk and a round is one vector transition: the target's
    position in its row is how many cumulative bounds, the last excluded
    (``step``'s float-shortfall guard), the draw reaches.
    """
    width = max(len(row) for row in model.transitions.values())
    bounds = np.full((len(STATE_CODES), width - 1), np.inf)
    targets = np.zeros((len(STATE_CODES), width), dtype=np.intp)
    for source, row in model.transitions.items():
        code = STATE_CODES[source]
        targets[code, : len(row)] = [STATE_CODES[target] for target in row]
        bounds[code, : len(row) - 1] = list(accumulate(row.values(), initial=0.0))[1:-1]
    draws = [[lane.random() for _ in range(n_rounds)] for lane in lanes]
    draws = np.array(draws, dtype=np.float64).reshape(len(lanes), n_rounds)
    out = np.empty((n_rounds, len(lanes)), dtype=np.int8)
    state = np.full(len(lanes), STATE_CODES[model.initial_state], dtype=np.intp)
    for k in range(n_rounds):
        reached = (draws[:, k, None] >= bounds[state]).sum(axis=1)
        out[k] = state = targets[state, reached]
    return out


def build_device_columns(
    seeds: Sequence[int],
    times: Sequence[float],
    round_seconds: float,
    duration_seconds: float,
    kappa_joules: float,
    markov: bool = False,
) -> DeviceColumns:
    """Precompute battery + connectivity columns from per-user RNG lanes.

    User ``u`` draws connectivity from ``random.Random(seeds[u])`` and the
    battery from ``random.Random(seeds[u] + 1)``, as the scalar device
    construction does.  Each model runs as one recurrence across a block of
    lanes (:meth:`~repro.sim.battery.DiurnalBatteryModel.replenishment_columns`,
    :func:`markov_state_columns`): per lane the same draws in the same order,
    no per-user model or trace object.  ``times`` is read for its length
    only: round ``k`` reads battery sample ``k + 1`` (:func:`round_times`).
    """
    if round_seconds <= 0:
        raise ValueError("sample period must be positive")
    if duration_seconds <= 0:
        raise ValueError("duration must be positive")
    if kappa_joules < 0:
        raise ValueError("kappa must be >= 0")
    n_rounds = len(times)
    n_users = len(seeds)
    battery = DiurnalBatteryModel()
    e_t = np.empty((n_rounds, n_users), dtype=np.float64)
    states = np.empty((n_rounds, n_users), dtype=np.int8) if markov else None
    for start in range(0, n_users, _LANE_BLOCK):
        block = slice(start, start + _LANE_BLOCK)
        e_t[:, block] = battery.replenishment_columns(
            [random.Random(seed + 1) for seed in seeds[block]],
            n_rounds, round_seconds, duration_seconds, kappa_joules,
        )
        if markov:
            states[:, block] = markov_state_columns(
                MarkovNetworkModel(), [random.Random(seed) for seed in seeds[block]], n_rounds
            )
    return DeviceColumns(e_t=e_t, states=states)


#: One realized delivery per row, in the order the engine delivered them
#: (round by round; within a round by user, then realized utility
#: descending).  ``index`` is the item's flat cohort
#: position, ``size`` the wire bytes, ``energy`` the item's share of its
#: batch energy and ``channel`` indexes ``ColumnarRunResult.channel_names``.
DELIVERY_DTYPE = np.dtype(
    [("user", "i8"), ("time", "f8"), ("index", "i8"), ("level", "i8"),
     ("size", "i8"), ("energy", "f8"), ("utility", "f8"), ("channel", "i8")]
)


#: How close (absolute) a UTIL entry's static aging key must come to the
#: last taken entry's for the round to score it too (ColumnarEngine._band).
_KEY_BAND = 1e-9
_EPS = float(np.finfo(np.float64).eps)
#: ``log`` of the smallest normal float64, with some headroom.
_LOG_NORMAL_FLOOR = math.log(float(np.finfo(np.float64).tiny)) + 2.0


@dataclass
class ColumnarRoundState:
    """Algorithm 2's mutable state as parallel columns over the cohort.

    ``queue`` is the whole cohort's scheduling queue as one sorted array
    of order keys (:class:`ColumnarEngine`): user ``u``'s queue, in their
    selection order, is the run ``queue[start:start + pending[u]]`` with
    ``start = cumsum(pending)[u] - pending[u]``.  ``pending`` is an exact
    counter: ingest adds each round's arrivals per user, delivery
    subtracts each user's deliveries, so no round re-derives it from the
    queue.  Both rebind ``queue`` and ``pending``; those arrays are never
    written in place.  The dense arrays carry everything with a fixed
    per-user width.  After a round ``q_bytes`` and ``pending`` hold its
    end-of-round snapshot (the values the scalar ``RoundResult`` records).
    """

    data_available: np.ndarray
    energy_available: np.ndarray
    q_bytes: np.ndarray
    pending: np.ndarray
    queue: np.ndarray


class _PerUser(Sequence):
    """``view[u]``: user ``u``'s run of some user-sorted columns, as a list
    of plain Python scalars (one column) or of tuples (several), built on
    access."""

    def __init__(self, columns: list[np.ndarray], offsets: np.ndarray) -> None:
        self._columns = columns
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, u: int) -> list:
        u = range(len(self))[u]
        mine = slice(self._offsets[u], self._offsets[u + 1])
        columns = [column[mine].tolist() for column in self._columns]
        return columns[0] if len(columns) == 1 else list(zip(*columns))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class ColumnarRunResult:
    """Outcome columns of one engine run; a snapshot, not a live view.

    ``delivered`` holds every realized delivery as one
    :data:`DELIVERY_DTYPE` row in delivery order -- bit-exact the fields
    the scalar path's :class:`~repro.runtime.types.Delivery` records.
    :attr:`user_sorted` regroups the rows per user for folds;
    :attr:`deliveries` / :attr:`channel_codes` present them per user as
    lists of plain Python scalars, built when a user is read.
    ``backlog_sum_bytes`` is the per-user sum of end-of-round ``Q(t)``.
    """

    delivered: np.ndarray
    backlog_sum_bytes: np.ndarray
    max_queue_length: np.ndarray
    final_queue_length: np.ndarray
    rounds: int
    channel_names: tuple[str, ...]

    @cached_property
    def mean_backlog_bytes(self) -> np.ndarray:
        return self.backlog_sum_bytes / max(self.rounds, 1)

    @cached_property
    def user_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, offsets)``: user ``u``'s deliveries, in order, are
        ``rows[offsets[u]:offsets[u + 1]]``."""
        order = np.argsort(self.delivered["user"], kind="stable")
        rows = self.delivered.take(order)  # far cheaper than [order] on records
        users = np.arange(len(self.backlog_sum_bytes) + 1)
        return rows, np.searchsorted(rows["user"], users)

    @property
    def deliveries(self) -> Sequence[list[tuple]]:
        """``deliveries[u]``: ``(time, flat_index, level, size_bytes,
        energy_share_joules, utility)`` per delivery of user ``u``."""
        rows, offsets = self.user_sorted
        fields = ("time", "index", "level", "size", "energy", "utility")
        return _PerUser([rows[name] for name in fields], offsets)

    @property
    def channel_codes(self) -> Sequence[list[int]]:
        """Parallel to :attr:`deliveries`: the carrying channel's index in
        ``channel_names``."""
        rows, offsets = self.user_sorted
        return _PerUser([rows["channel"]], offsets)


class _Group(NamedTuple):
    """The rows a RichNote round selects over: every queued row of a
    connected user.

    ``flat`` are the queued rows (ascending flat item indices, so each
    member's rows are contiguous and members come in order), ``counts``
    the members' queue lengths and ``codes`` the round's connectivity
    code of every user row of the cohort (index it by user), which picks
    each row's link capacity, energy estimates and radio profile.
    """

    flat: np.ndarray
    members: np.ndarray
    counts: np.ndarray
    codes: np.ndarray


class ColumnarEngine:
    """Round loop over a whole cohort of users, phase by phase.

    Mirrors :class:`repro.runtime.loop.RoundLoop`'s phase sequence --
    ingest, replenish, select, deliver -- but each phase touches columns
    instead of one user's objects.  Selection dispatches on the bound
    policy: each of the three built-ins selects every connected user in
    one call per round, reads the same queue array and ends in the same
    :meth:`_deliver`.

    Parameters mirror what the experiment layer derives from its config:
    ``theta_bytes`` / ``kappa_joules`` parameterize the budgets (data
    starts empty, energy starts at ``kappa``, as in
    :mod:`repro.core.budgets`); ``theta_bytes`` is one allowance or a
    column of one per user row, so a budget sweep is one pass over a cohort
    tiled per budget (:meth:`ColumnarCohort.tiled`; users x budgets rows
    of memory).  ``policy`` is likewise one policy or one per user row; per
    row they must all be FIFO/UTIL, so every fixed-level cell of a sweep
    can share a pass (RichNote's Eq. 7 state is one controller per
    engine).  ``device`` carries the precomputed
    per-round connectivity/battery columns, ``expected_batch`` prices
    selection-time energy estimates and ``channels`` is the delivery
    :class:`~repro.core.channels.ChannelSet` (``None``: the paper's push
    channel alone).  Realized batch energy is priced from the stock
    :class:`~repro.sim.energy.TransferEnergyModel`'s radio profiles.
    """

    # Constants the benchmark harness still reads; removed with its metric in the next benchmark PR.
    merge_cache_hits = 0
    merge_cache_misses = 0

    def __init__(
        self,
        cohort: ColumnarCohort,
        device: DeviceColumns,
        policy: SchedulerPolicy | Sequence[SchedulerPolicy],
        utility_model: CombinedUtilityModel | None = None,
        *,
        theta_bytes: float,
        kappa_joules: float,
        round_seconds: float,
        duration_seconds: float,
        expected_batch: int = 10,
        channels: ChannelSet | None = None,
    ) -> None:
        self.cohort = cohort
        self.device = device
        self.policy = policy
        self.channels = channels or default_channel_set()
        self.channel_names = tuple(self.channels.names)
        self.utility_model = utility_model or CombinedUtilityModel()
        self.times = round_times(round_seconds, duration_seconds)
        n_rounds = len(self.times)
        if device.e_t.shape != (n_rounds, cohort.n_users):
            raise ValueError(
                f"device columns shaped {device.e_t.shape}, expected "
                f"{(n_rounds, cohort.n_users)}; build them from the same "
                "round grid"
            )
        self._theta = _checked_theta(theta_bytes, cohort.user_ids)
        self._kappa = kappa_joules
        self._aging = self.utility_model.aging
        self._ladder_total_f = float(cohort.ladder.total_size())

        # Per-state precomputation, as tables indexed by connectivity code
        # (OFF, the last code, never selects): round capacity, the
        # selection-time energy estimator and the radio profile that prices
        # a delivered batch -- the device's network state is fixed within a
        # round, so these are pure functions of the state.
        energy_model = TransferEnergyModel()
        by_code = {code: state for state, code in STATE_CODES.items()}
        states = [by_code[code] for code in range(_OFF_CODE)]
        self._capacity = np.asarray(
            [DEFAULT_BANDWIDTH_BPS[state] * round_seconds for state in states]
        )
        radios = [energy_model.profile(state) for state in states]
        self._per_kb_joules = np.asarray([radio.per_kb_joules for radio in radios])
        self._overhead_joules = np.asarray([radio.overhead_joules for radio in radios])
        estimates = [
            partial(
                energy_model.estimate_for_selection,
                state,
                expected_batch=expected_batch,
            )
            for state in states
        ]

        # Per-channel precomputation: each channel's ladder (the cohort's
        # own on a channel that does not re-render) projected to a billed
        # size row, a presentation row and a (state, level) energy table
        # priced on *wire* bytes, plus dense (channel, level) lookup tables
        # (ragged rows zero-padded; a selection never indexes past its own
        # channel's ladder).
        ladders = [channel.ladder or cohort.ladder for channel in self.channels]
        wire_rows = [[step.size_bytes for step in ladder] for ladder in ladders]
        self._billed_rows = [
            [channel.cost.billed_bytes(size) for size in wire]
            for channel, wire in zip(self.channels, wire_rows)
        ]
        self._pres_rows = [
            np.asarray([step.utility for step in ladder], dtype=np.float64)
            for ladder in ladders
        ]
        self._energies_tables = [
            np.stack([_estimate_row(estimate, wire) for estimate in estimates])
            for wire in wire_rows
        ]
        self._wire_table = _padded_table(wire_rows, np.int64)
        self._billed_table = _padded_table(self._billed_rows, np.int64)
        self._pres_table = _padded_table(self._pres_rows, np.float64)

        users = cohort.n_users
        self._user_of = np.repeat(
            np.arange(users, dtype=np.int64), np.diff(cohort.offsets)
        )
        self._all_cell = np.full(users, STATE_CODES[NetworkState.CELL], np.int8)
        self.state = ColumnarRoundState(
            data_available=np.zeros(users, dtype=np.float64),
            energy_available=np.full(users, float(kappa_joules)),
            q_bytes=np.zeros(users, dtype=np.float64),
            pending=np.zeros(users, dtype=np.int64),
            queue=np.zeros(0, dtype=np.int64),
        )
        # Every item is delivered at most once, so the log never outgrows
        # the cohort; rows past ``_n_delivered`` are unwritten.
        self._delivered = np.empty(cohort.n_items, dtype=DELIVERY_DTYPE)
        self._n_delivered = 0
        self._backlog_sum = np.zeros(users, dtype=np.float64)
        self._max_queue = np.zeros(users, dtype=np.int64)
        self._next_round = 0

        self._bind_policy()
        # Order keys (ColumnarRoundState): ``_flat_of[key]`` is the key's
        # flat item, ``None`` where every key is its own flat index.
        self._flat_of, self._rank_value = self._order_keys()
        # Ingest schedule: a stable argsort by ingest round keeps each
        # round's items in key (= queue) order; items created after the
        # last round sort past the final offset and never join.
        rounds = kernels.ingest_round_index(cohort.created_at, self.times)
        if self._flat_of is not None:
            rounds = rounds[self._flat_of]
        # Narrow ints take numpy's radix sort.
        rounds = rounds.astype(np.min_scalar_type(n_rounds))
        self._ingest_order = np.argsort(rounds, kind="stable")
        self._ingest_offsets = np.searchsorted(
            rounds[self._ingest_order], np.arange(n_rounds + 1)
        )

    def _bind_policy(self) -> None:
        per_row = isinstance(self.policy, Sequence)
        policies = list(self.policy) if per_row else [self.policy]
        users = self.cohort.n_users
        if per_row and len(policies) != users:
            raise ValueError(
                f"{len(policies)} per-row policies, expected one for each of "
                f"the cohort's {users} user rows"
            )
        kernels_for = (FifoPolicy, UtilPolicy) if per_row else (
            RichNotePolicy, FifoPolicy, UtilPolicy
        )
        for policy in policies:
            if (
                type(policy) not in kernels_for
                or type(self.utility_model) is not CombinedUtilityModel
            ):
                raise ColumnarPolicyError(
                    f"no column kernel for {type(policy).__name__} "
                    f"{'per row ' if per_row else ''}under "
                    f"{type(self.utility_model).__name__}: the engine runs the "
                    "registered richnote / fifo / util policies (per-row "
                    "policies fifo / util only) under the stock "
                    "CombinedUtilityModel; evaluate anything else on "
                    "repro.runtime.loop.RoundLoop"
                )
            attach = getattr(policy, "attach", None)
            if attach is not None:
                # Just enough of a RoundLoop for ``attach`` to validate against.
                attach(SimpleNamespace(energy_budget=EnergyBudget(self._kappa)))
        if type(self.policy) is RichNotePolicy:
            self._select = self._select_richnote
            self._lyapunov = self.policy.controller.config
        else:
            self._select = self._select_fixed
            # Baselines route everything over the primary channel at its
            # ladder-clamped fixed level, mirroring FixedLevelPolicy.fill;
            # UTIL ranks a member's whole queue, FIFO takes it in order.
            # One policy is the one-block case: its entries broadcast.
            top = len(self._billed_rows[0]) - 1
            level = [min(policy.fixed_level, top) for policy in policies]
            ranks = [type(policy) is UtilPolicy for policy in policies]
            self._level = np.broadcast_to(np.asarray(level, dtype=np.int64), (users,))
            self._ranks_queue = np.broadcast_to(np.asarray(ranks, dtype=bool), (users,))

    def _order_keys(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(flat_of, rank_value)`` when some row is UTIL's, else ``(None,
        None)``: every key is its own flat index, and no array is built.

        A UTIL row orders its items by the static aging key ``log U_c +
        created_at / tau`` (``log U_c`` without aging), descending, ties in
        flat order.  Under exponential aging every queued item of a user
        decays by the same factor from one round to the next, and a row has
        one fixed level, so this is the order of the realized utilities:
        fixed at arrival instead of re-sorted every round.  Rounded products
        can still tie or swap where the keys are within float error, which
        :meth:`_band` covers.  ``rank_value[key]`` is minus the static key
        (so it ascends along each user's keys).  FIFO rows keep flat order.
        So do UTIL rows without a trustworthy static key
        (:meth:`_has_static_key`); :meth:`_band` then hands them their
        whole run, scored as the scalar loop scores it.
        """
        if type(self.policy) is RichNotePolicy:
            return None, None
        # A row's items are all UTIL's or none: these are whole user ranges.
        ranked = np.flatnonzero(self._ranks_queue[self._user_of])
        if not ranked.size or not self._has_static_key(ranked):
            return None, None
        with np.errstate(divide="ignore"):  # U_c = 0 ranks last, at +inf
            key = np.log(self.cohort.contents[ranked])
        if self._aging is not None:
            key = key + self.cohort.created_at[ranked] / self._aging.tau_seconds
        order = np.lexsort((-key, self._user_of[ranked]))
        flat_of = np.arange(self.cohort.n_items)
        flat_of[ranked] = ranked[order]
        rank_value = np.zeros(self.cohort.n_items)
        rank_value[ranked] = -key[order]
        return flat_of, rank_value

    def _has_static_key(self, ranked: np.ndarray) -> bool:
        """Whether the static key orders the UTIL rows' items like their
        realized utilities up to :data:`_KEY_BAND`.

        It needs aging that is off or exponential, every realized utility
        of a positive ``U_c`` to stay a normal float (the error bound is
        relative; a subnormal product has none), and the float error of
        keys and of decayed products -- a few ulps of ``created / tau``,
        ``log U_c`` and the age -- far below the band.  On the paper's
        settings (tau 8 h, a trace of weeks) that error is ~1e-13.
        """
        aging = self._aging
        if aging is not None and type(aging) is not ExponentialAging:
            return False
        contents = self.cohort.contents[ranked]
        positive = contents[contents > 0.0]
        if not positive.size or not self.times:
            return True  # only exact zeros: they tie, in flat order either way
        tau = math.inf if aging is None else aging.tau_seconds
        created = self.cohort.created_at[ranked]
        end = self.times[-1]
        presentation = float(self._pres_table[0, self._level[self._ranks_queue]].min())
        log_content = math.log(float(positive.min()))
        scale = max(abs(end), float(np.abs(created).max()))
        key_error = (
            8 * _EPS * (abs(log_content) + scale / tau + 1.0)
            + 2 * float(np.spacing(scale)) / tau
        )
        return (
            presentation > 0.0
            and log_content - (end - float(created.min())) / tau + math.log(presentation)
            > _LOG_NORMAL_FLOOR
            and key_error < _KEY_BAND / 8
        )

    # -- the round loop --------------------------------------------------------

    def run(self, limit_rounds: int | None = None) -> ColumnarRunResult:
        """Execute rounds (all remaining, or at most ``limit_rounds``).

        Resumable: a second call continues where the first stopped, so
        ``run(limit_rounds=1)`` single-steps.  Parity with the scalar
        per-user replay holds once every round has run.
        """
        stop = len(self.times)
        if limit_rounds is not None:
            if limit_rounds < 0:
                raise ValueError("limit_rounds must be >= 0")
            stop = min(stop, self._next_round + limit_rounds)
        for k in range(self._next_round, stop):
            self._run_round(k, self.times[k])
        self._next_round = stop
        return self.result()

    def result(self) -> ColumnarRunResult:
        """Outcome columns over the rounds executed so far.

        O(1): the delivery log is append-only and a round rebinds the
        per-user columns instead of writing them in place, so the result
        shares them and later rounds cannot change it.
        """
        return ColumnarRunResult(
            delivered=self._delivered[: self._n_delivered],
            backlog_sum_bytes=self._backlog_sum,
            max_queue_length=self._max_queue,
            final_queue_length=self.state.pending,
            rounds=self._next_round,
            channel_names=self.channel_names,
        )

    def _run_round(self, k: int, now: float) -> None:
        state = self.state
        joining = self._ingest_order[
            self._ingest_offsets[k] : self._ingest_offsets[k + 1]
        ]
        if joining.size:
            state.queue = np.insert(
                state.queue, np.searchsorted(state.queue, joining), joining
            )
            state.pending = state.pending + np.bincount(
                self._user_of[joining], minlength=self.cohort.n_users
            )
        kernels.replenish_data_column(state.data_available, self._theta)
        kernels.replenish_energy_column(
            state.energy_available, self.device.e_t[k], self._kappa
        )
        if state.queue.size:
            self._select_and_deliver(k, now)
        state.q_bytes = state.pending * self._ladder_total_f
        self._backlog_sum = self._backlog_sum + state.q_bytes
        self._max_queue = np.maximum(self._max_queue, state.pending)

    def _select_and_deliver(self, k: int, now: float) -> None:
        """Connectivity-gated selection: one call over every connected user
        with a queue, whatever their network state."""
        codes = self._all_cell if self.device.states is None else self.device.states[k]
        members = np.flatnonzero((self.state.pending > 0) & (codes != _OFF_CODE))
        if members.size:
            self._select(now, members, codes)

    def _budgets(self, members: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Whole-byte round budgets: ``int(min(B(t), link capacity))``."""
        return np.minimum(
            self.state.data_available[members], self._capacity[codes[members]]
        ).astype(np.int64)

    def _decay_column_at(self, flat: np.ndarray, now: float) -> np.ndarray:
        """Decayed content utilities for a flat index column."""
        contents = self.cohort.contents[flat]
        aging = self._aging
        if aging is None:
            return contents
        ages = np.maximum(0.0, now - self.cohort.created_at[flat])
        if type(aging) is ExponentialAging:
            return kernels.exp_decay_column(contents, ages, aging.tau_seconds)
        return np.asarray(
            [
                aging.decay(content, age)
                for content, age in zip(contents.tolist(), ages.tolist())
            ],
            dtype=np.float64,
        )

    # -- selection -------------------------------------------------------------

    def _adjusted_rows(self, group: _Group, decayed: np.ndarray) -> list[np.ndarray]:
        """Eq. 1 then Eq. 7 for every queued row of a group: one profit
        matrix per channel, over that channel's presentation row and, per
        row, its energy-estimate row under the row's network state."""
        cfg = self._lyapunov
        # q = len(queue) * ladder_total: exact int -> float64 conversion,
        # identical bits to the scalar path's float(len * total).
        q_column = np.repeat(group.counts * self._ladder_total_f, group.counts)
        p_column = np.repeat(
            self.state.energy_available[group.members], group.counts
        )
        row_codes = np.repeat(group.codes[group.members], group.counts)
        return [
            kernels.lyapunov_adjusted_rows(
                kernels.combined_utility_matrix(decayed, presentation_row),
                np.take(energies_table, row_codes, axis=0),
                self._ladder_total_f,
                q_column,
                p_column,
                kappa_joules=cfg.kappa_joules,
                v=cfg.v,
                size_scale=cfg.size_scale,
                energy_scale=cfg.energy_scale,
            )
            for presentation_row, energies_table in zip(
                self._pres_rows, self._energies_tables
            )
        ]

    def _greedy(self, group: _Group, sizes, profits, lengths) -> np.ndarray:
        """Algorithm 1 for every member at once: the chosen column per row."""
        return kernels.greedy_select(
            sizes,
            profits,
            lengths,
            self.cohort.item_id_column[group.flat],
            np.concatenate(([0], np.cumsum(group.counts))),
            self._budgets(group.members, group.codes),
        )

    def _by_utility(self, flat: np.ndarray, utility: np.ndarray) -> np.ndarray:
        """Delivery order: per user, realized utility descending, ties to the
        earlier item (the scalar loop's stable ``sort(reverse=True)`` over a
        created-at queue).  Rows come in key order, which is flat order
        unless UTIL rows carry static keys: then ties need the flat index."""
        keys = (-utility, self._user_of[flat])
        if self._flat_of is not None:
            keys = (flat, *keys)
        return np.lexsort(keys)

    def _select_richnote(self, now: float, members: np.ndarray, codes: np.ndarray) -> None:
        """Eq. 7 + Algorithm 1 over every queued item of the members at
        once: the joint (channel x level) MCKP, one choice row per item.

        The paper's single push channel hands its rows to Algorithm 1 as
        they are (column ``j`` is level ``j``).  Any other set, as in
        ``RichNotePolicy.select``, first fuses the batch's per-channel rows
        (``merge_channel_rows_batched``: shared billed-size rows make the
        merged size axis common to every item) and reduces them to their
        convex hulls (``hull_levels_batched``).  The hull would prune the
        Eq. 7 dips the raw-ladder greedy keeps, so push never takes it.
        """
        # RichNote keys are flat indices: the members' runs are their rows.
        queue, pending = self.state.queue, self.state.pending
        counts = pending[members]
        if counts.sum() < queue.size:  # some queued users are offline
            member = np.zeros(pending.size, dtype=bool)
            member[members] = True
            queue = queue[np.repeat(member, pending)]
        group = _Group(queue, members, counts, codes)
        decayed = self._decay_column_at(group.flat, now)
        adjusted = self._adjusted_rows(group, decayed)
        fuse = not self.channels.is_single_passthrough
        if fuse:
            merged_sizes, merged_profits, via, at = kernels.merge_channel_rows_batched(
                self._billed_rows, adjusted
            )
            hull, lengths = kernels.hull_levels_batched(merged_sizes, merged_profits)
            sizes = np.asarray(merged_sizes, dtype=np.int64)[hull]
            profits = np.take_along_axis(merged_profits, hull, axis=1)
        else:
            # One channel: its row of the billed table carries no padding.
            sizes, (profits,), lengths = self._billed_table[0], adjusted, None
        picked = self._greedy(group, sizes, profits, lengths)
        rows = np.flatnonzero(picked)
        level = picked[rows]
        channel = np.zeros(rows.size, dtype=np.int64)
        if fuse:
            merged = hull[rows, level]
            channel, level = via[rows, merged], at[rows, merged]
        # Realized utility: decayed * U_p on the carrying channel's ladder
        # (same operands, same single multiply as the scalar recompute).
        utility = decayed[rows] * self._pres_table[channel, level]
        order = self._by_utility(group.flat[rows], utility)
        self._deliver(
            now, group.codes, group.flat[rows][order], level[order], utility[order],
            channel[order],
        )

    def _select_fixed(self, now: float, members: np.ndarray, codes: np.ndarray) -> None:
        """FIFO/UTIL baselines: greedy-fill at each member's fixed level,
        scoring the head of each member's run and nothing past it.

        A member's items all cost the same -- the billed ``size`` of their
        row's level -- so they take the first ``take = min(budget // size,
        count)`` items of their ordering: queue (= created-at) order for
        FIFO, realized utility descending for UTIL.  Keys put both orders in
        the queue, so a member's run starts with what they take.  FIFO
        rows decay their first ``take`` entries; UTIL rows those plus
        :meth:`_band`'s; a round nobody can afford scores nothing.  That
        is bit-identical to scoring the whole backlog: (1) decay and the
        ``* U_p`` multiply are elementwise, so a subset gets the same bits;
        (2) every row past the band realizes strictly less utility than
        each of the first ``take``, so it is not taken, and
        :meth:`_by_utility` orders the scored rows exactly; (3) a member
        with ``take == 0`` delivers nothing either way.  Everything rides
        the primary channel -- billed bytes fill the budget, wire bytes
        price delivery -- just like ``FixedLevelPolicy.fill`` on the scalar
        path.
        """
        pending = self.state.pending
        counts = pending[members]
        level = self._level[members]
        size = self._billed_table[0, level]
        budgets = self._budgets(members, codes)
        take = np.minimum(np.where(size > 0, budgets // np.maximum(size, 1), counts), counts)
        if not take.any():
            return
        starts = (np.cumsum(pending) - pending)[members]  # each member's run
        scored = take + self._band(members, starts, take, counts)
        keys = self.state.queue[_runs(starts, scored)]
        flat = keys if self._flat_of is None else self._flat_of[keys]
        presentation = np.repeat(self._pres_table[0, level], scored)
        utility = self._decay_column_at(flat, now) * presentation
        order = self._by_utility(flat, utility)
        kept = order[_runs(np.cumsum(scored) - scored, take)]
        self._deliver(
            now,
            codes,
            keys[kept],
            np.repeat(level, take),
            utility[kept],
            np.zeros(kept.size, dtype=np.int64),
        )

    def _band(
        self, members: np.ndarray, starts: np.ndarray, take: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per member, the entries past their first ``take`` that UTIL must
        also score: those whose static key is within :data:`_KEY_BAND` of
        the ``take``-th entry's, or the whole rest of the run when the row
        has no static key.  FIFO rows and members taking nothing get none.

        The band is orders of magnitude wider than the float error of a key
        or of a decayed product (:meth:`_has_static_key`), so any entry past
        it realizes strictly less utility than each of the first ``take``.
        An entry with ``U_c = 0`` past a zero ``take``-th one needs no band:
        all realize exactly 0 and tie in flat order, the keys' order.  Most
        members' next entry is already past the band; the rest binary-search
        their run.
        """
        ranked = self._ranks_queue[members] & (take > 0)
        if self._rank_value is None:
            return np.where(ranked, counts - take, 0)
        band = np.zeros_like(take)
        open_ = np.flatnonzero(ranked & (take < counts))
        if not open_.size:
            return band
        queue, value = self.state.queue, self._rank_value
        last = starts[open_] + take[open_] - 1
        ceiling = value[queue[last]] + _KEY_BAND
        near = (value[queue[last + 1]] <= ceiling) & (ceiling < math.inf)
        offsets = self.cohort.offsets
        for i, top in zip(open_[near].tolist(), ceiling[near].tolist()):
            # A user's keys ascend in rank value: the band ends at the first
            # key past ``top``, and so does their run of queued keys.
            lo, hi = offsets[members[i]], offsets[members[i] + 1]
            end = lo + np.searchsorted(value[lo:hi], top, side="right")
            rest = queue[starts[i] + take[i] : starts[i] + counts[i]]
            band[i] = np.searchsorted(rest, end)
        return band

    # -- delivery --------------------------------------------------------------

    def _deliver(
        self,
        now: float,
        codes: np.ndarray,
        keys: np.ndarray,
        level: np.ndarray,
        utility: np.ndarray,
        channel: np.ndarray,
    ) -> None:
        """Drain a round's delivery queues: debit columns, log rows.

        Rows arrive as order keys in delivery order, each user's
        contiguous.  Replicates :meth:`repro.runtime.loop.RoundLoop._deliver`'s
        atomic path per user: one shared batch energy, priced with the
        radio profile of the user's connectivity code (``codes``, indexed
        by user), proportional per-item shares, zero-floored budget debits,
        queue removal by delivered item.  Wire bytes on the carrying
        ``channel`` price the batch energy and enter the log (the scalar
        ``Delivery.size_bytes``) while *billed* bytes drain the data column.
        """
        if not keys.size:
            return
        wire = self._wire_table[channel, level]
        billed = self._billed_table[channel, level]
        users = self._user_of[keys]
        starts = np.flatnonzero(np.diff(users, prepend=-1))
        batch_sizes = np.diff(starts, append=users.size)
        batch_totals = np.add.reduceat(wire, starts)
        code = codes[users[starts]]
        batch_energy = (
            self._per_kb_joules[code] * (batch_totals / 1024.0)
            + self._overhead_joules[code]
        )
        totals = np.repeat(batch_totals, batch_sizes)
        with np.errstate(divide="ignore", invalid="ignore"):  # empty batches
            share = np.where(
                totals > 0,
                np.repeat(batch_energy, batch_sizes) * (wire / totals),
                0.0,
            )
        # Debits are sequential ``max(0, x - s)`` float steps per user, so
        # they vectorise across users one batch position at a time.
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
            DELIVERY_DTYPE.names,
            (users, now, index, level, wire, share, utility, channel),
        ):
            rows[name] = column
        self._n_delivered = end
        self._dequeue(keys, users[starts], batch_sizes)

    def _dequeue(self, keys: np.ndarray, users: np.ndarray, counts: np.ndarray) -> None:
        """Take delivered ``keys`` off the queue, ``counts[i]`` of them
        (distinct) user ``users[i]``'s."""
        state = self.state
        state.queue = np.delete(state.queue, np.searchsorted(state.queue, keys))
        pending = state.pending.copy()
        pending[users] -= counts
        state.pending = pending


def _checked_theta(theta_bytes, user_ids: Sequence[int]) -> np.ndarray:
    """``theta_bytes`` as float64 (0-d, or one entry per user row), held to
    what :class:`repro.core.budgets.DataBudget` accepts: finite and >= 0."""
    theta = np.asarray(theta_bytes, dtype=np.float64)
    if theta.ndim and theta.shape != (len(user_ids),):
        raise ValueError(
            f"theta_bytes column shaped {theta.shape}, expected one entry for "
            f"each of the cohort's {len(user_ids)} user rows"
        )
    hostile = np.flatnonzero(~(np.isfinite(theta) & (theta >= 0.0)))
    if hostile.size:
        row = int(hostile[0])
        where = f" at row {row} (user {user_ids[row]})" if theta.ndim else ""
        raise ValueError(f"theta_bytes must be finite and >= 0, got {theta.flat[row]}{where}")
    return theta


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + lengths[i] - 1``, run after run."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _estimate_row(estimate, sizes: Sequence[int]) -> np.ndarray:
    """Selection-time energy estimate per ladder level (level 0 is free)."""
    return np.asarray([0.0] + [estimate(size) for size in sizes[1:]], dtype=np.float64)


def _padded_table(rows: Sequence[Sequence[float]], dtype) -> np.ndarray:
    """Ragged per-channel rows as one zero-padded ``(channel, level)`` table."""
    table = np.zeros((len(rows), max(len(row) for row in rows)), dtype=dtype)
    for ci, row in enumerate(rows):
        table[ci, : len(row)] = row
    return table
