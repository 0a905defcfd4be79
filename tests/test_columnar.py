"""The columnar simulation core: parity, shards, streaming, edges.

The contract under test is ISSUE 8's: struct-of-arrays execution must be
*bit-identical* to the scalar per-user object loop -- identical delivery
digests, identical metrics, identical queue statistics -- across seeds,
policies, network modes and budget regimes, including the awkward
populations (empty queues, budget-exhausted users, ragged queue
lengths).  The scalar path is the oracle throughout; nothing here
re-derives expected values by hand.
"""

from __future__ import annotations

import json
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel
from repro.experiments.columnar import (
    build_cohort,
    run_users_columnar,
    supports,
    sweep_cohort,
)
from repro.experiments.config import (
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.metrics import aggregate
import repro.experiments.pool as pool_module
from repro.experiments.pool import _run_range, _WorkerState
from repro.experiments.runner import (
    UtilityAnnotations,
    _device_stream_seed,
    run_experiment,
    run_user,
)
from repro.experiments.workloads import workload_spec
from repro.runtime import registry
from repro.runtime.columnar import (
    STATE_CODES,
    ColumnarCohort,
    ColumnarEngine,
    ColumnarPolicyError,
    DeviceColumns,
    build_device_columns,
    markov_state_columns,
    round_times,
)
from repro.runtime.policy import FifoPolicy
from repro.sim.battery import BatterySample, DiurnalBatteryModel
from repro.sim.network import DEFAULT_TRANSITIONS, MarkovNetworkModel, NetworkState
from repro.trace.generator import TraceConfig, build_workload, iter_users
from repro.pubsub.topics import TopicKind
from repro.runtime.types import Delivery
from repro.trace.io import (
    SHARD_COLUMNS,
    RecordsView,
    ShardStoreWriter,
    TraceShardStore,
    write_shard_store,
)
from repro.trace.records import NotificationRecord

SPECS = (
    MethodSpec(Method.RICHNOTE),
    MethodSpec(Method.FIFO, 2),
    MethodSpec(Method.UTIL, 3),
)
SEEDS = (5, 7, 11)


@pytest.fixture(scope="module", params=SEEDS)
def world(request):
    """One seeded small workload: (pairs, annotations, duration, seed)."""
    seed = request.param
    workload = build_workload(workload_spec("small", seed=seed))
    annotations = UtilityAnnotations.train(workload, seed=seed)
    users = workload.top_users(5)
    by_user = {user_id: [] for user_id in users}
    for record in workload.records:
        if record.recipient_id in by_user:
            by_user[record.recipient_id].append(record)
    pairs = [(u, by_user[u]) for u in users if by_user[u]]
    duration = workload.config.duration_hours * 3600.0
    return workload, pairs, annotations, duration, seed


def _run_user_fold(pairs, spec, config, annotations, duration):
    """The scalar reference: one ``run_user`` per user, metrics in order."""
    return [
        run_user(user_id, records, spec, config, annotations, duration).metrics
        for user_id, records in pairs
    ]


class TestScalarParity:
    """Columnar == scalar, digest for digest, across the property grid."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("budget_mb", [0.05, 5.0])
    @pytest.mark.parametrize(
        "mode", [NetworkMode.CELL_ONLY, NetworkMode.MARKOV]
    )
    def test_digests_and_metrics_bit_identical(
        self, world, spec, budget_mb, mode
    ):
        """Every user's deliveries and metrics match the per-user loop.

        ``budget_mb=0.05`` keeps queues perpetually backlogged (ragged
        lengths, budget-exhausted rounds); MARKOV adds OFF rounds where
        whole users sit out selection with items still queued.
        """
        _, pairs, annotations, duration, seed = world
        config = ExperimentConfig(
            weekly_budget_mb=budget_mb, seed=seed, network_mode=mode
        )
        outcomes = run_users_columnar(
            pairs, spec, config, annotations, duration,
            digest_deliveries=True,
        )
        assert len(outcomes) == len(pairs)
        for (user_id, records), outcome in zip(pairs, outcomes):
            twin = run_user(
                user_id, records, spec, config, annotations, duration,
                digest_deliveries=True,
            )
            assert outcome.delivery_digest == twin.delivery_digest, user_id
            assert outcome.metrics == twin.metrics, user_id
            assert outcome.mean_backlog_bytes == twin.mean_backlog_bytes
            assert outcome.max_queue_length == twin.max_queue_length
            assert outcome.final_queue_length == twin.final_queue_length

    def test_run_experiment_columnar_matches_scalar_aggregate(self, world):
        """``run_experiment`` (columnar since ISSUE 18) == a ``run_user`` fold."""
        workload, pairs, annotations, duration, seed = world
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=seed)
        spec = MethodSpec(Method.RICHNOTE)
        scalar = _run_user_fold(pairs, spec, config, annotations, duration)
        columnar = run_experiment(
            workload, spec, config, annotations, [u for u, _ in pairs]
        )
        assert columnar.aggregate.row() == aggregate(scalar).row()
        assert columnar.aggregate == aggregate(scalar)
        assert [o.metrics for o in columnar.per_user] == scalar


class TestEngineBinding:
    """One column kernel per registered built-in under the stock model;
    anything else is a typed error naming ``RoundLoop``, not a slow path."""

    @staticmethod
    def _engine(policy, model=None):
        cohort = ColumnarCohort(
            user_ids=[1], offsets=[0, 1], item_ids=[10], created_at=[0.0],
            contents=[0.5], ladder=build_audio_ladder(),
        )
        device = build_device_columns(
            [1], round_times(3600.0, 7200.0), 3600.0, 7200.0, 3000.0
        )
        return ColumnarEngine(
            cohort, device, policy, model, theta_bytes=1e6, kappa_joules=3000.0,
            round_seconds=3600.0, duration_seconds=7200.0,
        )

    def test_only_builtins_under_the_stock_model_bind(self):
        class SameModel(CombinedUtilityModel):
            pass

        class SubFifo(FifoPolicy):
            pass

        for name, params in (
            ("richnote", {}), ("fifo", {"fixed_level": 2}), ("util", {"fixed_level": 2}),
        ):
            engine = self._engine(registry.create(name, **params))
            assert len(engine.run().delivered) == 1
        with pytest.raises(ColumnarPolicyError, match="SubFifo.*RoundLoop"):
            self._engine(SubFifo(fixed_level=2))
        with pytest.raises(ColumnarPolicyError, match="SameModel.*RoundLoop"):
            self._engine(registry.create("fifo", fixed_level=2), SameModel())
        assert issubclass(ColumnarPolicyError, TypeError)

    def test_unregistered_policy_rejected_and_never_called(self):
        class EverythingAtOne:
            def attach(self, loop):
                raise AssertionError("rejected before any hook runs")

            def select(self, ctx):
                raise AssertionError("the engine has no per-user select")

        with pytest.raises(ColumnarPolicyError, match="EverythingAtOne.*RoundLoop"):
            self._engine(EverythingAtOne())


class TestRoundGrid:
    """round_times is the round clock: first tick at one period, ticks while
    ``t + period < duration + 1`` by accumulating ``t += period``."""

    # (period, duration) -> (tick count, first tick, last tick): the schedule
    # every simulator of this repository runs its rounds on, pinned.
    SCHEDULES = {
        (3600.0, 168 * 3600.0): (168, 3600.0, 604800.0),
        (3600.0, 1800.0): (0, None, None),
        (0.1, 10.0): (110, 0.1, 10.999999999999977),
        (7.0, 7.0): (1, 7.0, 7.0),
    }

    @pytest.mark.parametrize("period,duration", list(SCHEDULES))
    def test_matches_simulator_schedule(self, period, duration):
        count, first, last = self.SCHEDULES[period, duration]
        times = round_times(period, duration)
        assert len(times) == count
        if count:
            assert (times[0], times[-1]) == (first, last)

    def test_accumulates_rather_than_multiplies(self):
        times = round_times(0.1, 10.0)
        assert times != [(k + 1) * 0.1 for k in range(len(times))]

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            round_times(0.0, 100.0)

    @pytest.mark.parametrize(
        "period,duration,named",
        [
            (float("nan"), 100.0, "round_seconds"),
            (float("inf"), 100.0, "round_seconds"),
            (3600.0, float("nan"), "duration_seconds"),
            (3600.0, float("inf"), "duration_seconds"),
        ],
    )
    def test_non_finite_clock_is_refused_naming_the_field(self, period, duration, named):
        """Unchecked, NaN gives zero rounds and an infinite duration a clock
        that never stops, growing its tick list until the process dies."""
        with pytest.raises(ValueError, match=f"{named} must be finite, got"):
            round_times(period, duration)


class TestZeroRoundRun:
    """A trace shorter than one round is a documented degraded result, not
    an error: no round runs, so neither engine delivers anything, and both
    report the same (empty) outcome."""

    @pytest.mark.parametrize("mode", [NetworkMode.CELL_ONLY, NetworkMode.MARKOV])
    def test_both_engines_deliver_nothing_alike(self, mode):
        trace = TraceConfig(duration_hours=0.5, seed=31, listen_rate_scale=4.0)
        pairs = [(u, r) for u, r in iter_users(60, trace) if r]
        duration = trace.duration_hours * 3600.0
        config = ExperimentConfig(seed=31, network_mode=mode)
        assert pairs and round_times(config.round_seconds, duration) == []
        annotations = UtilityAnnotations(
            scores={r.notification_id: 0.5 for _, rs in pairs for r in rs}
        )
        for spec in SPECS:
            outcomes = run_users_columnar(
                pairs, spec, config, annotations, duration, digest_deliveries=True
            )
            for (user_id, records), outcome in zip(pairs, outcomes):
                twin = run_user(
                    user_id, records, spec, config, annotations, duration,
                    digest_deliveries=True,
                )
                assert outcome.metrics.delivered_notifications == 0
                assert outcome == twin


def _wifi_codes(at=None, code=None, dtype=np.int8):
    """3 rounds x 2 users all on WIFI, but for one entry."""
    states = np.full((3, 2), STATE_CODES[NetworkState.WIFI], dtype=dtype)
    if at is not None:
        states[at] = code
    return states


class TestDeviceColumnsValidation:
    """The engine indexes per-state tables by connectivity code, so bad
    columns are refused at construction, naming the shape or the first bad
    (round, user): unchecked, a short ``states`` runs silently, a narrow
    one ends in a bare ``IndexError`` mid-run and a code of -1 reads the
    WIFI row."""

    E_T = np.zeros((3, 2))

    @pytest.mark.parametrize(
        "e_t,states,named",
        [
            (np.zeros(3), None, r"e_t must be a \(round, user\) matrix, got shape \(3,\)"),
            (E_T, np.zeros((2, 2), np.int8), r"states shaped \(2, 2\), expected e_t's \(3, 2\)"),
            (E_T, np.zeros((3, 1), np.int8), r"states shaped \(3, 1\), expected e_t's \(3, 2\)"),
            (E_T, _wifi_codes((1, 0), -1), r"states\[1, 0\] \(round 1, user row 0\) is -1"),
            (E_T, _wifi_codes((2, 1), 7), r"states\[2, 1\] \(round 2, user row 1\) is 7"),
            (E_T, _wifi_codes(dtype=np.float64), "integer array .* got float64"),
        ],
        ids=["e_t-1d", "states-short", "states-narrow", "code-minus-1", "code-7", "float"],
    )
    def test_bad_columns_are_refused(self, e_t, states, named):
        with pytest.raises(ValueError, match=named):
            DeviceColumns(e_t=e_t, states=states)

    def test_every_state_code_is_accepted_and_runs(self):
        cell, wifi, off = (
            STATE_CODES[state]
            for state in (NetworkState.CELL, NetworkState.WIFI, NetworkState.OFF)
        )
        states = np.asarray([[off, cell], [wifi, off], [cell, wifi]], dtype=np.int64)
        device = DeviceColumns(e_t=np.full((3, 2), 1.0), states=states)
        cohort = ColumnarCohort(
            user_ids=[1, 2], offsets=[0, 2, 4], item_ids=[10, 11, 12, 13],
            created_at=[0.0, 0.0, 0.0, 0.0], contents=[0.5, 0.6, 0.7, 0.8],
            ladder=build_audio_ladder(),
        )
        engine = ColumnarEngine(
            cohort, device, registry.create("fifo", fixed_level=1),
            theta_bytes=1e7, kappa_joules=30.0, round_seconds=3600.0,
            duration_seconds=3 * 3600.0,
        )
        delivered = engine.run().delivered
        # Each user's queue drains in their first connected round.
        assert delivered["user"].tolist() == [1, 1, 0, 0]
        assert delivered["time"].tolist() == [3600.0, 3600.0, 7200.0, 7200.0]


def reference_states(transitions, lane, n_rounds):
    """One lane the scalar way: ``step()`` per round."""
    model = MarkovNetworkModel(transitions=transitions, rng=lane)
    return [STATE_CODES[model.step()] for _ in range(n_rounds)]


#: Rows that sum to ``1 - 5e-10`` (inside the validator's 1e-9): a draw in
#: the shortfall reaches no cumulative, and ``step()`` falls back to the
#: row's last state.  Row order differs per row on purpose.
SHORTFALL_TRANSITIONS = {
    NetworkState.WIFI: {
        NetworkState.OFF: 0.3, NetworkState.WIFI: 0.3, NetworkState.CELL: 0.4 - 5e-10,
    },
    NetworkState.CELL: {NetworkState.CELL: 0.6, NetworkState.OFF: 0.4 - 5e-10},
    NetworkState.OFF: {
        NetworkState.WIFI: 0.2, NetworkState.CELL: 0.2, NetworkState.OFF: 0.6 - 5e-10,
    },
}


class _ShortfallLane(random.Random):
    """A lane whose every fifth draw lands in the rows' 5e-10 shortfall."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        draw = super().random()
        return 1.0 - 1e-10 if self.draws % 5 == 0 else draw


class TestDeviceColumns:
    """Device columns are one recurrence across users; the per-user models
    are the oracle, lane by lane and draw by draw."""

    @pytest.mark.parametrize(
        "transitions,lane_type",
        [
            (DEFAULT_TRANSITIONS, random.Random),
            (SHORTFALL_TRANSITIONS, random.Random),
            (SHORTFALL_TRANSITIONS, _ShortfallLane),
        ],
        ids=["paper-matrix", "shortfall-matrix", "shortfall-draws"],
    )
    @pytest.mark.parametrize("n_lanes,n_rounds", [(0, 5), (1, 0), (7, 40), (300, 168)])
    def test_chain_columns_match_step_per_lane(
        self, transitions, lane_type, n_lanes, n_rounds
    ):
        reference_lanes = [lane_type(3 + 11 * u) for u in range(n_lanes)]
        lanes = [lane_type(3 + 11 * u) for u in range(n_lanes)]
        model = MarkovNetworkModel(transitions=transitions)
        states = markov_state_columns(model, lanes, n_rounds)
        assert states.shape == (n_rounds, n_lanes)
        for u, reference_lane in enumerate(reference_lanes):
            expected = reference_states(transitions, reference_lane, n_rounds)
            assert states[:, u].tolist() == expected
            # Left in the same RNG state: same number of draws taken.
            assert lanes[u].random() == reference_lane.random()

    def test_shortfall_draws_reach_no_cumulative(self):
        """Precondition of the "shortfall-draws" case: the guard must fire."""
        for row in SHORTFALL_TRANSITIONS.values():
            cumulative = 0.0
            for probability in row.values():
                cumulative += probability
            assert cumulative <= 1.0 - 1e-10

    def test_columns_match_per_user_models_across_blocks(self):
        """300 users cross the lane-block boundary twice; each column equals
        the scalar device construction of ``runner._build_device``."""
        round_seconds, duration, kappa = 3600.0, 48 * 3600.0, 30.0
        times = round_times(round_seconds, duration)
        seeds = [_device_stream_seed(97, user) for user in range(300)]
        device = build_device_columns(
            seeds, times, round_seconds, duration, kappa, markov=True
        )
        assert device.e_t.shape == device.states.shape == (len(times), 300)
        for u, seed in enumerate(seeds):
            assert device.states[:, u].tolist() == reference_states(
                DEFAULT_TRANSITIONS, random.Random(seed), len(times)
            )
            battery = DiurnalBatteryModel(rng=random.Random(seed + 1)).generate(
                duration + round_seconds, sample_period_seconds=round_seconds
            )
            assert device.e_t[:, u].tolist() == [
                battery.replenishment(t, kappa) for t in times
            ]

    def test_no_per_user_object_path_is_left(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-user model object on the column path")

        monkeypatch.setattr(DiurnalBatteryModel, "generate", forbidden)
        monkeypatch.setattr(BatterySample, "__init__", forbidden)
        monkeypatch.setattr(MarkovNetworkModel, "step", forbidden)
        times = round_times(3600.0, 24 * 3600.0)
        device = build_device_columns(
            list(range(50)), times, 3600.0, 24 * 3600.0, 30.0, markov=True
        )
        assert device.e_t.shape == device.states.shape == (len(times), 50)

    def test_cell_only_cohort_has_no_state_column(self):
        device = build_device_columns([1, 2], [3600.0], 3600.0, 3600.0, 30.0)
        assert device.states is None and device.e_t.shape == (1, 2)

    def test_arguments_validated_before_any_lane(self):
        """An empty cohort is no excuse: the checks do not live per user."""
        for bad in (
            dict(round_seconds=0.0), dict(duration_seconds=0.0),
            dict(kappa_joules=-1.0),
        ):
            arguments = dict(
                round_seconds=3600.0, duration_seconds=7200.0, kappa_joules=30.0
            )
            arguments.update(bad)
            for seeds in ([], [1, 2]):
                with pytest.raises(ValueError):
                    build_device_columns(seeds, [3600.0, 7200.0], **arguments)


class TestEngineEdges:
    def test_resumable_single_stepping(self, world):
        _, pairs, annotations, duration, seed = world
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=seed)
        spec = MethodSpec(Method.RICHNOTE)
        ladder = build_audio_ladder(config.presentation_spec)
        columns = build_cohort(pairs, annotations, ladder)

        from repro.experiments.runner import _device_stream_seed

        times = round_times(config.round_seconds, duration)

        def make_engine():
            device = build_device_columns(
                [
                    _device_stream_seed(config.seed, u)
                    for u in columns.user_ids
                ],
                times, config.round_seconds, duration,
                config.kappa_joules_per_round,
            )
            return ColumnarEngine(
                columns.cohort, device,
                registry.create(
                    spec.policy_name, **spec.policy_params(config)
                ),
                theta_bytes=config.theta_bytes_per_round,
                kappa_joules=config.kappa_joules_per_round,
                round_seconds=config.round_seconds,
                duration_seconds=duration,
                expected_batch=config.expected_batch,
            )

        whole = make_engine().run()
        assert whole.rounds == len(times)

        stepper = make_engine()
        first = stepper.run(limit_rounds=1)
        assert first.rounds == 1
        stepped = stepper.run()  # the rest
        assert stepped.rounds == len(times)
        assert stepped.deliveries == whole.deliveries
        assert np.array_equal(
            stepped.mean_backlog_bytes, whole.mean_backlog_bytes
        )
        assert np.array_equal(stepped.max_queue_length, whole.max_queue_length)

        with pytest.raises(ValueError, match="limit_rounds"):
            make_engine().run(limit_rounds=-1)

    @pytest.mark.parametrize(
        "theta,named",
        [
            # At the parent -5.0 ran silently and nan ran to an empty result
            # behind a RuntimeWarning; the scalar DataBudget raises on both.
            (-5.0, "finite and >= 0, got -5.0$"),
            (float("nan"), "finite and >= 0, got nan$"),
            (float("inf"), "finite and >= 0, got inf$"),
            ("negative-row", r"got -1.0 at row 1 \(user \d+\)"),
            ("nan-row", r"got nan at row 2 \(user \d+\)"),
            ("short", "expected one entry for each of the cohort's"),
            ("matrix", "expected one entry for each of the cohort's"),
        ],
    )
    def test_hostile_theta_is_rejected_naming_the_row(self, world, theta, named):
        from repro.experiments.runner import _device_stream_seed

        _, pairs, annotations, duration, seed = world
        config = ExperimentConfig(weekly_budget_mb=5.0, seed=seed)
        columns = build_cohort(
            pairs, annotations, build_audio_ladder(config.presentation_spec)
        )
        users = len(columns.user_ids)
        column = np.full(users, config.theta_bytes_per_round)
        if theta == "negative-row":
            column[1] = -1.0
        elif theta == "nan-row":
            column[2:] = np.nan
        elif theta == "short":
            column = column[:-1]
        elif theta == "matrix":
            column = column[None, :]
        device = build_device_columns(
            [_device_stream_seed(seed, u) for u in columns.user_ids],
            round_times(config.round_seconds, duration), config.round_seconds,
            duration, config.kappa_joules_per_round,
        )
        with pytest.raises(ValueError, match=named):
            ColumnarEngine(
                columns.cohort, device, registry.create("fifo", fixed_level=2),
                theta_bytes=column if isinstance(theta, str) else theta,
                kappa_joules=config.kappa_joules_per_round,
                round_seconds=config.round_seconds,
                duration_seconds=duration,
            )

    def test_unsupported_config_falls_back_and_sweep_cohort_rejects(
        self, world
    ):
        from repro.sim.faults import FaultConfig

        workload, pairs, annotations, duration, seed = world
        config = ExperimentConfig(
            weekly_budget_mb=5.0, seed=seed,
            faults=FaultConfig(p_disconnect=0.2),
        )
        assert not supports(config)
        ladder = build_audio_ladder(config.presentation_spec)
        columns = build_cohort(pairs, annotations, ladder)
        with pytest.raises(ValueError, match="paper-default"):
            sweep_cohort(
                columns, [(MethodSpec(Method.RICHNOTE), 5.0)], config, duration
            )
        scalar = _run_user_fold(
            pairs, MethodSpec(Method.RICHNOTE), config, annotations, duration
        )
        fallback = run_experiment(
            workload, MethodSpec(Method.RICHNOTE), config, annotations,
            [u for u, _ in pairs],
        )
        assert fallback.aggregate == aggregate(scalar)
        assert fallback.failures.attempts > 0

    def test_cohort_validation(self):
        ladder = build_audio_ladder()
        with pytest.raises(ValueError, match="offsets"):
            ColumnarCohort(
                user_ids=[1, 2],
                offsets=np.asarray([0, 1]),  # length must be n_users + 1
                item_ids=[10],
                created_at=np.asarray([0.0]),
                contents=np.asarray([0.5]),
                ladder=ladder,
            )
        with pytest.raises(ValueError, match="non-decreasing"):
            ColumnarCohort(
                user_ids=[1],
                offsets=np.asarray([0, -1]),
                item_ids=[],
                created_at=np.asarray([]),
                contents=np.asarray([]),
                ladder=ladder,
            )
        with pytest.raises(ValueError, match="entries"):
            ColumnarCohort(
                user_ids=[1],
                offsets=np.asarray([0, 2]),
                item_ids=[10],
                created_at=np.asarray([0.0]),
                contents=np.asarray([0.5]),
                ladder=ladder,
            )
        # Item ids are Algorithm 1's tie-break: unique per user, checked
        # once at construction and not in whatever round they first meet.
        with pytest.raises(ValueError, match="user 8 has duplicate item id 11"):
            ColumnarCohort(
                user_ids=[7, 8],
                offsets=np.asarray([0, 2, 5]),
                item_ids=[10, 11, 11, 12, 11],
                created_at=np.asarray([0.0, 1.0, 0.0, 1.0, 2.0]),
                contents=np.full(5, 0.5),
                ladder=ladder,
            )
        shared = ColumnarCohort(  # the same id under two users is fine
            user_ids=[7, 8],
            offsets=np.asarray([0, 2, 4]),
            item_ids=[10, 11, 11, 10],
            created_at=np.asarray([0.0, 1.0, 0.0, 1.0]),
            contents=np.full(4, 0.5),
            ladder=ladder,
        )
        assert shared.n_items == 4
        # Values, not only shapes: at the parent this cohort ran to the end,
        # never scheduling the NaN item and delivering the 7.0 one.
        hostile = dict(
            user_ids=[7, 8],
            offsets=np.asarray([0, 2, 5]),
            item_ids=[10, 11, 12, 13, 14],
            ladder=ladder,
        )
        times = np.arange(5.0)
        for contents, created_at, named in [
            ([0.5, np.nan, 0.9, -3.0, 7.0], times, "user 7 item 11"),
            ([0.5, 0.0, 0.9, -3.0, 7.0], times, "user 8 item 13"),
            ([0.5, 0.0, 0.9, 1.0, 7.0], times, "user 8 item 14"),
            (np.full(5, 0.5), [0.0, 1.0, np.inf, 3.0, 4.0], "user 8 item 12"),
            (np.full(5, 0.5), [np.nan, 1.0, 2.0, 3.0, 4.0], "user 7 item 10"),
        ]:
            with pytest.raises(ValueError, match=named):
                ColumnarCohort(contents=contents, created_at=created_at, **hostile)
        bounds = ColumnarCohort(  # 0.0 and 1.0 are utilities
            contents=[0.0, 1.0, 0.5, 0.0, 1.0], created_at=times, **hostile
        )
        assert bounds.n_items == 5


class TestStreamedUsers:
    """iter_users: per-user independent lanes, ragged volumes, bounded memory."""

    def test_prefix_stable_across_population_sizes(self):
        config = TraceConfig(seed=31)
        ten = list(iter_users(10, config))
        thousand_prefix = []
        for user_id, records in iter_users(1000, config):
            thousand_prefix.append((user_id, records))
            if len(thousand_prefix) == 10:
                break
        assert [u for u, _ in ten] == [u for u, _ in thousand_prefix]
        for (_, a), (_, b) in zip(ten, thousand_prefix):
            assert a == b

    def test_deterministic_and_ragged(self):
        config = TraceConfig(seed=31)
        first = {u: r for u, r in iter_users(40, config)}
        second = {u: r for u, r in iter_users(40, config)}
        assert first == second
        lengths = {len(r) for r in first.values()}
        assert len(lengths) > 3, "queue lengths should be ragged"
        for records in first.values():
            times = [r.timestamp for r in records]
            assert times == sorted(times)

    def test_streamed_cohort_runs_columnar(self):
        config = TraceConfig(seed=31)
        pairs = [(u, r) for u, r in iter_users(30, config) if r]
        scores = {
            r.notification_id: (0.9 if r.clicked else 0.1)
            for _, rs in pairs for r in rs
        }
        annotations = UtilityAnnotations(scores=scores)
        exp_config = ExperimentConfig(seed=31)
        outcomes = run_users_columnar(
            pairs, MethodSpec(Method.RICHNOTE), exp_config, annotations,
            config.duration_hours * 3600.0, digest_deliveries=True,
        )
        assert len(outcomes) == len(pairs)
        for (user_id, records), outcome in zip(pairs[:5], outcomes[:5]):
            twin = run_user(
                user_id, records, MethodSpec(Method.RICHNOTE), exp_config,
                annotations, config.duration_hours * 3600.0,
                digest_deliveries=True,
            )
            assert outcome.delivery_digest == twin.delivery_digest


def _rewrite_npy(name, edit):
    def mutate(store):
        np.save(store / name, edit(np.load(store / name)))

    return mutate


def _rewrite_manifest(edit):
    def mutate(store):
        path = store / "index.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")

    return mutate


def _poke_last_kind(code):
    def mutate(store):
        kind = np.fromfile(store / "kind.bin", dtype=np.int8)
        kind[-1] = code
        kind.tofile(store / "kind.bin")

    return mutate


#: case -> (edit of a sealed 4-user store, what the refusal must name).
#: Unchecked, each store would open silently or fail later, bare.
HOSTILE_STORES = {
    "swapped-offsets": (
        _rewrite_npy("offsets.npy", lambda offsets: offsets[[0, 2, 1, 3, 4]]),
        "never decrease",
    ),
    "offsets-not-from-0": (
        _rewrite_npy("offsets.npy", lambda offsets: np.r_[1, offsets[1:]]),
        "start at 0",
    ),
    "offsets-short-of-n_records": (
        _rewrite_manifest(lambda m: m.update(n_records=m["n_records"] + 1)),
        "the manifest says",
    ),
    "user-ids-one-short": (
        _rewrite_npy("user_ids.npy", lambda ids: ids[:-1]),
        "3 user ids for 4 users",
    ),
    "manifest-n_users": (
        _rewrite_manifest(lambda m: m.update(n_users=5)),
        "for 5 users",
    ),
    "duplicate-user-ids": (
        _rewrite_npy("user_ids.npy", lambda ids: ids[[0, 0, 2, 3]]),
        "not unique",
    ),
    "column-dropped-from-manifest": (
        _rewrite_manifest(lambda m: m["columns"].pop("tie_strength")),
        "SHARD_COLUMNS",
    ),
    "kind-code-past-the-kinds": (_poke_last_kind(len(TopicKind)), "kind codes"),
    "negative-kind-code": (_poke_last_kind(-1), "kind codes"),
}


#: case -> (column poked at a clicked row of a sealed store, value, the
#: invariant's message).  Unchecked, each store opened and handed the
#: engine a record ``NotificationRecord`` itself refuses.
HOSTILE_VALUES = {
    "nan-timestamp": ("timestamp", float("nan"), "timestamp must be finite and >= 0"),
    "infinite-click-time": ("click_time", float("inf"), "click time must be finite"),
    "tie-strength-past-1": ("tie_strength", 1.5, "tie strength must be in [0, 1]"),
    "click-without-hover": ("hovered", 0, "a click implies mouse attention (hovered)"),
    "click-without-click-time": (
        "click_time", float("nan"), "clicked records need a click time"
    ),
    "click-before-notification": (
        "click_time", 0.0, "click cannot precede the notification"
    ),
}


class TestShardStore:
    """The packed columnar trace format round-trips records exactly."""

    @pytest.mark.parametrize("case", list(HOSTILE_VALUES))
    def test_broken_record_values_are_refused_on_open(self, tmp_path, case):
        column, value, message = HOSTILE_VALUES[case]
        store = tmp_path / "store"
        pairs = list(iter_users(4, TraceConfig(seed=13)))
        write_shard_store(store, pairs)
        user_id, records = pairs[2]
        row = next(i for i, r in enumerate(records) if r.clicked)
        assert records[row].timestamp > 0.0
        dtype = json.loads((store / "index.json").read_text())["columns"][column]
        path = store / f"{column}.bin"
        data = np.fromfile(path, dtype=dtype)
        data[sum(len(r) for _, r in pairs[:2]) + row] = value
        data.tofile(path)
        with pytest.raises(ValueError) as refused:
            TraceShardStore(store)
        assert str(refused.value) == f"{path}: user {user_id}, row {row}: {message}"

    @pytest.mark.parametrize("case", list(HOSTILE_STORES))
    def test_broken_index_is_refused_on_open(self, tmp_path, case):
        mutate, names = HOSTILE_STORES[case]
        store = tmp_path / "store"
        pairs = list(iter_users(4, TraceConfig(seed=13)))
        assert all(records for _, records in pairs)
        write_shard_store(store, pairs)
        mutate(store)
        with pytest.raises(ValueError, match=names) as refused:
            TraceShardStore(store)
        assert str(store) in str(refused.value)

    def test_roundtrip_exact(self, tmp_path):
        config = TraceConfig(seed=13)
        pairs = list(iter_users(12, config))
        # A zero-record user in the middle: offsets must carry it through.
        pairs.insert(2, (999, []))
        count = write_shard_store(tmp_path / "store", pairs)
        assert count == sum(len(r) for _, r in pairs)
        with TraceShardStore(tmp_path / "store") as store:
            assert store.n_users == len(pairs)
            assert store.n_records == count
            for position, (user_id, records) in enumerate(pairs):
                assert store.records_at(position) == records
                assert store.records_at(position).user_id == user_id
            streamed = list(store.iter_users())
            assert streamed == [(u, r) for u, r in pairs]

    @pytest.mark.parametrize("as_list", [True, False], ids=["list", "view"])
    def test_records_of_another_user_are_refused(self, tmp_path, as_list):
        """``recipient_id`` is not stored: user 1's records under id 99
        used to read back as user 99's."""
        (_, first), (user_id, records) = list(iter_users(2, TraceConfig(seed=13)))
        assert records and user_id == 1
        records = list(records) if as_list else records
        with ShardStoreWriter(tmp_path / "store") as writer:
            writer.append(0, first)
            with pytest.raises(ValueError, match="user 99: records addressed to user 1"):
                writer.append(99, records)
        # The refused partition left nothing behind.
        with TraceShardStore(tmp_path / "store") as store:
            assert store.user_ids.tolist() == [0]
            assert store.records_at(0) == first

    def test_duplicate_user_is_refused_on_append(self, tmp_path):
        """Used to be written, and refused only when the store was opened."""
        (user_id, records), = list(iter_users(1, TraceConfig(seed=13)))
        with ShardStoreWriter(tmp_path / "store") as writer:
            writer.append(user_id, records)
            with pytest.raises(ValueError, match=f"user {user_id} was already appended"):
                writer.append(user_id, list(records))
        with TraceShardStore(tmp_path / "store") as store:
            assert store.n_records == len(records)

    def test_view_columns_must_be_shard_dtypes_of_one_length(self, tmp_path):
        (user_id, view), = list(iter_users(1, TraceConfig(seed=13)))
        columns = {name: view.column(name) for name in SHARD_COLUMNS}
        for name, column in (
            ("timestamp", columns["timestamp"].astype(np.float32)),
            ("track_popularity", columns["track_popularity"].astype(np.int64)),
            ("hovered", columns["hovered"][:-1]),
        ):
            bad = RecordsView(user_id, {**columns, name: column}, view.kinds)
            with ShardStoreWriter(tmp_path / name) as writer:
                with pytest.raises(ValueError, match=f"user {user_id}: column {name}"):
                    writer.append(user_id, bad)

    def test_view_kind_codes_are_remapped_to_the_writers_kinds(self, tmp_path):
        (user_id, view), = list(iter_users(1, TraceConfig(seed=13)))
        kinds = list(reversed(view.kinds))
        codes = view.column("kind")
        recoded = np.asarray([kinds.index(view.kinds[c]) for c in codes], dtype=codes.dtype)
        foreign = RecordsView(
            user_id,
            {name: view.column(name) for name in SHARD_COLUMNS} | {"kind": recoded},
            kinds,
        )
        assert foreign == view
        write_shard_store(tmp_path / "store", [(user_id, foreign)])
        with TraceShardStore(tmp_path / "store") as store:
            assert store.records_at(0) == view
            assert store.column("kind").tolist() == codes.tolist()

    def test_rejects_foreign_directory(self, tmp_path):
        with pytest.raises((FileNotFoundError, ValueError)):
            TraceShardStore(tmp_path / "nope")

    def test_out_of_range_positions_raise(self, tmp_path):
        """-1 used to return an empty partition under the last user's id."""
        write_shard_store(tmp_path / "store", list(iter_users(3, TraceConfig(seed=13))))
        with TraceShardStore(tmp_path / "store") as store:
            for position in (-1, -store.n_users, store.n_users, store.n_users + 5):
                with pytest.raises(IndexError):
                    store.records_at(position)

    def test_reads_after_close_raise_a_typed_error(self, tmp_path):
        write_shard_store(tmp_path / "store", list(iter_users(3, TraceConfig(seed=13))))
        store = TraceShardStore(tmp_path / "store")
        store.close()
        store.close()  # idempotent
        for read in (
            lambda: store.records_at(0),
            lambda: store.column("timestamp"),
            lambda: next(store.iter_users()),
        ):
            with pytest.raises(ValueError, match="closed"):
                read()


# -- the lazy record view and the column seam ----------------------------------

#: Few distinct timestamps, so generated streams are unsorted *and* tied.
TIMESTAMPS = st.sampled_from([0.0, 1.5, 1.5000000000000002, 60.0, 3600.0, 7200.0])


@st.composite
def user_streams(draw, max_users=4, max_records=7):
    """``(user_id, records)`` pairs: unsorted, tied, some users empty."""
    pairs, next_id = [], 0
    for user_id in draw(
        st.lists(st.integers(1, 50), max_size=max_users, unique=True)
    ):
        records = []
        for _ in range(draw(st.integers(0, max_records))):
            timestamp = draw(TIMESTAMPS)
            clicked = draw(st.booleans())
            records.append(
                NotificationRecord(
                    notification_id=next_id,
                    recipient_id=user_id,
                    sender_id=draw(st.integers(0, 9)),
                    kind=draw(st.sampled_from(list(TopicKind))),
                    track_id=draw(st.integers(0, 2**40)),
                    album_id=3,
                    artist_id=4,
                    track_popularity=draw(st.integers(0, 100)),
                    album_popularity=5,
                    artist_popularity=6,
                    tie_strength=draw(st.floats(0.0, 1.0)),
                    is_friend=draw(st.booleans()),
                    favorite_genre=draw(st.booleans()),
                    timestamp=timestamp,
                    hovered=clicked or draw(st.booleans()),
                    clicked=clicked,
                    click_time=(
                        timestamp + draw(st.floats(0.0, 1e5)) if clicked else None
                    ),
                )
            )
            next_id += 1
        pairs.append((user_id, records))
    return pairs


def _views_of(pairs, directory):
    """Round-trip pairs through a shard store; views outlive the store."""
    write_shard_store(directory, pairs)
    with TraceShardStore(directory) as store:
        return [
            (int(store.user_ids[p]), store.records_at(p))
            for p in range(store.n_users)
        ]


class TestRecordsView:
    """``records_at`` views behave exactly like the record lists they replace."""

    @settings(max_examples=60, deadline=None)
    @given(user_streams(), st.data())
    def test_view_is_the_list_it_stands_for(self, pairs, data):
        with tempfile.TemporaryDirectory() as directory:
            views = _views_of(pairs, directory)  # the store is closed by now
            assert [user_id for user_id, _ in views] == [u for u, _ in pairs]
            for (_, view), (user_id, records) in zip(views, pairs):
                assert view.user_id == user_id
                assert len(view) == len(records)
                assert list(view) == records
                assert view == records and records == view
                assert view == tuple(records)
                assert not (view != records)
                assert view != records + records[:1] + [None]
                assert repr(view) == repr(records)
                for index in range(-len(records), len(records)):
                    assert view[index] == records[index]
                for index in (len(records), -len(records) - 1):
                    with pytest.raises(IndexError):
                        view[index]
                cut = data.draw(st.slices(len(records) + 2))
                assert view[cut] == records[cut]
                assert len(view[cut]) == len(records[cut])
                assert list(reversed(view)) == records[::-1]
                if records:
                    assert records[-1] in view
                    assert view.index(records[0]) == 0

    def test_columns_are_zero_copy_slices(self, tmp_path):
        pairs = [(u, r) for u, r in iter_users(6, TraceConfig(seed=13)) if r]
        write_shard_store(tmp_path / "store", pairs)
        with TraceShardStore(tmp_path / "store") as store:
            view = store.records_at(1)
            for name in SHARD_COLUMNS:
                column = view.column(name)
                assert len(column) == len(view)
                assert np.shares_memory(column, store.column(name))
                assert not column.flags.writeable
        # Closing the store does not pull the pages from under the view.
        assert list(view) == pairs[1][1]
        assert view.column("timestamp").tolist() == [
            r.timestamp for r in pairs[1][1]
        ]


def _reference_cohort(user_records, scores):
    """``build_cohort`` as the per-record loop it was (kept as the oracle)."""
    user_ids, ordered_records, offsets = [], [], [0]
    item_ids, created, contents = [], [], []
    for user_id, records in user_records:
        ordered = sorted(records, key=lambda record: record.timestamp)
        user_ids.append(user_id)
        ordered_records.extend(ordered)
        for record in ordered:
            item_ids.append(record.notification_id)
            created.append(record.timestamp)
            contents.append(scores[record.notification_id])
        offsets.append(len(item_ids))
    return user_ids, ordered_records, offsets, item_ids, created, contents


class TestBuildCohortFromColumns:
    @settings(max_examples=60, deadline=None)
    @given(user_streams())
    def test_views_lists_and_the_old_loop_agree(self, pairs):
        ladder = build_audio_ladder()
        scores = {
            r.notification_id: 1.0 / (1 + r.notification_id)
            for _, records in pairs
            for r in records
        }
        annotations = UtilityAnnotations(scores=scores)
        user_ids, ordered, offsets, item_ids, created, contents = (
            _reference_cohort(pairs, scores)
        )
        with tempfile.TemporaryDirectory() as directory:
            views = _views_of(pairs, directory)
        mixed = [views[i] if i % 2 else pairs[i] for i in range(len(pairs))]
        for source in (pairs, views, mixed):
            columns = build_cohort(source, annotations, ladder)
            cohort = columns.cohort
            assert columns.user_ids == cohort.user_ids == user_ids
            assert cohort.offsets.tolist() == offsets
            assert cohort.offsets.dtype == np.int64
            assert cohort.item_ids.tolist() == item_ids
            assert cohort.item_ids.dtype == np.int64
            assert cohort.created_at.tobytes() == np.asarray(created, "<f8").tobytes()
            assert cohort.contents.tobytes() == np.asarray(contents, "<f8").tobytes()
            assert columns.clicked.tolist() == [r.clicked for r in ordered]
            assert [
                None if np.isnan(t) else t for t in columns.click_time.tolist()
            ] == [r.click_time for r in ordered]

    def test_zero_users(self):
        columns = build_cohort([], UtilityAnnotations(scores={}), build_audio_ladder())
        assert columns.cohort.n_users == 0 and columns.cohort.n_items == 0
        assert len(columns.clicked) == len(columns.click_time) == 0


class TestNoObjectsOnTheCohortPath:
    def test_store_range_builds_no_record_and_no_delivery(self, tmp_path, monkeypatch):
        """Store -> cohort -> engine -> fold constructs neither object type."""
        config = TraceConfig(seed=13)
        pairs = [(u, r) for u, r in iter_users(25, config) if r]
        write_shard_store(tmp_path / "store", pairs)
        built = {NotificationRecord: 0, Delivery: 0}

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                built[cls] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        counting(NotificationRecord)
        counting(Delivery)
        # The pool's one task, on a worker state as its initializer builds it.
        state = _WorkerState(
            store_path=str(tmp_path / "store"), scores=None,
            duration_seconds=config.duration_hours * 3600.0,
        )
        monkeypatch.setattr(pool_module, "_WORKER", state)
        (outcomes,) = _run_range(
            [(MethodSpec(Method.RICHNOTE), 20.0)], ExperimentConfig(seed=13),
            0, len(pairs), True,
        )
        assert built == {NotificationRecord: 0, Delivery: 0}
        assert sum(o.metrics.delivered_notifications for o in outcomes) > 0
        assert all(o.delivery_digest for o in outcomes)
        # The counters are live: the scalar edge of the same store builds
        # records (once per user, not once per pass) and deliveries.
        records = list(state.store.records_at(0))
        assert built[NotificationRecord] == len(pairs[0][1])
        twin = run_user(
            pairs[0][0], records, MethodSpec(Method.RICHNOTE),
            ExperimentConfig(seed=13), UtilityAnnotations(
                scores={r.notification_id: 0.9 if r.clicked else 0.1 for r in records}
            ),
            config.duration_hours * 3600.0, digest_deliveries=True,
        )
        assert built[NotificationRecord] == len(pairs[0][1])
        assert built[Delivery] == twin.metrics.delivered_notifications > 0
        assert twin.delivery_digest == outcomes[0].delivery_digest
        state.store.close()
