"""Failure-injection tests: degenerate devices, dead batteries, outages,
and the fault-tolerant delivery pipeline.

The scheduler must degrade gracefully -- hold items, roll budget over, and
recover -- rather than crash or leak queue state, under:

* a device that never connects;
* a long outage followed by reconnection (burst drain);
* a battery that is dead for the whole horizon (no energy replenishment);
* an empty round stream (no arrivals at all);
* items whose ladder is just {not sent, metadata};
* flaky transfers: mid-flight disconnects, timeout storms, rejected
  pushes -- with retry/backoff, byte refunds and dead-letter accounting;
* a failing sink's circuit breaker: open, half-open probe, re-close.

The ``chaos`` marker selects the randomized fault-schedule suite that
``make chaos`` runs at three fixed seeds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind, Presentation, PresentationLadder
from repro.core.delivery import DeliveryEngine, RetryPolicy
from repro.core.presentations import build_audio_ladder
from repro.runtime import RoundLoop, registry
from repro.service.sinks import SinkPolicy
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.faults import (
    FaultConfig,
    FaultKind,
    FaultOutcome,
    FlakyConnectivity,
    RandomFaultPolicy,
    ScriptedFaultPolicy,
)
from repro.sim.network import NetworkState, TraceConnectivity

LADDER = build_audio_ladder()
ROUND = 3600.0

#: The fixed seeds ``make chaos`` replays (see Makefile `chaos` target).
CHAOS_SEEDS = (101, 202, 303)


def make_scheduler(network_states, battery_level=0.8, charging=False, theta=500_000.0):
    device = MobileDevice(
        user_id=1,
        network=TraceConnectivity(network_states),
        battery=BatteryTrace(
            [BatterySample(0.0, battery_level, charging=charging)]
        ),
    )
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        policy=registry.create("richnote"),
    )


def make_util_scheduler(
    engine,
    fixed_level=5,
    theta=2_000_000.0,
    network_states=(NetworkState.CELL,),
    ttl_seconds=None,
):
    """UTIL baseline behind the fault-tolerant delivery engine.

    The fixed level makes attempt sizes predictable (level 5 = the 30 s
    preview, 600 200 B on the default audio ladder).
    """
    device = MobileDevice(
        user_id=1,
        network=TraceConnectivity(list(network_states)),
        battery=BatteryTrace([BatterySample(0.0, 0.9, charging=True)]),
    )
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=theta),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        ttl_seconds=ttl_seconds,
        delivery_engine=engine,
        policy=registry.create("util", fixed_level=fixed_level),
    )


def make_item(item_id, created_at=0.0, ladder=LADDER):
    return ContentItem(
        item_id=item_id,
        user_id=1,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=ladder,
        content_utility=0.6,
    )


class TestPermanentOutage:
    def test_items_held_forever_without_crash(self):
        scheduler = make_scheduler([NetworkState.OFF])
        for item_id in range(5):
            scheduler.enqueue(make_item(item_id))
        for round_index in range(1, 20):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            assert result.deliveries == []
        assert scheduler.pending_items == 5
        # Budget accumulated untouched for 19 rounds.
        assert scheduler.data_budget.available == pytest.approx(19 * 500_000.0)


class TestOutageRecovery:
    def test_burst_drain_after_reconnect(self):
        states = [NetworkState.OFF] * 5 + [NetworkState.CELL]
        scheduler = make_scheduler(states, theta=300_000.0)
        for item_id in range(4):
            scheduler.enqueue(make_item(item_id))
        deliveries = []
        for round_index in range(1, 7):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            deliveries.extend(result.deliveries)
        # Everything drains in the reconnect round, with rolled-over budget
        # affording rich presentations.
        assert len(deliveries) == 4
        assert all(d.time == 6 * ROUND for d in deliveries)
        assert max(d.level for d in deliveries) >= 3


class TestDeadBattery:
    def test_energy_budget_starves_but_data_flow_continues(self):
        """Below 5% charge e(t)=0: P(t) drains to 0 and stays there.

        The energy term then maximally penalizes expensive presentations,
        but the (soft) Lyapunov constraint must not deadlock delivery.
        """
        scheduler = make_scheduler(
            [NetworkState.CELL], battery_level=0.03, charging=False
        )
        delivered = 0
        for round_index in range(1, 6):
            scheduler.enqueue(make_item(round_index, created_at=round_index * ROUND - 1))
            result = scheduler.run_round(round_index * ROUND, ROUND)
            delivered += len(result.deliveries)
        assert delivered == 5
        # No replenishment ever accepted: P(t) only drains.
        assert scheduler.energy_budget.available <= 3000.0


class TestEmptyStream:
    def test_rounds_without_arrivals_are_noops(self):
        scheduler = make_scheduler([NetworkState.CELL])
        for round_index in range(1, 10):
            result = scheduler.run_round(round_index * ROUND, ROUND)
            assert result.deliveries == []
            assert result.queue_length_after == 0
            assert result.backlog_bytes_after == 0.0


class TestMinimalLadder:
    def test_metadata_only_ladder_schedulable(self):
        tiny = PresentationLadder(
            [
                Presentation(0, 0, 0.0),
                Presentation(1, 200, 1.0, "metadata"),
            ]
        )
        scheduler = make_scheduler([NetworkState.CELL], theta=1000.0)
        scheduler.enqueue(make_item(1, ladder=tiny))
        result = scheduler.run_round(ROUND, ROUND)
        assert [d.level for d in result.deliveries] == [1]

    def test_mixed_ladders_in_one_queue(self):
        """Items with different ladder shapes coexist in one MCKP round."""
        tiny = PresentationLadder(
            [Presentation(0, 0, 0.0), Presentation(1, 200, 1.0)]
        )
        scheduler = make_scheduler([NetworkState.CELL], theta=10_000_000.0)
        scheduler.enqueue(make_item(1, ladder=tiny))
        scheduler.enqueue(make_item(2, ladder=LADDER))
        result = scheduler.run_round(ROUND, ROUND)
        levels = {d.item.item_id: d.level for d in result.deliveries}
        assert levels[1] == 1
        assert levels[2] == LADDER.max_level


#: Level 5 of the default audio ladder: metadata + 30 s preview.
PREVIEW_30S_BYTES = LADDER.size(5)

#: Deterministic retry policy: no jitter, retry eligible immediately.
IMMEDIATE_RETRY = RetryPolicy(
    max_attempts=3, base_backoff_seconds=0.0, max_backoff_seconds=0.0
)


class _MaxJitterRng(random.Random):
    """rng whose uniform() always returns the upper bound (worst-case jitter)."""

    def uniform(self, a, b):
        return b


class TestFlakyTransfers:
    def test_disconnect_at_half_of_30s_preview(self):
        """A transfer dropped at 50% refunds half the bytes and retries."""
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy(
                [FaultOutcome(FaultKind.DISCONNECT, fraction_completed=0.5)]
            ),
            retry=IMMEDIATE_RETRY,
            rng=random.Random(7),
        )
        scheduler = make_util_scheduler(engine, fixed_level=5)
        scheduler.enqueue(make_item(1))

        first = scheduler.run_round(ROUND, ROUND)
        assert first.deliveries == []
        stats = engine.stats  # the ledger after round 1 is round 1's account
        assert stats.attempts == 1
        assert stats.failed_attempts == 1
        assert stats.retries_scheduled == 1
        assert stats.bytes_refunded == pytest.approx(PREVIEW_30S_BYTES / 2)
        assert stats.bytes_wasted == pytest.approx(PREVIEW_30S_BYTES / 2)
        assert stats.fault_counts == {"disconnect": 1}
        assert scheduler.pending_items == 1
        # Half the attempt was refunded to B(t).
        assert scheduler.data_budget.available == pytest.approx(
            2_000_000.0 - PREVIEW_30S_BYTES / 2
        )

        second = scheduler.run_round(2 * ROUND, ROUND)
        assert [d.level for d in second.deliveries] == [5]
        assert scheduler.pending_items == 0
        assert stats.bytes_debited == pytest.approx(2 * PREVIEW_30S_BYTES)
        assert stats.conservation_error() < 1e-6

    def test_timeout_storm_dead_letters_after_max_attempts(self):
        """Every attempt times out: bounded retries, then a dead letter."""
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy(
                [FaultOutcome(FaultKind.TIMEOUT)] * 10
            ),
            retry=IMMEDIATE_RETRY,
            rng=random.Random(7),
        )
        scheduler = make_util_scheduler(engine, fixed_level=5)
        scheduler.enqueue(make_item(1))
        stats = engine.stats
        results, dead_letters = [], []
        for i in range(1, 4):
            results.append(scheduler.run_round(i * ROUND, ROUND))
            dead_letters.append(stats.dead_letters)
        assert stats.failed_attempts == 3
        dead = results[-1].dropped
        assert len(dead) == 1
        assert dead[0].reason == "delivery_failed:timeout"
        assert dead[0].attempts == 3
        assert dead_letters == [0, 0, 1]
        assert scheduler.pending_items == 0
        assert sum(len(r.dropped) for r in results) == 1
        # Timeouts transfer nothing: every debit was refunded in full.
        assert stats.bytes_wasted == 0.0
        assert stats.bytes_refunded == pytest.approx(stats.bytes_debited)
        assert stats.conservation_error() < 1e-6

    def test_rejected_push_is_fully_refunded(self):
        """A channel rejection costs no bytes at all."""
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy([FaultOutcome(FaultKind.REJECT)]),
            retry=IMMEDIATE_RETRY,
            rng=random.Random(7),
        )
        scheduler = make_util_scheduler(engine, fixed_level=5)
        scheduler.enqueue(make_item(1))
        scheduler.run_round(ROUND, ROUND)
        assert scheduler.data_budget.available == pytest.approx(2_000_000.0)

    def test_redelivery_degrades_presentation_level(self):
        """After repeated failures the retry is capped one level lower."""
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy(
                [FaultOutcome(FaultKind.DISCONNECT, fraction_completed=0.25)]
            ),
            retry=RetryPolicy(
                max_attempts=3,
                base_backoff_seconds=0.0,
                max_backoff_seconds=0.0,
                degrade_after_attempts=1,
            ),
            rng=random.Random(7),
        )
        scheduler = make_util_scheduler(engine, fixed_level=5)
        scheduler.enqueue(make_item(1))
        scheduler.run_round(ROUND, ROUND)
        second = scheduler.run_round(2 * ROUND, ROUND)
        assert [d.level for d in second.deliveries] == [4]

    def test_retry_that_cannot_beat_ttl_is_dead_lettered(self):
        """TTL-aware redelivery: pointless retries die immediately."""
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy(
                [FaultOutcome(FaultKind.DISCONNECT, fraction_completed=0.5)]
            ),
            retry=RetryPolicy(
                max_attempts=5,
                base_backoff_seconds=2 * ROUND,
                max_backoff_seconds=2 * ROUND,
            ),
            rng=_MaxJitterRng(7),  # jitter always lands at the ceiling
        )
        scheduler = make_util_scheduler(
            engine, fixed_level=5, ttl_seconds=1.5 * ROUND
        )
        scheduler.enqueue(make_item(1, created_at=0.0))
        result = scheduler.run_round(ROUND, ROUND)
        assert engine.stats.dead_letters == 1
        assert result.dropped[0].reason == "retry_would_expire:disconnect"
        assert scheduler.pending_items == 0

    def test_corrupt_download_wastes_all_bytes(self):
        engine = DeliveryEngine(
            fault_policy=ScriptedFaultPolicy(
                [FaultOutcome(FaultKind.CORRUPT, fraction_completed=1.0)]
            ),
            retry=IMMEDIATE_RETRY,
            rng=random.Random(7),
        )
        scheduler = make_util_scheduler(engine, fixed_level=5)
        scheduler.enqueue(make_item(1))
        scheduler.run_round(ROUND, ROUND)
        assert engine.stats.bytes_refunded == 0.0
        assert engine.stats.bytes_wasted == pytest.approx(PREVIEW_30S_BYTES)
        assert scheduler.data_budget.available == pytest.approx(
            2_000_000.0 - PREVIEW_30S_BYTES
        )


#: ``TestNoFaultParity._run(theta, per_round)`` as the round loop's atomic
#: drain produced it, before every loop drained through a DeliveryEngine:
#: per round, the ``(item, level, size, energy, utility)`` deliveries, then
#: the data budget, energy budget and backlog after the round.
ATOMIC_DRAIN_OUTCOMES = {
    (700_000.0, 1): [
        ([(1, 5, 600200, 18.1533203125, 0.5357731341600626)], 99800.0, 5381.8466796875, 0.0),
        ([(2, 5, 600200, 18.1533203125, 0.5357731341600626)], 199600.0, 5363.693359375, 0.0),
        ([(3, 6, 800200, 23.0361328125, 0.6)], 99400.0, 5340.6572265625, 0.0),
        ([(4, 5, 600200, 18.1533203125, 0.5357731341600626)], 199200.0, 5322.50390625, 0.0),
        ([(5, 6, 800200, 23.0361328125, 0.6)], 99000.0, 5299.4677734375, 0.0),
        ([], 799000.0, 5299.4677734375, 0.0),
        ([], 1499000.0, 5299.4677734375, 0.0),
    ],
    (250_000.0, 3): [
        (
            [(3, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (4, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (5, 1, 200, 0.008372343905782651, 0.006)],
            49400.0, 5391.6025390625, 0.0,
        ),
        (
            [(6, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (7, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (8, 1, 200, 0.008372343905782651, 0.006)],
            98800.0, 5383.205078125, 0.0,
        ),
        (
            [(9, 2, 100200, 3.6129557291666665, 0.15851687073510828),
             (10, 2, 100200, 3.6129557291666665, 0.15851687073510828),
             (11, 2, 100200, 3.6129557291666665, 0.15851687073510828)],
            48200.0, 5372.366210937499, 0.0,
        ),
        (
            [(12, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (13, 2, 100200, 4.194544296797108, 0.15851687073510828),
             (14, 1, 200, 0.008372343905782651, 0.006)],
            97600.0, 5363.968749999999, 0.0,
        ),
        (
            [(15, 2, 100200, 3.6129557291666665, 0.15851687073510828),
             (16, 2, 100200, 3.6129557291666665, 0.15851687073510828),
             (17, 2, 100200, 3.6129557291666665, 0.15851687073510828)],
            47000.0, 5353.129882812498, 0.0,
        ),
        ([], 297000.0, 5353.129882812498, 0.0),
        ([], 547000.0, 5353.129882812498, 0.0),
    ],
}


class TestNoFaultParity:
    """Without a fault policy the engine's drain is the paper's atomic
    delivery, bit for bit: the default loop reproduces the outcomes the
    atomic drain recorded (:data:`ATOMIC_DRAIN_OUTCOMES`)."""

    @staticmethod
    def _run(theta, per_round, engine=None):
        device = MobileDevice(
            user_id=1,
            network=TraceConnectivity([NetworkState.CELL]),
            battery=BatteryTrace([BatterySample(0.0, 0.8, charging=False)]),
        )
        scheduler = RoundLoop(
            device=device,
            data_budget=DataBudget(theta_bytes=theta),
            energy_budget=EnergyBudget(kappa_joules=3000.0),
            delivery_engine=engine,
            policy=registry.create("richnote"),
        )
        outcomes = []
        for round_index in range(1, 8):
            if round_index <= 5:
                for k in range(per_round):
                    scheduler.enqueue(
                        make_item(
                            per_round * round_index + k,
                            created_at=(round_index - 1) * ROUND,
                        )
                    )
            result = scheduler.run_round(round_index * ROUND, ROUND)
            outcomes.append(
                (
                    [
                        (d.item.item_id, d.level, d.size_bytes,
                         d.energy_joules, d.utility)
                        for d in result.deliveries
                    ],
                    result.data_budget_after,
                    result.energy_budget_after,
                    result.backlog_bytes_after,
                )
            )
        return outcomes

    @pytest.mark.parametrize("theta, per_round", sorted(ATOMIC_DRAIN_OUTCOMES))
    def test_default_loop_matches_the_atomic_drain(self, theta, per_round):
        assert self._run(theta, per_round) == ATOMIC_DRAIN_OUTCOMES[theta, per_round]

    def test_success_path_allocates_no_retry_state(self, monkeypatch):
        import repro.core.delivery as delivery

        def no_retry_state():
            raise AssertionError("a successful attempt allocated retry state")

        monkeypatch.setattr(delivery, "_RetryState", no_retry_state)
        engine = DeliveryEngine()
        assert self._run(250_000.0, 3, engine) == ATOMIC_DRAIN_OUTCOMES[250_000.0, 3]
        assert engine.stats.delivered == engine.stats.attempts == 15


class TestFullJitterBackoff:
    """The round loop's :class:`RetryPolicy` and the service's
    :class:`SinkPolicy` share one full-jitter backoff; each draws exactly
    what its own ``min(max, base * 2**(n-1))`` ceiling drew before."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        base=st.floats(0.0, 1e4),
        spread=st.floats(1.0, 64.0),
        failed_attempts=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_retry_and_sink_policies_draw_the_same_bits(
        self, base, spread, failed_attempts, seed
    ):
        ceiling = base * spread
        policies = (
            RetryPolicy(base_backoff_seconds=base, max_backoff_seconds=ceiling),
            SinkPolicy(base_backoff_seconds=base, max_backoff_seconds=ceiling),
        )
        expected = random.Random(seed).uniform(
            0.0, min(ceiling, base * 2 ** (failed_attempts - 1))
        )
        for policy in policies:
            drawn = policy.backoff_seconds(failed_attempts, random.Random(seed))
            assert drawn.hex() == expected.hex()

    def test_ceiling_caps_the_window_and_attempts_start_at_one(self):
        for policy in (
            RetryPolicy(base_backoff_seconds=900.0, max_backoff_seconds=4 * 3600.0),
            SinkPolicy(base_backoff_seconds=900.0, max_backoff_seconds=4 * 3600.0),
        ):
            windows = [
                policy.backoff_seconds(n, _MaxJitterRng()) for n in range(1, 8)
            ]
            assert windows == [900.0, 1800.0, 3600.0, 7200.0] + [14400.0] * 3
            with pytest.raises(ValueError, match=">= 1"):
                policy.backoff_seconds(0, random.Random(0))


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestFaultDeterminism:
    """Same seed => identical RoundResult streams and per-round ledger
    snapshots (reproducibility fix)."""

    @classmethod
    def _stream(cls, seed):
        return cls._run(seed)[1]

    @staticmethod
    def _run(seed):
        config = FaultConfig(
            p_disconnect=0.25, p_timeout=0.1, p_corrupt=0.05, p_reject=0.05
        )
        engine = DeliveryEngine(
            fault_policy=RandomFaultPolicy(config),
            retry=RetryPolicy(base_backoff_seconds=0.0, max_backoff_seconds=0.0),
            rng=random.Random(seed),
        )
        states = [
            NetworkState.CELL if random.Random(seed + 1).random() < 0.8
            else NetworkState.OFF
            for _ in range(12)
        ]
        scheduler = make_util_scheduler(
            engine, fixed_level=4, network_states=states
        )
        stream = []
        for round_index in range(1, 13):
            if round_index <= 8:
                scheduler.enqueue(
                    make_item(round_index, created_at=(round_index - 1) * ROUND)
                )
            result = scheduler.run_round(round_index * ROUND, ROUND)
            stats = engine.stats
            stream.append(
                (
                    result.round_index,
                    tuple(
                        (d.item.item_id, d.level, d.size_bytes, d.utility)
                        for d in result.deliveries
                    ),
                    tuple((drop.item.item_id, drop.reason, drop.attempts)
                          for drop in result.dropped),
                    stats.attempts,
                    stats.failed_attempts,
                    stats.bytes_refunded,
                    stats.bytes_wasted,
                    tuple(sorted(stats.fault_counts.items())),
                    result.data_budget_after,
                    result.energy_budget_after,
                )
            )
        return scheduler, stream

    def test_default_loop_attributes_every_debit_to_push(self, seed):
        """``channels=None`` is the push set: the budget's per-channel
        ledger (debits minus refunds) is what was delivered or wasted."""
        scheduler, _ = self._run(seed)
        stats = scheduler.delivery_engine.stats
        ledger = scheduler.data_budget.per_channel_bytes
        assert list(ledger) == ["push"]
        assert stats.bytes_delivered > 0 and stats.bytes_wasted > 0
        assert sum(ledger.values()) == pytest.approx(
            stats.bytes_delivered + stats.bytes_wasted
        )

    def test_same_seed_same_stream(self, seed):
        assert self._stream(seed) == self._stream(seed)

    def test_different_seeds_diverge(self, seed):
        # Not a hard guarantee, but with 12 rounds at ~45% fault rate two
        # streams agreeing byte-for-byte would indicate a shared rng.
        assert self._stream(seed) != self._stream(seed + 7)


@pytest.mark.chaos
class TestConservationProperties:
    """Randomized fault schedules never corrupt budget accounting."""

    @given(
        p_disconnect=st.floats(0.0, 0.4),
        p_timeout=st.floats(0.0, 0.2),
        p_corrupt=st.floats(0.0, 0.15),
        p_reject=st.floats(0.0, 0.15),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_budgets_non_negative_and_bytes_conserved(
        self, p_disconnect, p_timeout, p_corrupt, p_reject, seed
    ):
        config = FaultConfig(
            p_disconnect=p_disconnect,
            p_timeout=p_timeout,
            p_corrupt=p_corrupt,
            p_reject=p_reject,
        )
        engine = DeliveryEngine(
            fault_policy=RandomFaultPolicy(config),
            retry=RetryPolicy(
                max_attempts=3,
                base_backoff_seconds=0.0,
                max_backoff_seconds=0.0,
                degrade_after_attempts=1,
            ),
            rng=random.Random(seed),
        )
        chain = random.Random(seed + 1)
        states = [
            NetworkState.CELL if chain.random() < 0.75 else NetworkState.OFF
            for _ in range(10)
        ]
        scheduler = make_util_scheduler(
            engine, fixed_level=5, theta=1_500_000.0, network_states=states
        )
        for round_index in range(1, 11):
            if round_index <= 6:
                scheduler.enqueue(
                    make_item(round_index, created_at=(round_index - 1) * ROUND)
                )
            scheduler.run_round(round_index * ROUND, ROUND)
            assert scheduler.data_budget.available >= 0.0
            assert scheduler.energy_budget.available >= 0.0
            stats = engine.stats
            assert stats.bytes_refunded <= stats.bytes_debited + 1e-6
            assert stats.conservation_error() < 1e-6
        device = scheduler.device
        assert device.stats.bytes_downloaded >= -1e-6
        assert device.stats.energy_spent_joules >= -1e-6


class TestFlakyConnectivityWrapper:
    def test_composes_with_trace_model(self):
        base = TraceConnectivity([NetworkState.CELL])
        flaky = FlakyConnectivity(base, p_outage=1.0, rng=random.Random(3))
        flaky.step()
        assert not flaky.connected
        assert flaky.state is NetworkState.OFF
        assert flaky.capacity_per_round(ROUND) == 0.0

    def test_zero_outage_is_transparent(self):
        base = TraceConnectivity([NetworkState.WIFI])
        flaky = FlakyConnectivity(base, p_outage=0.0, rng=random.Random(3))
        flaky.step()
        assert flaky.connected
        assert flaky.state is NetworkState.WIFI
        assert flaky.bandwidth == base.bandwidth

    def test_invalid_outage_probability_rejected(self):
        base = TraceConnectivity([NetworkState.WIFI])
        for bad in (-0.1, 1.0001, 2.0):
            with pytest.raises(ValueError, match="p_outage"):
                FlakyConnectivity(base, p_outage=bad, rng=random.Random(1))

    def test_full_outage_rate_blanks_every_connected_round(self):
        base = TraceConnectivity([NetworkState.WIFI, NetworkState.CELL])
        flaky = FlakyConnectivity(base, p_outage=1.0, rng=random.Random(7))
        for _ in range(6):
            flaky.step()
            assert not flaky.connected
            assert flaky.state is NetworkState.OFF
            assert flaky.bandwidth == 0.0
            assert flaky.capacity_per_round(ROUND) == 0.0

    def test_base_disconnect_consumes_no_rng_draw(self):
        """When the trace itself is OFF the wrapper adds nothing and must
        not advance the fault stream -- otherwise the outage schedule
        would depend on the trace instead of only on the seed."""

        class CountingRandom(random.Random):
            draws = 0

            def random(self):
                CountingRandom.draws += 1
                return super().random()

        CountingRandom.draws = 0
        base = TraceConnectivity([NetworkState.OFF])
        flaky = FlakyConnectivity(base, p_outage=1.0, rng=CountingRandom(3))
        flaky.step()
        assert flaky.state is NetworkState.OFF
        assert not flaky.connected
        assert CountingRandom.draws == 0

    def test_reconnects_on_the_round_after_an_outage(self):
        """A forced outage must not leak into the next round: the flag is
        recomputed every step, so the wrapper turns transparent again the
        moment the stream stops drawing an outage."""

        class ScriptedRng:
            def __init__(self, script):
                self._script = list(script)

            def random(self):
                return self._script.pop(0)

        base = TraceConnectivity([NetworkState.WIFI])
        flaky = FlakyConnectivity(base, p_outage=0.5, rng=ScriptedRng([0.1, 0.9]))
        flaky.step()
        assert not flaky.connected  # 0.1 < 0.5: forced off this round
        assert flaky.capacity_per_round(ROUND) == 0.0
        flaky.step()
        assert flaky.connected  # 0.9 >= 0.5: outage over
        assert flaky.state is NetworkState.WIFI
        assert flaky.bandwidth == base.bandwidth
        assert flaky.capacity_per_round(ROUND) == base.capacity_per_round(ROUND)

    def test_negative_round_duration_rejected(self):
        base = TraceConnectivity([NetworkState.WIFI])
        flaky = FlakyConnectivity(base, p_outage=0.0, rng=random.Random(3))
        with pytest.raises(ValueError, match=">= 0"):
            flaky.capacity_per_round(-1.0)


class TestSinkCircuitBreaker:
    """The breaker state machine on its own: each attempt is ``allow``,
    then ``record_failure`` or ``record_success`` when allowed."""

    @staticmethod
    def _attempt(circuit, ok, counts):
        allowed, _ = circuit.allow()
        if not allowed:
            counts["skipped"] += 1
        elif ok:
            circuit.record_success()
        else:
            counts["errors"] += 1
            circuit.record_failure()

    def test_breaker_open_half_open_closed(self):
        from repro.core.breaker import (
            BreakerState,
            CircuitBreakerConfig,
            SinkCircuit,
        )

        circuit = SinkCircuit(
            CircuitBreakerConfig(failure_threshold=2, cooldown_skips=2)
        )
        counts = {"errors": 0, "skipped": 0}
        self._attempt(circuit, False, counts)
        assert circuit.state is BreakerState.CLOSED
        self._attempt(circuit, False, counts)  # second consecutive failure -> OPEN
        assert circuit.state is BreakerState.OPEN
        assert counts["errors"] == 2
        self._attempt(circuit, True, counts)  # skipped (cooldown 1/2)
        self._attempt(circuit, True, counts)  # skipped (cooldown 2/2)
        assert counts["skipped"] == 2
        assert circuit.state is BreakerState.OPEN
        self._attempt(circuit, True, counts)  # HALF_OPEN probe succeeds -> CLOSED
        assert circuit.state is BreakerState.CLOSED
        assert counts["errors"] == 2  # no new errors
        self._attempt(circuit, True, counts)
        assert circuit.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        from repro.core.breaker import (
            BreakerState,
            CircuitBreakerConfig,
            SinkCircuit,
        )

        circuit = SinkCircuit(
            CircuitBreakerConfig(failure_threshold=1, cooldown_skips=1)
        )
        counts = {"errors": 0, "skipped": 0}
        for _ in range(3):
            self._attempt(circuit, False, counts)
        # fail -> OPEN, skip, probe fails -> OPEN again
        assert circuit.state is BreakerState.OPEN
        assert counts["errors"] == 2
        assert counts["skipped"] == 1

    def test_half_open_admits_exactly_one_probe(self):
        """Regression: a half-open breaker must latch while its probe is
        in flight, or concurrent async deliveries all pass at once."""
        from repro.core.breaker import (
            BreakerState,
            CircuitBreakerConfig,
            SinkCircuit,
        )

        circuit = SinkCircuit(
            CircuitBreakerConfig(failure_threshold=1, cooldown_skips=1)
        )
        circuit.record_failure()
        assert circuit.state is BreakerState.OPEN
        assert circuit.allow() == (False, False)  # cooldown skip
        assert circuit.allow() == (True, True)  # the probe
        assert circuit.state is BreakerState.HALF_OPEN
        # While the probe is unresolved, every further delivery is refused.
        assert circuit.allow() == (False, False)
        assert circuit.allow() == (False, False)
        circuit.record_success()
        assert circuit.state is BreakerState.CLOSED
        assert circuit.allow() == (True, False)

    def test_half_open_probe_failure_clears_latch_and_reopens(self):
        from repro.core.breaker import (
            BreakerState,
            CircuitBreakerConfig,
            SinkCircuit,
        )

        circuit = SinkCircuit(
            CircuitBreakerConfig(failure_threshold=1, cooldown_skips=1)
        )
        circuit.record_failure()
        circuit.allow()  # burn the cooldown skip
        assert circuit.allow() == (True, True)
        circuit.record_failure()  # probe failed
        assert circuit.state is BreakerState.OPEN
        assert circuit.allow() == (False, False)  # fresh cooldown window
        # The next window's probe is admitted again (latch was cleared).
        assert circuit.allow() == (True, True)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestChaosEndToEnd:
    """Full-harness chaos runs: 20% disconnects plus a failing sink.

    Acceptance: the run completes with zero unhandled exceptions, bytes
    are conserved (delivered + refunded + dead-lettered == debited), and
    the failure metrics surface through :class:`ExperimentResult`.
    """

    def test_experiment_under_faults_conserves_bytes(self, seed):
        from repro.experiments.config import ExperimentConfig, Method, MethodSpec
        from repro.experiments.reporting import render_failure_stats
        from repro.experiments.runner import UtilityAnnotations, run_experiment
        from repro.experiments.workloads import eval_workload

        workload = eval_workload("small")
        config = ExperimentConfig(
            weekly_budget_mb=5.0,
            seed=seed,
            use_oracle_utility=True,
            faults=FaultConfig(
                p_disconnect=0.2, p_timeout=0.05, p_corrupt=0.02, p_reject=0.03
            ),
        )
        annotations = UtilityAnnotations.train(workload, oracle=True)
        result = run_experiment(
            workload,
            MethodSpec(Method.RICHNOTE),
            config,
            annotations,
            workload.top_users(6),
        )
        failures = result.failures
        assert failures.attempts > 0
        assert failures.failed_attempts > 0
        assert failures.fault_counts.get("disconnect", 0) > 0
        assert failures.bytes_refunded <= failures.bytes_debited + 1e-6
        assert failures.conservation_error() < 1e-3
        # The report renders without blowing up and flags conservation ok.
        assert "conservation" in render_failure_stats(failures)
        assert "VIOLATED" not in render_failure_stats(failures)

    def test_faults_off_matches_seed_behaviour(self, seed):
        """faults=None must reproduce the atomic path bit-for-bit."""
        from repro.experiments.config import ExperimentConfig, Method, MethodSpec
        from repro.experiments.runner import UtilityAnnotations, run_experiment
        from repro.experiments.workloads import eval_workload

        workload = eval_workload("small")
        annotations = UtilityAnnotations.train(workload, oracle=True)
        users = workload.top_users(4)
        config = ExperimentConfig(
            weekly_budget_mb=5.0, seed=seed, use_oracle_utility=True
        )
        baseline = run_experiment(
            workload, MethodSpec(Method.UTIL, 3), config, annotations, users
        )
        again = run_experiment(
            workload, MethodSpec(Method.UTIL, 3), config, annotations, users
        )
        assert baseline.aggregate.row() == again.aggregate.row()
        assert baseline.failures.attempts == 0
        assert baseline.failures.dead_letters == 0


class TestOneLedger:
    """The engine's :class:`DeliveryStats` is the only fault account: a
    user's ledger is its engine's, a cell's is their ordered merge, and
    conservation holds in billed bytes on every channel."""

    @staticmethod
    def _setting():
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import UtilityAnnotations
        from repro.experiments.workloads import eval_workload

        workload = eval_workload("small")
        config = ExperimentConfig(
            weekly_budget_mb=5.0,
            seed=CHAOS_SEEDS[0],
            use_oracle_utility=True,
            faults=FaultConfig(p_disconnect=0.2, p_timeout=0.05),
        )
        return workload, config, UtilityAnnotations.train(workload, oracle=True)

    def test_multichannel_run_user_conserves_exactly(self):
        """Billed bytes throughout: a channel whose billed size differs
        from its wire size must still close the ledger to 0 B."""
        from repro.core.channels import ChannelSet, builtin_channel
        from repro.experiments.config import Method, MethodSpec
        from repro.experiments.reporting import render_failure_stats
        from repro.experiments.runner import run_user

        workload, config, annotations = self._setting()
        channels = ChannelSet(
            [builtin_channel(name) for name in ("push", "inapp", "email")]
        )
        for user_id in workload.top_users(3):
            failures = run_user(
                user_id,
                workload.records_for_user(user_id),
                MethodSpec(Method.RICHNOTE),
                config,
                annotations,
                workload.config.duration_hours * 3600.0,
                channels=channels,
            ).failures
            assert failures.failed_attempts > 0
            assert failures.conservation_error() == 0.0
            assert set(failures.per_channel) - {"push"}
            assert "conservation: ok (err=0 B)" in render_failure_stats(failures)

    def test_cell_failures_are_the_ordered_merge_of_engine_ledgers(
        self, monkeypatch
    ):
        from repro.core.delivery import DeliveryStats
        from repro.experiments import runner
        from repro.experiments.config import Method, MethodSpec

        engines = []

        class RecordingEngine(DeliveryEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(runner, "DeliveryEngine", RecordingEngine)
        workload, config, annotations = self._setting()
        users = workload.top_users(5)
        result = runner.run_experiment(
            workload, MethodSpec(Method.FIFO, 3), config, annotations, users
        )
        assert len(engines) == len(result.per_user) == len(users)
        merged = DeliveryStats()
        for engine in engines:
            merged.merge(engine.stats)
        assert merged.failed_attempts > 0
        assert result.failures == merged
        # The merge folds every per-channel slice, not only the totals.
        assert merged.per_channel["push"].attempts == merged.attempts
        assert merged.per_channel["push"].bytes_delivered == merged.bytes_delivered
