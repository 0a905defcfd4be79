"""Tests for the live notification service (ingest -> schedule -> deliver).

Unit layers first (clock, queues, rate limiter, ladder, timers, guarded
sinks, loop hooks), then the end-to-end chaos gate: a flash crowd against
bounded queues must keep the conservation ledger exact, never exceed a
queue bound, answer overloads explicitly, and walk the degradation
ladder up *and* back down.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel
from repro.core.breaker import BreakerState, CircuitBreakerConfig
from repro.runtime import registry
from repro.runtime.loop import RoundLoop
from repro.runtime.types import Delivery
from repro.service import (
    Admission,
    BoundedUserQueue,
    ClockStalled,
    DegradationConfig,
    DegradationController,
    GuardedSink,
    IngestFrontier,
    MonotonicClock,
    NotificationService,
    PressureLevel,
    QueuedEvent,
    RateLimitConfig,
    RoundTimers,
    ServiceConfig,
    SimulatedClock,
    SinkPolicy,
    TieredRateLimiter,
    TokenBucket,
)
from repro.service.chaos import FlakySink, FlashCrowdConfig, SinkFault
from repro.service.harness import DemoConfig, run_demo
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.energy import TransferEnergyModel
from repro.sim.network import NetworkState, TraceConnectivity

LADDER = build_audio_ladder()


def item(item_id, user_id=1, created_at=0.0, utility=0.5):
    return ContentItem(
        item_id=item_id,
        user_id=user_id,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=LADDER,
        content_utility=utility,
    )


def delivery(item_id=0, user_id=1):
    return Delivery(
        time=0.0,
        user_id=user_id,
        item=item(item_id, user_id),
        level=1,
        size_bytes=1_000,
        energy_joules=1.0,
        utility=0.5,
    )


def event(item_id, user_id=1, at=0.0):
    return QueuedEvent(item=item(item_id, user_id), ingested_at=at)


def make_loop(user_id=1):
    """A live RoundLoop on always-on WiFi with generous budgets."""
    device = MobileDevice(
        user_id=user_id,
        network=TraceConnectivity([NetworkState.WIFI]),
        battery=BatteryTrace([BatterySample(time=0.0, level=0.9, charging=False)]),
        energy_model=TransferEnergyModel(),
    )
    return RoundLoop(
        device,
        DataBudget(theta_bytes=5_000_000.0),
        EnergyBudget(kappa_joules=10_000.0),
        CombinedUtilityModel(),
        policy=registry.create("richnote"),
    )


def drive(clock, awaitable):
    return clock.run(awaitable)


class TestSimulatedClock:
    def test_sleepers_wake_in_deadline_order(self):
        clock = SimulatedClock()
        order = []

        async def sleeper(label, seconds):
            await clock.sleep(seconds)
            order.append(label)

        async def scenario():
            await asyncio.gather(
                sleeper("late", 3.0), sleeper("early", 1.0), sleeper("mid", 2.0)
            )

        drive(clock, scenario())
        assert order == ["early", "mid", "late"]
        assert clock.now() == 3.0

    def test_equal_wake_times_resolve_in_insertion_order(self):
        clock = SimulatedClock()
        order = []

        async def sleeper(label):
            await clock.sleep(4.0)
            order.append(label)

        async def scenario():
            await asyncio.gather(*(sleeper(label) for label in range(12)))

        drive(clock, scenario())
        assert order == list(range(12))

    def test_now_never_decreases_and_equals_the_fired_wake_time(self):
        clock = SimulatedClock(start=10.0)
        rng = random.Random(5)
        seen = []

        async def sleeper(seconds):
            due = clock.now() + seconds
            await clock.sleep(seconds)
            seen.append((due, clock.now()))
            if seconds > 1.0:
                await sleeper(seconds / 2)

        async def scenario():
            await asyncio.gather(
                *(sleeper(rng.uniform(0.1, 30.0)) for _ in range(40))
            )

        drive(clock, scenario())
        assert len(seen) > 40
        assert all(due == woke_at for due, woke_at in seen)
        woke = [woke_at for _, woke_at in seen]
        assert woke == sorted(woke)
        assert clock.now() == woke[-1]

    def test_time_never_runs_ahead_of_a_deep_await_chain(self):
        """Causality: everything a 5 s wakeup sets off -- here 30 nested
        awaits, each behind a freshly spawned task -- settles before the
        120 s sleeper resolves.  (A fixed budget of settling yields per
        wakeup, as the old driver had, fails this.)"""
        clock = SimulatedClock()
        trail = []

        async def nested(depth):
            if depth:
                await asyncio.ensure_future(nested(depth - 1))
            trail.append((depth, clock.now()))

        async def early():
            await clock.sleep(5.0)
            await nested(30)

        async def late():
            await clock.sleep(120.0)
            trail.append(("late", clock.now()))

        async def scenario():
            await asyncio.gather(late(), early())

        drive(clock, scenario())
        assert trail == [(d, 5.0) for d in range(31)] + [("late", 120.0)]

    def test_nonpositive_sleep_yields_without_parking(self):
        clock = SimulatedClock()

        async def scenario():
            await clock.sleep(0.0)
            await clock.sleep(-1.0)
            return clock.pending_sleepers

        assert drive(clock, scenario()) == 0
        assert clock.now() == 0.0

    def test_won_timeout_races_do_not_pile_up_on_the_heap(self):
        """A cancelled race timer is dropped once time reaches it, so the
        heap holds one timeout horizon of them, not one per delivery."""
        clock = SimulatedClock()
        deepest = 0

        async def prompt_sink(_delivery):
            await clock.sleep(1.0)

        guarded = GuardedSink(
            prompt_sink,
            clock=clock,
            rng=random.Random(7),
            policy=SinkPolicy(timeout_seconds=5.0),
        )

        async def scenario():
            nonlocal deepest
            for i in range(1_000):
                assert await guarded.deliver(delivery(i))
                deepest = max(deepest, len(clock._sleepers))

        drive(clock, scenario())
        assert guarded.stats.timeouts == 0
        assert clock.now() == 1_000.0
        assert deepest <= 8
        assert clock.pending_sleepers == 0

    def test_drive_runs_chained_sleeps_to_completion(self):
        clock = SimulatedClock()

        async def chained():
            for _ in range(10):
                await clock.sleep(7.0)
            return clock.now()

        assert drive(clock, chained()) == 70.0

    def test_drive_detects_a_genuine_deadlock(self):
        clock = SimulatedClock()
        cancelled = []

        async def stuck():
            try:
                await asyncio.get_running_loop().create_future()
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        with pytest.raises(ClockStalled, match="stalled"):
            clock.run(stuck())
        assert isinstance(ClockStalled("x"), RuntimeError)
        assert cancelled == [True]  # the stuck session is torn down, not leaked

    def test_a_stall_behind_cancelled_sleepers_is_still_a_stall(self):
        clock = SimulatedClock()

        async def stuck():
            timer = asyncio.ensure_future(clock.sleep(5.0))
            await asyncio.sleep(0)
            timer.cancel()
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ClockStalled):
            clock.run(stuck())
        assert clock.now() == 0.0

    def test_a_nan_duration_is_rejected_before_it_reaches_the_heap(self):
        """NaN passes ``seconds <= 0``, breaks the heap order and, once
        fired, becomes ``now``: virtual time then runs backwards."""
        clock = SimulatedClock()

        async def scenario():
            with pytest.raises(ValueError, match="NaN"):
                await clock.sleep(float("nan"))
            with pytest.raises(ValueError, match="NaN"):
                clock.timeout(float("nan"))
            await clock.sleep(1.0)
            return len(clock._sleepers)

        assert drive(clock, scenario()) == 0
        assert clock.now() == 1.0

        async def live():
            with pytest.raises(ValueError, match="NaN"):
                await MonotonicClock().sleep(float("nan"))
            with pytest.raises(ValueError, match="NaN"):
                MonotonicClock().timeout(float("nan"))

        asyncio.run(live())

    @pytest.mark.parametrize("clock_type", [SimulatedClock, MonotonicClock])
    def test_a_deadline_needs_a_running_task_to_cancel(self, clock_type):
        with pytest.raises(RuntimeError):
            clock_type().timeout(1.0)


class TestDeadlineScope:
    """``with clock.timeout(seconds) as scope:`` (``TestGuardedSink`` has
    the sink-level cases, the live clock among them)."""

    def test_fires_at_the_deadline_exactly(self):
        clock = SimulatedClock(start=3.0)

        async def scenario():
            with pytest.raises(TimeoutError):
                with clock.timeout(5.0) as scope:
                    await clock.sleep(60.0)
            # Python >= 3.11 counts cancel requests: ours must be taken back.
            cancelling = getattr(asyncio.current_task(), "cancelling", lambda: 0)()
            return scope.expired, clock.now(), cancelling

        assert drive(clock, scenario()) == (True, 8.0, 0)

    def test_a_block_that_finishes_first_leaves_no_live_sleeper(self):
        clock = SimulatedClock()

        async def scenario():
            with clock.timeout(5.0) as scope:
                await clock.sleep(1.0)
            parked = clock.pending_sleepers
            await clock.sleep(30.0)  # well past the disarmed deadline
            return scope.expired, parked

        assert drive(clock, scenario()) == (False, 0)
        assert clock.now() == 31.0

    def test_an_outside_cancel_propagates(self):
        clock = SimulatedClock()
        seen = []

        async def guarded_block():
            try:
                with clock.timeout(5.0) as scope:
                    seen.append(scope)
                    await clock.sleep(60.0)
            except BaseException as error:
                seen.append(type(error))
                raise

        async def scenario():
            task = asyncio.ensure_future(guarded_block())
            await clock.sleep(1.0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return task.cancelled()

        assert drive(clock, scenario())
        assert seen[1] is asyncio.CancelledError
        assert not seen[0].expired
        assert clock.pending_sleepers == 0

    def test_equal_deadlines_fire_in_arming_order(self):
        clock = SimulatedClock()
        order = []

        async def block(label):
            try:
                with clock.timeout(4.0):
                    await clock.sleep(60.0)
            except TimeoutError:
                order.append((label, clock.now()))

        async def scenario():
            await asyncio.gather(*(block(label) for label in range(8)))

        drive(clock, scenario())
        assert order == [(label, 4.0) for label in range(8)]


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, capacity=3.0, now=0.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_lazily_and_caps_at_capacity(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0, now=0.0)
        for _ in range(4):
            assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.5)  # 0.5s x 2/s = 1 token back
        assert bucket.available(1_000.0) == 4.0  # never above capacity

    def test_peek_consumes_nothing(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0, now=0.0)
        assert bucket.peek(0.0)
        assert bucket.peek(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.peek(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError, match="capacity"):
            TokenBucket(rate=1.0, capacity=0.5)


class TestTieredRateLimiter:
    def test_disabled_config_admits_everything(self):
        limiter = TieredRateLimiter(RateLimitConfig())
        for i in range(1_000):
            assert limiter.allow(0.0, i % 3, ContentKind.FRIEND_FEED).allowed
        assert sum(limiter.denials.values()) == 0

    def test_denial_names_the_tier(self):
        limiter = TieredRateLimiter(
            RateLimitConfig(per_user_rate=1.0, per_user_burst=2.0), now=0.0
        )
        assert limiter.allow(0.0, 1, ContentKind.FRIEND_FEED).allowed
        assert limiter.allow(0.0, 1, ContentKind.FRIEND_FEED).allowed
        denied = limiter.allow(0.0, 1, ContentKind.FRIEND_FEED)
        assert not denied.allowed
        assert denied.tier == "user"
        assert limiter.denials == {"global": 0, "user": 1, "topic": 0}
        # Another user has their own bucket.
        assert limiter.allow(0.0, 2, ContentKind.FRIEND_FEED).allowed

    def test_denied_admission_leaks_no_tokens_from_other_tiers(self):
        config = RateLimitConfig(
            global_rate=10.0,
            global_burst=5.0,
            per_user_rate=1.0,
            per_user_burst=1.0,
        )
        limiter = TieredRateLimiter(config, now=0.0)
        assert limiter.allow(0.0, 1, ContentKind.FRIEND_FEED).allowed
        # User 1's bucket is empty; the global bucket must not pay for
        # the denied attempts.
        for _ in range(3):
            assert limiter.allow(0.0, 1, ContentKind.FRIEND_FEED).tier == "user"
        # 5 - 1 consumed = 4 global tokens remain for other users.
        for user_id in (2, 3, 4, 5):
            assert limiter.allow(0.0, user_id, ContentKind.FRIEND_FEED).allowed
        assert limiter.allow(0.0, 6, ContentKind.FRIEND_FEED).tier == "global"

    def test_topic_tier_isolates_kinds(self):
        limiter = TieredRateLimiter(
            RateLimitConfig(per_topic_rate=1.0, per_topic_burst=1.0), now=0.0
        )
        assert limiter.allow(0.0, 1, ContentKind.ALBUM_RELEASE).allowed
        assert limiter.allow(0.0, 2, ContentKind.ALBUM_RELEASE).tier == "topic"
        assert limiter.allow(0.0, 3, ContentKind.FRIEND_FEED).allowed

    def test_rate_config_validation(self):
        with pytest.raises(ValueError, match="global_rate"):
            RateLimitConfig(global_rate=0.0)
        with pytest.raises(ValueError, match="per_user_burst"):
            RateLimitConfig(per_user_burst=0.0)


class TestBoundedQueues:
    def test_push_refuses_at_bound_without_dropping(self):
        queue = BoundedUserQueue(user_id=1, bound=2)
        assert queue.push(event(0))
        assert queue.push(event(1))
        assert not queue.push(event(2))
        assert len(queue) == 2
        assert queue.high_water == 2
        drained = queue.drain()
        assert [e.item.item_id for e in drained] == [0, 1]  # FIFO
        assert len(queue) == 0
        assert queue.high_water == 2  # survives the drain

    def test_frontier_tracks_window_peak_across_drains(self):
        frontier = IngestFrontier(queue_bound=4)
        frontier.register(1)
        frontier.register(2)
        for i in range(3):
            assert frontier.offer(event(i, user_id=1))
        frontier.drain(1)
        assert frontier.total_depth() == 0
        # The tick still sees the burst that came and went.
        assert frontier.take_window_peak() == 3
        assert frontier.take_window_peak() == 0  # window reset

    def test_running_depth_matches_the_queues_under_random_traffic(self):
        """The O(1) depth counter against the sum it replaced, through
        offers, drains and pushes made on a registered queue directly."""
        rng = random.Random(11)
        frontier = IngestFrontier(queue_bound=3)
        queues = {user: frontier.register(user) for user in range(5)}
        model_peak = 0  # the window peak as the per-event re-sum computed it

        def depth():
            return sum(len(queue) for queue in queues.values())

        for i in range(2_000):
            user = rng.randrange(5)
            action = rng.random()
            if action < 0.55:
                if frontier.offer(event(i, user_id=user)):
                    model_peak = max(model_peak, depth())
            elif action < 0.70:
                queues[user].push(event(i, user_id=user))
            elif action < 0.90:
                drained = frontier.drain(user)
                assert [e.item.user_id for e in drained] == [user] * len(drained)
            else:
                assert frontier.take_window_peak() == max(model_peak, depth())
                model_peak = depth()
            assert frontier.total_depth() == depth()
            assert frontier.depth(user) == len(queues[user])
        assert frontier.high_water() == 3

    def test_occupancy_is_depth_over_aggregate_capacity(self):
        frontier = IngestFrontier(queue_bound=4)
        frontier.register(1)
        frontier.register(2)
        assert frontier.occupancy_of(4) == 0.5
        assert frontier.occupancy_of(9_999) == 1.0

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="bound"):
            BoundedUserQueue(user_id=1, bound=0)
        with pytest.raises(ValueError, match="bound"):
            IngestFrontier(queue_bound=0)


class TestDegradationLadder:
    def test_escalates_immediately_and_recovers_one_rung_per_tick(self):
        controller = DegradationController(DegradationConfig())
        assert controller.update(0.0, occupancy=0.95) is PressureLevel.SHED
        # Pressure gone; recovery still walks down one rung at a time.
        assert controller.update(1.0, occupancy=0.0) is PressureLevel.DEFER
        assert controller.update(2.0, occupancy=0.0) is PressureLevel.REDUCE_RICH
        assert controller.update(3.0, occupancy=0.0) is PressureLevel.NORMAL
        assert controller.max_level is PressureLevel.SHED
        assert [level for _, level in controller.transitions] == [
            PressureLevel.SHED,
            PressureLevel.DEFER,
            PressureLevel.REDUCE_RICH,
            PressureLevel.NORMAL,
        ]

    def test_hysteresis_blocks_recovery_near_the_threshold(self):
        config = DegradationConfig(reduce_at=0.5, recover_margin=0.1)
        controller = DegradationController(config)
        controller.update(0.0, occupancy=0.6)
        assert controller.level is PressureLevel.REDUCE_RICH
        # Just under the entry threshold but inside the margin: hold.
        controller.update(1.0, occupancy=0.45)
        assert controller.level is PressureLevel.REDUCE_RICH
        controller.update(2.0, occupancy=0.39)
        assert controller.level is PressureLevel.NORMAL

    def test_open_breakers_add_pressure(self):
        controller = DegradationController(DegradationConfig(breaker_weight=0.5))
        level = controller.update(0.0, occupancy=0.3, breaker_open_fraction=1.0)
        assert controller.pressure == pytest.approx(0.8)
        assert level is PressureLevel.DEFER

    def test_level_cap_applies_from_reduce_rich_up(self):
        controller = DegradationController(DegradationConfig(rich_level_cap=1))
        assert controller.level_cap() is None
        controller.update(0.0, occupancy=0.6)
        assert controller.level_cap() == 1
        assert not controller.defers_ingest
        controller.update(1.0, occupancy=0.8)
        assert controller.defers_ingest
        assert not controller.sheds_ingest
        controller.update(2.0, occupancy=0.95)
        assert controller.sheds_ingest

    def test_config_validation(self):
        with pytest.raises(ValueError, match="reduce_at"):
            DegradationConfig(reduce_at=0.9, defer_at=0.5)
        with pytest.raises(ValueError, match="recover_margin"):
            DegradationConfig(recover_margin=0.6)


class TestRoundTimers:
    def test_stagger_is_deterministic_and_within_one_period(self):
        first = RoundTimers(60.0, seed=5)
        second = RoundTimers(60.0, seed=5)
        for user_id in range(10):
            a = first.register(user_id, now=0.0)
            b = second.register(user_id, now=0.0)
            assert a == b
            assert 0.0 < a <= 60.0
        assert RoundTimers(60.0, seed=6).register(0, 0.0) != first._heap[0][0]

    def test_each_user_fires_exactly_rounds_times(self):
        timers = RoundTimers(10.0, seed=1)
        for user_id in range(4):
            timers.register(user_id, now=0.0)
        fired: dict[int, int] = {}
        now = timers.next_deadline()
        while now is not None and now <= 30.0 + 1e-9:
            for user_id in timers.due(now):
                fired[user_id] = fired.get(user_id, 0) + 1
            now = timers.next_deadline()
        assert fired == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_reregistration_rejected(self):
        timers = RoundTimers(10.0)
        timers.register(1, now=0.0)
        with pytest.raises(ValueError, match="already"):
            timers.register(1, now=0.0)


class TestGuardedSink:
    def _guarded(self, sink, clock, policy=None, breaker=None):
        return GuardedSink(
            sink,
            clock=clock,
            rng=random.Random(11),
            policy=policy or SinkPolicy(),
            breaker=breaker,
        )

    def test_sync_sink_delivers(self):
        clock = SimulatedClock()
        seen = []
        guarded = self._guarded(seen.append, clock)
        assert drive(clock, guarded.deliver(delivery()))
        assert len(seen) == 1
        assert guarded.stats.delivered == 1

    def test_failures_retry_with_backoff_then_exhaust(self):
        clock = SimulatedClock()

        def bad(_delivery):
            raise RuntimeError("push channel down")

        policy = SinkPolicy(max_attempts=3, base_backoff_seconds=1.0)
        guarded = self._guarded(
            bad,
            clock,
            policy=policy,
            breaker=CircuitBreakerConfig(failure_threshold=10),
        )
        assert drive(clock, guarded.deliver(delivery())) is False
        assert guarded.stats.attempts == 3
        assert guarded.stats.failures == 3
        assert guarded.stats.retries == 2
        assert guarded.stats.exhausted == 1
        assert clock.now() > 0.0  # jittered backoff elapsed on the clock

    def test_stalled_sink_times_out_on_the_service_clock(self):
        clock = SimulatedClock()

        async def stalled(_delivery):
            await clock.sleep(120.0)

        policy = SinkPolicy(timeout_seconds=5.0, max_attempts=2)
        guarded = self._guarded(
            stalled,
            clock,
            policy=policy,
            breaker=CircuitBreakerConfig(failure_threshold=10),
        )
        assert drive(clock, guarded.deliver(delivery())) is False
        assert guarded.stats.timeouts == 2
        # Two 5s timeout windows elapsed (plus jittered backoff), not 240s.
        assert 10.0 <= clock.now() < 120.0

    def test_breaker_opens_and_fails_fast(self):
        clock = SimulatedClock()
        calls = []

        def bad(_delivery):
            calls.append(clock.now())
            raise RuntimeError("down")

        guarded = self._guarded(
            bad,
            clock,
            policy=SinkPolicy(max_attempts=1),
            breaker=CircuitBreakerConfig(failure_threshold=2, cooldown_skips=4),
        )

        async def scenario():
            results = []
            for _ in range(4):
                results.append(await guarded.deliver(delivery()))
            return results

        assert drive(clock, scenario()) == [False, False, False, False]
        assert guarded.breaker_state is BreakerState.OPEN
        # Third and fourth deliveries were refused without touching the sink.
        assert len(calls) == 2
        assert guarded.stats.breaker_skips == 2

    def test_half_open_admits_one_probe_across_concurrent_deliveries(self):
        """The async regression the breaker latch exists for: two
        deliveries racing a half-open breaker must produce one probe."""
        clock = SimulatedClock()
        attempts = []

        async def recovering(d):
            attempts.append(d.item.item_id)
            if len(attempts) == 1:
                raise RuntimeError("first call fails")
            await clock.sleep(1.0)  # hold the probe in flight

        guarded = self._guarded(
            recovering,
            clock,
            policy=SinkPolicy(max_attempts=1, timeout_seconds=30.0),
            breaker=CircuitBreakerConfig(failure_threshold=1, cooldown_skips=1),
        )

        async def scenario():
            first = await guarded.deliver(delivery(0))
            skipped = await guarded.deliver(delivery(9))  # cooldown window
            racing = [
                asyncio.ensure_future(guarded.deliver(delivery(1))),
                asyncio.ensure_future(guarded.deliver(delivery(2))),
            ]
            return first, skipped, await asyncio.gather(*racing)

        first, skipped, raced = drive(clock, scenario())
        assert first is False  # opened the breaker
        assert skipped is False  # refused during cooldown
        # Exactly one of the racers was the probe; the other was refused.
        assert sorted(raced) == [False, True]
        assert len(attempts) == 2  # opener + single probe
        assert guarded.stats.breaker_skips == 2  # cooldown + latch refusal
        assert guarded.breaker_state is BreakerState.CLOSED


    def test_the_sinks_own_timeout_error_is_an_ordinary_failure(self):
        clock = SimulatedClock()

        async def refuses(_delivery):
            await clock.sleep(1.0)
            raise TimeoutError("upstream gateway timed out")

        guarded = self._guarded(refuses, clock, policy=SinkPolicy(max_attempts=1))
        assert drive(clock, guarded.deliver(delivery())) is False
        assert guarded.stats.failures == 1
        assert guarded.stats.timeouts == 0

    def test_a_sink_that_swallows_its_cancellation_still_timed_out(self):
        clock = SimulatedClock()

        async def stubborn(_delivery):
            try:
                await clock.sleep(120.0)
            except asyncio.CancelledError:
                pass  # "the timer wins" whatever the sink does with it

        policy = SinkPolicy(timeout_seconds=5.0, max_attempts=1)
        guarded = self._guarded(stubborn, clock, policy=policy)
        assert drive(clock, guarded.deliver(delivery())) is False
        assert guarded.stats.timeouts == 1
        assert clock.now() == 5.0

    def test_a_sync_sink_arms_nothing(self):
        clock = SimulatedClock()
        guarded = self._guarded(lambda _delivery: None, clock)

        async def scenario():
            for i in range(50):
                assert await guarded.deliver(delivery(i))
            return len(clock._sleepers)

        assert drive(clock, scenario()) == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout_seconds", float("nan")),
            ("timeout_seconds", float("inf")),
            ("base_backoff_seconds", float("nan")),
            ("max_backoff_seconds", float("nan")),
            ("base_backoff_seconds", float("inf")),
            ("max_backoff_seconds", float("inf")),
        ],
    )
    def test_a_policy_refuses_nan_and_unbounded_durations_by_name(self, field, value):
        """A NaN timeout used to fail every attempt inside the clock (the
        breaker opened, nothing was delivered); an infinite one let a sink
        that never returns hold the half-open probe latch, shutting that
        sink for the rest of the run; a NaN backoff crashed the scheduler
        at the first retry."""
        with pytest.raises(ValueError, match=field):
            SinkPolicy(**{field: value})

    def test_a_nan_stall_is_refused_by_name(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            FlakySink(SimulatedClock(), random.Random(1), stall_seconds=float("nan"))
        with pytest.raises(ValueError, match="sink_stall_seconds"):
            DemoConfig(sink_stall_seconds=float("nan"))

    def test_guarded_sink_on_the_live_clock(self):
        """A stalled sink is cut off by ``loop.call_later`` deadlines in
        real time; nothing is left armed for the healthy one after it."""
        clock = MonotonicClock()
        policy = SinkPolicy(
            timeout_seconds=0.05,
            max_attempts=2,
            base_backoff_seconds=0.0,
            max_backoff_seconds=0.0,
        )
        seen = []

        async def stalled(_delivery):
            await asyncio.sleep(5)

        async def healthy(d):
            await asyncio.sleep(0)
            seen.append(d)

        async def scenario():
            stuck = self._guarded(stalled, clock, policy=policy)
            fine = self._guarded(healthy, clock, policy=policy)
            started = time.monotonic()
            assert await stuck.deliver(delivery(0)) is False
            assert await fine.deliver(delivery(1)) is True
            await asyncio.sleep(0.1)  # a leaked deadline would cancel us here
            return stuck.stats, fine.stats, time.monotonic() - started

        stuck, fine, elapsed = asyncio.run(scenario())
        assert (stuck.attempts, stuck.timeouts, stuck.exhausted) == (2, 2, 1)
        assert (fine.delivered, fine.timeouts, len(seen)) == (1, 0, 1)
        assert 0.1 <= elapsed < 1.0


class TestRoundLoopHooks:
    def test_level_cap_limits_selected_presentation_levels(self):
        capped = make_loop()
        free = make_loop()
        for loop in (capped, free):
            for i in range(4):
                loop.enqueue(item(i, utility=0.9))
        capped.level_cap = 1
        capped_result = capped.run_round(60.0, 60.0)
        free_result = free.run_round(60.0, 60.0)
        assert capped_result.deliveries, "expected deliveries on open WiFi"
        assert all(d.level <= 1 for d in capped_result.deliveries)
        # The cap binds: without it the same queue picks richer levels.
        assert max(d.level for d in free_result.deliveries) > 1


class TestServiceAdmission:
    def _service(self, config=None, users=(1, 2)):
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=make_loop,
            user_ids=list(users),
            config=config or ServiceConfig(queue_bound=2),
            clock=clock,
        )
        return service, clock

    def _ingest(self, service, *items):
        async def scenario():
            return [await service.ingest(it) for it in items]

        return asyncio.run(scenario())

    def test_admits_until_the_bound_then_sheds_explicitly(self):
        service, _ = self._service()
        results = self._ingest(
            service, item(0), item(1), item(2), item(3, user_id=2)
        )
        assert [r.outcome for r in results] == [
            Admission.ADMITTED,
            Admission.ADMITTED,
            Admission.SHED_QUEUE_FULL,
            Admission.ADMITTED,
        ]
        overload = results[2]
        assert overload.overload and not overload.admitted
        assert overload.queue_depth == 2
        assert "bound 2" in overload.detail
        assert service.accounting()["error"] == 0

    def test_rate_limited_ingest_is_an_explicit_overload(self):
        config = ServiceConfig(
            queue_bound=8,
            rate=RateLimitConfig(per_user_rate=1.0, per_user_burst=1.0),
        )
        service, _ = self._service(config=config)
        results = self._ingest(service, item(0), item(1))
        assert results[0].admitted
        assert results[1].outcome is Admission.SHED_RATE_LIMITED
        assert "user" in results[1].detail
        assert service.stats.shed_rate_limited == 1
        assert service.accounting()["error"] == 0

    def test_shed_and_defer_follow_the_ladder(self):
        service, _ = self._service(config=ServiceConfig(queue_bound=4))
        service.controller.update(0.0, occupancy=0.8)  # DEFER
        deferred = self._ingest(service, item(0))[0]
        assert deferred.outcome is Admission.DEFERRED
        assert service.deferred_pending == 1
        service.controller.update(1.0, occupancy=0.95)  # SHED
        shed = self._ingest(service, item(1))[0]
        assert shed.outcome is Admission.SHED_OVERLOAD
        assert service.accounting()["error"] == 0

    def test_service_requires_users_and_single_run(self):
        with pytest.raises(ValueError, match="at least one user"):
            NotificationService(loop_factory=make_loop, user_ids=[])
        service, clock = self._service()

        async def run_twice():
            await service.run(rounds=1)
            await service.run(rounds=1)

        with pytest.raises(RuntimeError, match="already ran"):
            drive(clock, run_twice())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="round_seconds"):
            ServiceConfig(round_seconds=0.0)
        with pytest.raises(ValueError, match="queue_bound"):
            ServiceConfig(queue_bound=0)

    @pytest.mark.parametrize("round_seconds", [float("nan"), float("inf")])
    def test_non_finite_round_seconds_are_refused(self, round_seconds):
        with pytest.raises(ValueError, match="round_seconds"):
            ServiceConfig(round_seconds=round_seconds)


class TestServiceRuns:
    def test_sinkless_run_delivers_and_conserves(self):
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=make_loop,
            user_ids=[1, 2],
            config=ServiceConfig(round_seconds=60.0, queue_bound=8, seed=3),
            clock=clock,
        )

        async def scenario():
            run_task = asyncio.ensure_future(service.run(rounds=2))
            for i in range(4):
                await service.ingest(item(i, user_id=1 + i % 2))
            await run_task

        drive(clock, scenario())
        accounting = service.accounting()
        assert accounting["ingested"] == 4
        assert accounting["error"] == 0
        assert accounting["delivered"] + accounting["pending"] == 4
        assert service.stats.rounds_run == 4  # 2 users x 2 rounds
        assert service.controller.level < PressureLevel.SHED

    def test_deferred_events_readmit_when_pressure_clears(self):
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=make_loop,
            user_ids=[1],
            config=ServiceConfig(round_seconds=60.0, queue_bound=8, seed=3),
            clock=clock,
        )
        service.controller.update(0.0, occupancy=0.8)  # start at DEFER

        async def scenario():
            run_task = asyncio.ensure_future(service.run(rounds=2))
            for i in range(3):
                await service.ingest(item(i))
            await run_task

        drive(clock, scenario())
        # Pressure cleared on the first tick; the parked events flowed
        # back through _admit and on to delivery.
        assert service.stats.deferred_total == 3
        assert service.stats.readmitted == 3
        assert service.deferred_pending == 0
        assert service.accounting()["error"] == 0
        assert service.stats.delivered + service.accounting()["pending"] == 3


    def test_two_sinks_fan_out_and_one_dead_sink_loses_nothing(self):
        """Every delivery goes to both sinks; one healthy sink is enough."""
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=make_loop,
            user_ids=[1, 2, 3],
            config=ServiceConfig(round_seconds=60.0, queue_bound=16, seed=3),
            clock=clock,
        )
        received = []

        async def healthy(d):
            await clock.sleep(0.5)
            received.append(d.item.item_id)

        def dead(_delivery):
            raise SinkFault("gateway down")

        good = service.add_sink(healthy, name="inapp")
        bad = service.add_sink(dead, name="push")

        async def scenario():
            run_task = asyncio.ensure_future(service.run(rounds=4))
            for i in range(36):
                await clock.sleep(5.0)
                await service.ingest(item(i, user_id=1 + i % 3, created_at=clock.now()))
            await run_task

        drive(clock, scenario())
        accounting = service.accounting()
        assert accounting["error"] == 0
        assert "sink_exhausted" not in accounting["dead_letter_reasons"]
        assert sorted(received) == list(range(36)) and accounting["delivered"] == 36
        assert good.stats.attempts > 0 and bad.stats.attempts > 0
        assert bad.stats.delivered == 0 and bad.stats.breaker_skips > 0
        assert bad.breaker_state is not BreakerState.CLOSED
        assert good.breaker_state is BreakerState.CLOSED
        assert good.stats.breaker_transitions == 0


@pytest.mark.chaos
class TestFlashCrowdChaos:
    """The tentpole acceptance gate, on the deterministic clock."""

    @pytest.fixture(scope="class")
    def run(self):
        return run_demo(DemoConfig(users=12, rounds=12))

    def test_conservation_is_exact(self, run):
        accounting = run.service.accounting()
        assert accounting["error"] == 0
        assert accounting["ingested"] == len(run.ingest_results)
        total = (
            accounting["delivered"]
            + accounting["shed"]
            + accounting["dead_lettered"]
            + accounting["deferred_pending"]
            + accounting["pending"]
        )
        assert total == accounting["ingested"]

    @pytest.mark.parametrize(
        "seed, accounting, p50, p99",
        [
            (
                23,
                {
                    "ingested": 1670, "delivered": 490, "shed": 1070,
                    "shed_queue_full": 731, "shed_rate_limited": 0,
                    "shed_overload": 339, "deferred_total": 311,
                    "deferred_pending": 0, "readmitted": 311,
                    "dead_lettered": 12,
                    "dead_letter_reasons": {"sink_exhausted": 12},
                    "pending": 98, "error": 0,
                },
                60.89467883983605,
                197.4969843992847,
            ),
            (
                97,
                {
                    "ingested": 1770, "delivered": 320, "shed": 1116,
                    "shed_queue_full": 785, "shed_rate_limited": 0,
                    "shed_overload": 331, "deferred_total": 531,
                    "deferred_pending": 147, "readmitted": 384,
                    "dead_lettered": 22,
                    "dead_letter_reasons": {"sink_exhausted": 22},
                    "pending": 165, "error": 0,
                },
                57.487329061201336,
                207.66825342240205,
            ),
        ],
    )
    def test_sessions_replay_the_values_of_the_polling_clock(
        self, seed, accounting, p50, p99
    ):
        """Recorded from the commit before the quiescence-driven clock:
        how virtual time is advanced must not change a single outcome."""
        service = run_demo(DemoConfig(users=16, rounds=6, seed=seed)).service
        assert service.accounting() == accounting
        assert service.stats.latency_quantile(0.50) == p50
        assert service.stats.latency_quantile(0.99) == p99
        assert service.loop_backlog() == sum(
            service.loop_for(user).pending_items for user in range(16)
        )

    def test_queues_never_exceed_their_bound(self, run):
        bound = run.service.config.queue_bound
        assert run.service.frontier.high_water() <= bound
        assert run.service.frontier.high_water() > 0

    def test_overloads_are_explicit_results(self, run):
        by_outcome: dict[Admission, int] = {}
        for result in run.ingest_results:
            by_outcome[result.outcome] = by_outcome.get(result.outcome, 0) + 1
        stats = run.service.stats
        assert len(run.ingest_results) == stats.ingested
        assert (
            by_outcome.get(Admission.SHED_RATE_LIMITED, 0)
            == stats.shed_rate_limited
        )
        assert by_outcome.get(Admission.SHED_OVERLOAD, 0) == stats.shed_overload
        assert by_outcome.get(Admission.DEFERRED, 0) == stats.deferred_total
        # Readmitted deferrals re-enter through _admit without surfacing a
        # second IngestResult, so admitted/shed_queue_full only balance
        # once the readmission flow is folded back in.
        assert stats.admitted + stats.shed_queue_full == (
            by_outcome.get(Admission.ADMITTED, 0)
            + by_outcome.get(Admission.SHED_QUEUE_FULL, 0)
            + stats.readmitted
        )
        assert stats.readmitted == (
            stats.deferred_total - run.service.deferred_pending
        )
        # The flash crowd actually overflowed something.
        assert stats.shed > 0
        assert any(r.overload for r in run.ingest_results)

    def test_ladder_escalates_and_recovers(self, run):
        controller = run.service.controller
        assert controller.max_level >= PressureLevel.DEFER
        assert controller.level is PressureLevel.NORMAL  # recovered
        assert len(controller.transitions) >= 2
        assert run.service.stats.readmitted > 0

    def test_latency_is_bounded_under_overload(self, run):
        stats = run.service.stats
        assert stats.delivered > 0
        p50 = stats.latency_quantile(0.5)
        p99 = stats.latency_quantile(0.99)
        assert 0.0 < p50 <= p99
        # Bounded queues + TTL dead-lettering keep the tail under the
        # run's TTL; unbounded queueing would blow far past it.
        assert p99 <= DemoConfig().ttl_seconds

    def test_quiet_scenario_never_degrades(self):
        """Without the crowd the ladder stays NORMAL and nothing is shed."""
        config = DemoConfig(
            users=6,
            rounds=4,
            chaos="none",
            p_outage=0.0,
            flash_crowd=FlashCrowdConfig(
                n_users=6,
                duration_seconds=4 * 60.0,
                base_rate=0.5,
                crowd_multiplier=1.0,
            ),
        )
        service = run_demo(config).service
        assert service.controller.max_level is PressureLevel.NORMAL
        assert service.accounting()["error"] == 0
        assert service.stats.shed_queue_full == 0


    def test_an_always_failing_sink_is_a_valid_demo(self, capsys):
        """``--sink-fail 1.0`` used to die in ``FlakySink.__init__``: the
        default stall share no longer fitted beside it."""
        from repro.cli import main

        assert main(["serve", "--sink-fail", "1.0", "--users", "4", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "delivered=0 " in out and "conservation error: 0" in out
        service = run_demo(DemoConfig(users=4, rounds=2, seed=97, sink_fail=1.0)).service
        push = service.sinks[0]
        assert push.stats.delivered == 0 and push.stats.breaker_skips > 0
        assert push.breaker_state is not BreakerState.CLOSED
        with pytest.raises(SystemExit) as usage:
            main(["serve", "--sink-fail", "2"])
        assert usage.value.code == 2
        assert "not a probability" in capsys.readouterr().err
        for field in ("sink_fail", "sink_stall", "p_outage"):
            with pytest.raises(ValueError, match=field):
                DemoConfig(**{field: 1.5})


class TestEgressPass:
    """A tick's first attempts run inline in one egress task; a call that
    suspends continues in a task of its own, under its own deadline."""

    def _service(self, clock):
        return NotificationService(
            loop_factory=make_loop,
            user_ids=[1, 2, 3, 4],
            config=ServiceConfig(round_seconds=60.0, queue_bound=16, seed=3),
            clock=clock,
        )

    def test_a_first_attempt_stalled_past_its_deadline_times_out_alone(self):
        """The deadline cancels the stalled call's continuation -- not the
        scheduler, not the egress pass -- and nothing else of its tick."""
        clock = SimulatedClock()
        service = self._service(clock)
        cancelled = []

        async def sometimes_stuck(d):
            if d.item.item_id % 3 == 0:
                try:
                    await clock.sleep(120.0)
                except asyncio.CancelledError:
                    cancelled.append(d.item.item_id)
                    raise

        guarded = service.add_sink(
            sometimes_stuck,
            policy=SinkPolicy(timeout_seconds=5.0, max_attempts=1),
            breaker=CircuitBreakerConfig(failure_threshold=1_000),
        )

        async def scenario():
            run_task = asyncio.ensure_future(service.run(rounds=3))
            for i in range(24):
                await service.ingest(item(i, user_id=1 + i % 4))
            await run_task

        drive(clock, scenario())
        stalls = list(range(0, 24, 3))
        assert service.stats.rounds_run == 4 * 3
        assert sorted(cancelled) == stalls
        assert guarded.stats.timeouts == len(stalls)
        assert service.stats.dead_letter_reasons == {"sink_exhausted": len(stalls)}
        assert service.stats.delivered == 24 - len(stalls)
        assert service.accounting()["error"] == 0

    def test_a_delivery_suspended_in_the_last_tick_settles_before_run_returns(self):
        clock = SimulatedClock()
        service = self._service(clock)

        async def slow(_delivery):
            await clock.sleep(1.0)

        service.add_sink(slow)

        async def scenario():
            run_task = asyncio.ensure_future(service.run(rounds=2))
            for i in range(4):
                await service.ingest(item(i, user_id=1 + i))
            await clock.sleep(60.0)  # past every user's first tick
            for i in range(4, 8):
                await service.ingest(item(i, user_id=1 + i % 4, created_at=clock.now()))
            await run_task
            return asyncio.all_tasks()

        assert len(drive(clock, scenario())) == 1  # the session itself
        assert service._delivery_tasks == []
        assert service.stats.delivered == 8
        assert service.accounting()["error"] == 0


class TestEgressCost:
    """Egress overhead is a count: a task per tick with deliveries and one
    per delivery whose first attempt has to wait; none per attempt."""

    def test_a_session_creates_a_task_per_egress_tick_and_continuation(
        self, monkeypatch
    ):
        from asyncio.base_events import BaseEventLoop

        created = []
        create_task = BaseEventLoop.create_task

        def counting(self, coro, **kwargs):
            created.append(coro)
            return create_task(self, coro, **kwargs)

        egress_ticks = set()
        fire_round = NotificationService._fire_round

        def firing(service, user_id, now):
            deliveries = fire_round(service, user_id, now)
            if deliveries:
                egress_ticks.add(now)
            return deliveries

        waited = []
        start = GuardedSink.start

        def starting(sink, delivery, attempt=1):
            outcome = start(sink, delivery, attempt)
            if attempt == 1 and not isinstance(outcome, bool):
                waited.append(delivery)
            return outcome

        monkeypatch.setattr(BaseEventLoop, "create_task", counting)
        monkeypatch.setattr(NotificationService, "_fire_round", firing)
        monkeypatch.setattr(GuardedSink, "start", starting)
        counts = []
        for _ in range(2):
            for seen in (created, egress_ticks, waited):
                seen.clear()
            service = run_demo(DemoConfig(users=16, rounds=6, seed=97)).service
            reasons = service.stats.dead_letter_reasons
            handed_to_egress = service.stats.delivered + reasons.get("sink_exhausted", 0)
            assert 0 < len(waited) < handed_to_egress
            # + scheduler + session
            assert len(created) == len(egress_ticks) + len(waited) + 2
            counts.append(len(created))
        # 344 when every delivery had a task of its own.
        assert counts == [106, 106]


class TestDeliveryTaskRetention:
    """Regression pin for fire-and-forget egress tasks.

    The tick spawns its egress task, and the egress pass a continuation
    task per call that has to wait, with ``asyncio.ensure_future``; the
    event loop holds only *weak* references to tasks, so if a handle were
    discarded the task could be garbage-collected mid-push and deliveries
    would silently vanish.  Every handle must land in ``_delivery_tasks``
    (reaped each tick, drained at shutdown).
    """

    def test_the_tick_and_its_continuations_retain_their_task_handles(self):
        clock = SimulatedClock()
        service = NotificationService(
            loop_factory=make_loop,
            user_ids=[1],
            config=ServiceConfig(queue_bound=8),
            clock=clock,
        )

        async def slow(_delivery):
            await clock.sleep(1.0)

        service.add_sink(slow)

        async def scenario():
            await service.ingest(item(0, utility=0.9))
            service.timers.register(1, now=0.0)
            service._tick(60.0)
            # The tick's spawn must be retained, not bare ...
            assert len(service._delivery_tasks) == 1
            egress = service._delivery_tasks[0]
            await egress
            # ... and so must the continuation of the call that suspended.
            assert len(service._delivery_tasks) == 2
            assert service._delivery_tasks[0] is egress
            await asyncio.gather(*service._delivery_tasks)
            service._reap_delivery_tasks()
            assert service._delivery_tasks == []

        clock.run(scenario())
        assert service.stats.delivered > 0
        assert service.accounting()["error"] == 0
