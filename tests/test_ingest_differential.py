"""The batched ingest driver against the per-arrival oracle.

``FlashCrowdScenario.drive`` ingests every arrival due before the clock's
next live sleeper in one wake, stepping virtual time with
``SimulatedClock.advance_to``; ``tests/reference_ingest.py`` keeps the
driver it replaced, one clock sleep per arrival.  Both must agree to the
last bit on everything a session produces: the ledger, the ordered
latency samples, every ingest result, every sink's counters and received
deliveries, the ladder's transitions, the final virtual time, the
scheduler's ticks and every device's energy -- over the egress
differential's session grid, and over hand-built schedules whose
arrivals land exactly on round deadlines and on stall, timeout and
backoff wakes, several to a timestamp.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import heapq
import random
from collections import Counter

import pytest

from repro.core.content import ContentKind
from repro.service import SimulatedClock, SinkPolicy
from repro.service.chaos import FlakySink, FlashCrowdConfig, FlashCrowdScenario, ScheduledEvent
from repro.service.harness import DemoConfig, build_item_factory, build_loop_factory
from repro.service.server import NotificationService, ServiceConfig

from tests.reference_ingest import PerArrivalScenario
from tests.test_egress_differential import GRID, ROUND, FixedBackoff

USERS, ROUNDS = 8, 5
CROWD = FlashCrowdConfig(
    n_users=USERS, duration_seconds=ROUNDS * ROUND, base_rate=0.25,
    crowd_start=ROUND, crowd_duration=2 * ROUND, crowd_multiplier=8.0,
)


class ProbeClock(SimulatedClock):
    """A simulated clock that notes who parked each sleeper, every wake
    time the loop fired and, for each step it refused, whose sleeper
    stood in the way and whether it was due at the step's time itself."""

    def __init__(self) -> None:
        super().__init__()
        self.parked_by: dict[asyncio.Future, str] = {}
        self.fired: list[tuple[float, str]] = []
        self.steps: Counter = Counter()

    def _park(self, wake, seq):
        future = super()._park(wake, seq)
        coro = asyncio.current_task().get_coro()
        self.parked_by[future] = "round" if coro.__name__ == "run" else coro.__name__
        return future

    def _fire_next(self) -> bool:
        sleepers = self._sleepers
        while sleepers and sleepers[0][2].done():
            heapq.heappop(sleepers)
        if sleepers:
            self.fired.append((sleepers[0][0], self.parked_by[sleepers[0][2]]))
        return super()._fire_next()

    def advance_to(self, t: float) -> bool:
        stepped = super().advance_to(t)
        if stepped:
            self.steps["stepped"] += 1
        else:
            due, _, future = self._sleepers[0]
            kind = "round" if self.parked_by[future] == "round" else "sink"
            self.steps[(kind, "tie" if due == t else "before")] += 1
        return stepped


def replaying(scenario_cls, arrivals):
    """``scenario_cls`` over a fixed schedule instead of its flash crowd."""

    class Replay(scenario_cls):
        def schedule(self):
            return arrivals

    return Replay


def session(scenario_cls, seed, sinks, fail, stall_seconds, policy):
    """``tests/test_egress_differential.py``'s 8-user, 5-round flash crowd,
    driven by ``scenario_cls``; returns the fingerprint and the clock."""
    config = DemoConfig(
        users=USERS, rounds=ROUNDS, seed=seed, round_seconds=ROUND,
        sink_fail=fail, sink_stall=0.3, sink_stall_seconds=stall_seconds,
        flash_crowd=CROWD,
    )
    clock = ProbeClock()
    service = NotificationService(
        loop_factory=build_loop_factory(config),
        user_ids=list(range(USERS)),
        config=ServiceConfig(
            round_seconds=ROUND, queue_bound=8, seed=seed, sink_policy=policy
        ),
        clock=clock,
    )
    received = []
    if sinks >= 1:
        flaky = FlakySink(
            clock=clock, rng=random.Random(seed + 1), p_fail=fail,
            p_stall=min(0.3, 1.0 - fail), stall_seconds=stall_seconds,
        )
        service.add_sink(flaky, name="push")
        received.append(flaky.delivered)
    if sinks >= 2:
        healthy_got = []

        async def healthy(delivery):
            if delivery.item.item_id % 3 == 0:  # a third of its calls suspend
                await clock.sleep(0.5)
            healthy_got.append(delivery)

        service.add_sink(healthy, name="inapp")
        received.append(healthy_got)
    scenario = scenario_cls(
        config.crowd_config(), build_item_factory(config), seed=seed
    )

    async def drive():
        run = asyncio.ensure_future(service.run(rounds=ROUNDS))
        results = await scenario.drive(service, clock)
        await run
        return results

    results = clock.run(drive())
    assert service._delivery_tasks == []
    return (
        service.accounting(),
        list(service.stats.latencies),
        results,
        [dataclasses.asdict(sink.stats) for sink in service.sinks],
        [[d.item.item_id for d in got] for got in received],
        list(service.controller.transitions),
        clock.now(),
        service.stats.ticks,
        [service.loop_for(user).device.stats.energy_spent_joules for user in range(USERS)],
    ), clock


def test_the_batched_driver_replays_the_per_arrival_oracle():
    seen: Counter = Counter()
    for args in GRID:
        ours, clock = session(FlashCrowdScenario, *args)
        oracle, _ = session(PerArrivalScenario, *args)
        assert ours == oracle, args
        seen["sessions"] += 1
        seen["arrivals"] += len(ours[2])
        seen["wakes"] += sum(who == "drive" for _, who in clock.fired)
        seen.update(clock.steps)
    # A grid where the driver never stepped, or never met a round or a
    # sink sleeper between two arrivals, would compare nothing.
    assert seen["sessions"] == len(GRID)
    assert seen["stepped"] >= seen["arrivals"] // 2, seen
    assert seen[("round", "before")] >= 1000, seen
    assert seen[("sink", "before")] >= 1000, seen
    assert seen["wakes"] < seen["arrivals"] // 3, seen


def landing_schedule(args) -> list[ScheduledEvent]:
    """The session's flash crowd plus three arrivals on every round
    deadline (read off a fresh service's timers) and on every wake time a
    round, stall, timeout or backoff sleeper fired at when the crowd ran
    alone."""
    seed = args[0]
    _, clock = session(FlashCrowdScenario, *args)
    timers = copy.deepcopy(
        NotificationService(
            loop_factory=build_loop_factory(DemoConfig(seed=seed)),
            user_ids=list(range(USERS)),
            config=ServiceConfig(round_seconds=ROUND, seed=seed),
        ).timers
    )
    for user in range(USERS):
        timers.register(user, 0.0)
    wakes = {wake for wake, who in clock.fired if who != "drive"}
    while (deadline := timers.next_deadline()) <= ROUNDS * ROUND:
        timers.due(deadline)
        wakes.add(deadline)
    landings = [
        ScheduledEvent(time=wake, user_id=(index + k) % USERS, kind=ContentKind.FRIEND_FEED)
        for index, wake in enumerate(sorted(wakes))
        for k in range(3)
    ]
    crowd = FlashCrowdScenario(CROWD, build_item_factory(DemoConfig(seed=seed)), seed).schedule()
    return sorted(crowd + landings, key=lambda event: event.time)


@pytest.mark.parametrize(
    "args",
    [
        (97, 2, 0.3, 5.0, SinkPolicy(timeout_seconds=5.0)),
        (131, 1, 0.3, ROUND, SinkPolicy(timeout_seconds=ROUND)),
        (23, 2, 0.3, ROUND, FixedBackoff()),
    ],
)
def test_arrivals_on_sleepers_wake_times_keep_the_sleepers_first(args):
    """An arrival due at a sleeper's wake time parked after it, so the
    sleeper fires first: the step onto it is refused, the driver sleeps,
    and its sleep sorts after the sleeper's, as the oracle's always did."""
    arrivals = landing_schedule(args)
    ours, clock = session(replaying(FlashCrowdScenario, arrivals), *args)
    oracle, _ = session(replaying(PerArrivalScenario, arrivals), *args)
    assert ours == oracle
    assert len(ours[2]) == len(arrivals)
    assert clock.steps[("round", "tie")] >= 20, clock.steps
    assert clock.steps[("sink", "tie")] >= 5, clock.steps
    assert clock.steps[("sink", "before")] >= 5, clock.steps
    assert clock.steps["stepped"] >= 20, clock.steps


def test_a_step_lands_on_the_float_a_sleep_parks_at():
    """``now + (t - now)`` is not always ``t``: each step must land where
    the oracle's sleep parks, or an ingest time moves by an ulp."""
    arrivals = [
        ScheduledEvent(time=t, user_id=0, kind=ContentKind.FRIEND_FEED)
        for t in (0.017, 0.162, 0.756, 3.063, 9.653)
    ]

    def ingest_times(scenario_cls):
        clock = SimulatedClock()
        seen = []

        class Recorder:
            def ingest(self, item):
                seen.append(clock.now())

        scenario = replaying(scenario_cls, arrivals)(CROWD, build_item_factory(DemoConfig()))
        clock.run(scenario.drive(Recorder(), clock))
        return seen

    ours = ingest_times(FlashCrowdScenario)
    assert ours == ingest_times(PerArrivalScenario)
    assert ours != [event.time for event in arrivals]
