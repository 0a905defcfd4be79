"""The tick-wide egress pass against the task-per-delivery oracle.

``NotificationService`` admits every (delivery, sink) pair of a tick,
calls the sinks inline in the same order and spawns a task only for a
call that suspends or must retry; ``tests/reference_egress.py`` keeps
the egress it replaced, one ``_push`` task per delivery.  Both must
agree to the last bit on everything a session produces: the ledger, the
ordered latency samples, every sink's counters and received deliveries,
the ladder's transitions, the final virtual time and every ingest
result -- over seeds, sink counts, failure rates, stalls and timeouts
chosen to land on equal wake times (stall == timeout, timeout == round,
stall == round, backoff == round).
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.service import GuardedSink, SimulatedClock, SinkPolicy
from repro.service.chaos import FlakySink, FlashCrowdConfig, FlashCrowdScenario
from repro.service.harness import DemoConfig, build_item_factory, build_loop_factory
from repro.service.server import NotificationService, ServiceConfig

from tests import reference_egress as reference

ROUND = 60.0


@dataclass(frozen=True)
class FixedBackoff(SinkPolicy):
    """Every retry waits exactly one round period."""

    def backoff_seconds(self, failed_attempts, rng):
        return ROUND


def session(service_cls, seed, sinks, fail, stall_seconds, policy):
    """An 8-user, 5-round flash crowd, wired as ``run_demo`` wires it."""
    config = DemoConfig(
        users=8, rounds=5, seed=seed, round_seconds=ROUND,
        sink_fail=fail, sink_stall=0.3, sink_stall_seconds=stall_seconds,
        flash_crowd=FlashCrowdConfig(
            n_users=8, duration_seconds=5 * ROUND, base_rate=0.25,
            crowd_start=ROUND, crowd_duration=2 * ROUND, crowd_multiplier=8.0,
        ),
    )
    clock = SimulatedClock()
    service = service_cls(
        loop_factory=build_loop_factory(config),
        user_ids=list(range(config.users)),
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
    scenario = FlashCrowdScenario(
        config.crowd_config(), build_item_factory(config), seed=seed
    )

    async def drive():
        run = asyncio.ensure_future(service.run(rounds=config.rounds))
        results = await scenario.drive(service, clock)
        await run
        return results

    results = clock.run(drive())
    assert service._delivery_tasks == []
    return (
        service.accounting(),
        list(service.stats.latencies),
        [dataclasses.asdict(sink.stats) for sink in service.sinks],
        [[d.item.item_id for d in got] for got in received],
        list(service.controller.transitions),
        clock.now(),
        results,
    )


GRID = [
    (seed, 0, 0.0, 30.0, SinkPolicy()) for seed in (23, 97, 131)
] + [
    (seed, sinks, fail, stall, SinkPolicy(timeout_seconds=timeout))
    for seed, sinks, fail, stall, timeout in itertools.product(
        (23, 97, 131), (1, 2), (0.1, 0.3, 1.0), (5.0, 30.0, ROUND), (5.0, ROUND)
    )
    if fail < 1.0 or stall == 30.0  # an always-failing sink never stalls
] + [
    (seed, sinks, 0.3, 30.0, FixedBackoff()) for seed in (23, 97, 131) for sinks in (1, 2)
]


def test_the_egress_pass_replays_the_task_per_delivery_oracle():
    seen: Counter = Counter()
    for args in GRID:
        ours = session(NotificationService, *args)
        assert ours == session(reference.ReferenceEgressService, *args), args
        accounting, _, sink_stats, received = ours[:4]
        seen["sessions"] += 1
        seen["sink_exhausted"] += accounting["dead_letter_reasons"].get("sink_exhausted", 0)
        for stats in sink_stats:
            for key in ("timeouts", "retries", "breaker_skips"):
                seen[key] += stats[key]
        if len(received) == 2:
            seen["second_sink_delivered"] += len(received[1])
    # A grid that never timed out, retried, tripped a breaker or gave up
    # would compare nothing.
    for needed, at_least in {
        "sessions": len(GRID),
        "sink_exhausted": 1000,
        "timeouts": 500,
        "retries": 1000,
        "breaker_skips": 2000,
        "second_sink_delivered": 2000,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)


@pytest.mark.parametrize("seed, sinks", [(97, 1), (131, 2)])
def test_guarded_sink_deliver_is_the_oracles_attempt_loop(seed, sinks):
    """``GuardedSink.deliver`` (admit, the bare yield, start, await) under
    the oracle's per-delivery tasks replays the attempt loop it split."""

    class OverDeliver(reference.ReferenceEgressService):
        deliver = staticmethod(GuardedSink.deliver)

    args = (seed, sinks, 0.3, 5.0, SinkPolicy())
    assert session(OverDeliver, *args) == session(reference.ReferenceEgressService, *args)
