"""Self-contained service harness: build, load, run.

This is what ``richnote serve`` and the repo benchmark's
``service-flash-crowd`` workload share: a complete live pipeline --
seeded devices, registry-resolved policies, flash-crowd ingress, flaky
egress -- run on a simulated clock, so a multi-minute chaos scenario
replays in well under a second of wall time.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel
from repro.runtime import registry
from repro.runtime.loop import RoundLoop
from repro.service.chaos import (
    FlakySink,
    FlashCrowdConfig,
    FlashCrowdScenario,
    ScheduledEvent,
)
from repro.service.clock import SimulatedClock
from repro.service.server import NotificationService, ServiceConfig
from repro.sim.battery import DiurnalBatteryModel
from repro.sim.device import MobileDevice
from repro.sim.energy import TransferEnergyModel
from repro.sim.faults import FlakyConnectivity
from repro.sim.network import MarkovNetworkModel

#: Seed salts keeping the harness's independent RNG streams decorrelated
#: (same scheme as the experiment runner's _stream_seed).
_SALT_DEVICE = 29
_SALT_BATTERY = 31
_SALT_OUTAGE = 37
_SALT_CONTENT = 41
_SALT_SINK = 43


def _stream_seed(seed: int, user_id: int, salt: int) -> int:
    return (seed * 1_000_003 + user_id * 7_919 + salt) & 0x7FFFFFFF


@dataclass(frozen=True)
class DemoConfig:
    """Everything a bounded demo run needs."""

    users: int = 16
    rounds: int = 6
    round_seconds: float = 60.0
    queue_bound: int = 16
    seed: int = 23
    policy: str = "richnote"
    #: Per-round data allowance (bytes); generous so previews flow.
    theta_bytes_per_round: float = 1_500_000.0
    kappa_joules_per_round: float = 3_000.0
    #: Items older than this dead-letter instead of delivering stale.
    ttl_seconds: float = 600.0
    chaos: str = "flash-crowd"  # or "none"
    #: Egress fault probabilities for the primary sink.
    sink_fail: float = 0.10
    sink_stall: float = 0.05
    sink_stall_seconds: float = 30.0
    #: Per-round probability a connected device is forced offline.
    p_outage: float = 0.10
    service: ServiceConfig | None = None
    flash_crowd: FlashCrowdConfig | None = None

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.chaos not in ("none", "flash-crowd"):
            raise ValueError(f"unknown chaos scenario {self.chaos!r}")
        for name in ("sink_fail", "sink_stall", "p_outage"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if not self.sink_stall_seconds >= 0:  # NaN too
            raise ValueError(f"sink_stall_seconds must be >= 0, got {self.sink_stall_seconds}")

    def service_config(self) -> ServiceConfig:
        if self.service is not None:
            return self.service
        return ServiceConfig(
            round_seconds=self.round_seconds,
            queue_bound=self.queue_bound,
            seed=self.seed,
        )

    def crowd_config(self) -> FlashCrowdConfig:
        if self.flash_crowd is not None:
            return self.flash_crowd
        duration = self.rounds * self.round_seconds
        # Crowd occupies the middle third of the run, so the gate can
        # observe both escalation and recovery within one session.
        return FlashCrowdConfig(
            n_users=self.users,
            duration_seconds=duration,
            base_rate=max(0.5, self.users / 30.0),
            crowd_start=duration / 3.0,
            crowd_duration=duration / 3.0,
            crowd_multiplier=1.0 if self.chaos == "none" else 25.0,
        )


@dataclass
class DemoRun:
    """Results of one bounded harness session."""

    service: NotificationService
    ingest_results: list = field(default_factory=list)


def build_loop_factory(config: DemoConfig):
    """Per-user round loops mirroring the experiment runner's devices."""
    duration = config.rounds * config.round_seconds

    def loop_factory(user_id: int) -> RoundLoop:
        device_seed = _stream_seed(config.seed, user_id, _SALT_DEVICE)
        network = MarkovNetworkModel(rng=random.Random(device_seed))
        wrapped = (
            FlakyConnectivity(
                network,
                config.p_outage,
                random.Random(_stream_seed(config.seed, user_id, _SALT_OUTAGE)),
            )
            if config.p_outage > 0
            else network
        )
        battery = DiurnalBatteryModel(
            rng=random.Random(_stream_seed(config.seed, user_id, _SALT_BATTERY))
        ).generate(
            duration + config.round_seconds,
            sample_period_seconds=config.round_seconds,
        )
        device = MobileDevice(
            user_id=user_id,
            network=wrapped,
            battery=battery,
            energy_model=TransferEnergyModel(),
        )
        return RoundLoop(
            device,
            DataBudget(theta_bytes=config.theta_bytes_per_round),
            EnergyBudget(kappa_joules=config.kappa_joules_per_round),
            CombinedUtilityModel(),
            ttl_seconds=config.ttl_seconds,
            policy=registry.create(config.policy),
        )

    return loop_factory


def build_item_factory(config: DemoConfig):
    """Seeded ContentItems over a shared audio ladder."""
    ladder = build_audio_ladder()
    content_rng = random.Random(_stream_seed(config.seed, 0, _SALT_CONTENT))

    def item_factory(index: int, event: ScheduledEvent) -> ContentItem:
        return ContentItem(
            item_id=index,
            user_id=event.user_id,
            kind=event.kind,
            created_at=event.time,
            ladder=ladder,
            content_utility=content_rng.uniform(0.05, 0.95),
        )

    return item_factory


def run_demo(config: DemoConfig | None = None) -> DemoRun:
    """Run one bounded chaos session; returns the service and ingest results."""
    config = config or DemoConfig()
    clock = SimulatedClock()
    service = NotificationService(
        loop_factory=build_loop_factory(config),
        user_ids=list(range(config.users)),
        config=config.service_config(),
        clock=clock,
    )
    chaotic = config.chaos != "none"
    flaky = FlakySink(
        clock=clock,
        rng=random.Random(_stream_seed(config.seed, 0, _SALT_SINK)),
        p_fail=config.sink_fail if chaotic else 0.0,
        # Stalls get what failures leave: sink_fail=1.0 is "always down".
        p_stall=min(config.sink_stall, 1.0 - config.sink_fail) if chaotic else 0.0,
        stall_seconds=config.sink_stall_seconds,
    )
    service.add_sink(flaky, name="push")
    scenario = FlashCrowdScenario(
        config.crowd_config(),
        build_item_factory(config),
        seed=config.seed,
    )

    async def session() -> list:
        run_task = asyncio.ensure_future(service.run(rounds=config.rounds))
        ingest_results = await scenario.drive(service, clock)
        await run_task
        return ingest_results

    return DemoRun(service=service, ingest_results=clock.run(session()))
