"""Multi-channel flash-crowd bench: shared cell pools coupling users.

The single-user evaluation of the paper cannot show the failure mode the
channel refactor exists for: users do not fail independently when they
share a tower.  This bench builds a small population on two cells --

* a **flash crowd** on cell 0 that receives a burst of arrivals for a
  window of rounds (:class:`repro.sim.faults.FlashCrowd` semantics);
* **bystanders on cell 0** who share the crowd's byte pool; and
* **control bystanders on cell 1**, identical in every respect except
  the tower they camp on --

then replays the *same* arrival schedule twice: once with a
:class:`repro.pubsub.capacity.SharedCellCapacity` pool coupling the
users (crowd loops run first each round, draining the pool before the
bystanders are served) and once uncoupled.  The headline metric is the
**bystander utility drop**: how much utility the cell-0 bystanders lose
purely because somebody else's crowd drained their tower -- the cell-1
control group bounds how much of that drop is noise.

Every loop runs multichannel (push / in-app / email via the joint
channel x level MCKP) behind a fault-injecting
:class:`repro.core.delivery.DeliveryEngine`, so the payload also carries
per-channel delivered / shed / dead-letter breakdowns and the engine's
byte-conservation error, which must be exactly zero.

Determinism: every random draw flows through ``random.Random`` streams
derived from the config seed; the coupled and uncoupled runs consume
identical arrival schedules, content utilities and per-user fault seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.channels import ChannelSet, builtin_channel
from repro.core.content import ContentItem, ContentKind
from repro.core.delivery import DeliveryEngine, DeliveryStats, RetryPolicy
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.pubsub.capacity import CellTopology, SharedCellCapacity
from repro.runtime.loop import RoundLoop
from repro.runtime.policy import RichNotePolicy
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.faults import FaultConfig, FlashCrowd, RandomFaultPolicy
from repro.sim.network import CellularOnlyNetwork

__all__ = ["ChannelsBenchConfig", "bench_channels"]

#: The cell the flash crowd (and the shared bystanders) camp on.
SHARED_CELL = 0
#: The control bystanders' cell -- same pool size, no crowd.
CONTROL_CELL = 1
#: Probability of one organic arrival per user per round.
ARRIVAL_PROB = 0.45


@dataclass(frozen=True)
class ChannelsBenchConfig:
    """Scenario knobs; defaults are the scale ``tests/test_channels_bench.py`` gates."""

    seed: int = 17
    rounds: int = 40
    round_seconds: float = 300.0
    crowd_users: int = 12
    bystanders_per_cell: int = 4
    #: The flash-crowd window (round indices) and its arrival burst.
    crowd: FlashCrowd = field(
        default_factory=lambda: FlashCrowd(
            cell=SHARED_CELL, first_round=12, rounds=10, extra_items_per_round=6
        )
    )
    #: Per-round per-cell shared byte pool (the coupling medium): sized
    #: so organic traffic never binds it (the control cell must read
    #: clean) while the flash crowd drains it every burst round.
    pool_bytes_per_round: float = 4_000_000.0
    theta_bytes: float = 500_000.0
    kappa_joules: float = 3000.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.crowd_users < 1 or self.bystanders_per_cell < 1:
            raise ValueError("need at least one crowd user and one bystander per cell")
        if self.crowd.cell != SHARED_CELL:
            raise ValueError("the flash crowd must sit on the shared cell")


def _channel_set() -> ChannelSet:
    return ChannelSet(
        [
            builtin_channel("push"),
            builtin_channel("inapp"),
            builtin_channel("email"),
        ]
    )


def _user_layout(config: ChannelsBenchConfig) -> tuple[list[int], list[int], list[int]]:
    """(crowd, shared-cell bystanders, control-cell bystanders) user ids.

    The returned concatenation is also the per-round service order:
    crowd loops run first, so during the burst they drain the shared
    pool before the cell-0 bystanders are granted their budgets.
    """
    crowd = list(range(config.crowd_users))
    shared = [config.crowd_users + i for i in range(config.bystanders_per_cell)]
    control = [
        config.crowd_users + config.bystanders_per_cell + i
        for i in range(config.bystanders_per_cell)
    ]
    return crowd, shared, control


def _arrival_schedule(
    config: ChannelsBenchConfig,
) -> list[list[tuple[int, int, float]]]:
    """Per-round arrivals as ``(item_id, user_id, content_utility)``.

    Generated once from the seed and replayed identically by the coupled
    and uncoupled runs, so the only difference between the two runs is
    the shared pool.
    """
    crowd, shared, control = _user_layout(config)
    crowd_set = set(crowd)
    rng = random.Random(config.seed)
    next_id = 0
    schedule: list[list[tuple[int, int, float]]] = []
    for round_index in range(config.rounds):
        burst = config.crowd.active(round_index)
        arrivals: list[tuple[int, int, float]] = []
        for user_id in crowd + shared + control:
            if rng.random() < ARRIVAL_PROB:
                arrivals.append((next_id, user_id, rng.uniform(0.35, 0.95)))
                next_id += 1
            if burst and user_id in crowd_set:
                for _ in range(config.crowd.extra_items_per_round):
                    arrivals.append((next_id, user_id, rng.uniform(0.35, 0.95)))
                    next_id += 1
        schedule.append(arrivals)
    return schedule


def _run_population(
    config: ChannelsBenchConfig,
    schedule: list[list[tuple[int, int, float]]],
    coupled: bool,
) -> dict:
    """Replay the schedule over the population; returns outcome columns."""
    crowd, shared, control = _user_layout(config)
    order = crowd + shared + control
    ladder = build_audio_ladder()
    channels = _channel_set()
    model = CombinedUtilityModel(aging=ExponentialAging(tau_seconds=2 * 3600.0))
    topology = CellTopology(
        cell_of={
            **{u: SHARED_CELL for u in crowd + shared},
            **{u: CONTROL_CELL for u in control},
        }
    )
    pool = (
        SharedCellCapacity(topology, config.pool_bytes_per_round)
        if coupled
        else None
    )
    fault_config = FaultConfig(p_disconnect=0.04, p_timeout=0.02, p_reject=0.02)
    retry = RetryPolicy(
        max_attempts=2,
        base_backoff_seconds=config.round_seconds,
        max_backoff_seconds=2 * config.round_seconds,
        degrade_after_attempts=1,
    )
    battery = BatteryTrace([BatterySample(time=0.0, level=0.9, charging=True)])

    loops: dict[int, RoundLoop] = {}
    for user_id in order:
        loops[user_id] = RoundLoop(
            device=MobileDevice(
                user_id=user_id,
                network=CellularOnlyNetwork(),
                battery=battery,
            ),
            data_budget=DataBudget(theta_bytes=config.theta_bytes),
            energy_budget=EnergyBudget(kappa_joules=config.kappa_joules),
            utility_model=model,
            delivery_engine=DeliveryEngine(
                fault_policy=RandomFaultPolicy(fault_config),
                retry=retry,
                rng=random.Random(config.seed * 1_000 + user_id),
            ),
            policy=RichNotePolicy(),
            channels=channels,
            shared_capacity=pool,
        )

    utility_by_user = {u: 0.0 for u in order}
    deliveries_by_user = {u: 0 for u in order}
    for round_index in range(config.rounds):
        now = (round_index + 1) * config.round_seconds
        if pool is not None:
            pool.begin_round()
        for item_id, user_id, content_utility in schedule[round_index]:
            loops[user_id].enqueue(
                ContentItem(
                    item_id=item_id,
                    user_id=user_id,
                    kind=ContentKind.FRIEND_FEED,
                    created_at=round_index * config.round_seconds,
                    ladder=ladder,
                    content_utility=content_utility,
                )
            )
        for user_id in order:
            result = loops[user_id].run_round(now, config.round_seconds)
            for delivery in result.deliveries:
                utility_by_user[user_id] += delivery.utility
                deliveries_by_user[user_id] += 1

    ledger = DeliveryStats()
    billed_by_channel: dict[str, float] = {}
    for user_id in order:
        ledger.merge(loops[user_id].delivery_engine.stats)
        for name, net in loops[user_id].data_budget.per_channel_bytes.items():
            billed_by_channel[name] = billed_by_channel.get(name, 0.0) + net

    def _group(users: list[int]) -> dict:
        return {
            "users": len(users),
            "deliveries": sum(deliveries_by_user[u] for u in users),
            "utility": round(sum(utility_by_user[u] for u in users), 6),
            "mean_utility_per_user": round(
                sum(utility_by_user[u] for u in users) / len(users), 6
            ),
        }

    outcome = {
        "per_channel": {
            name: {
                "delivered": slice_.delivered,
                # "Shed" at the transport: attempts that failed mid-flight
                # (the terminal subset of which dead-letters).
                "shed": slice_.failed_attempts,
                "dead_letters": slice_.dead_letters,
                "retries_scheduled": slice_.retries_scheduled,
                "bytes_delivered": round(slice_.bytes_delivered, 3),
            }
            for name, slice_ in sorted(ledger.per_channel.items())
        },
        "billed_bytes_by_channel": {
            name: round(net, 3) for name, net in sorted(billed_by_channel.items())
        },
        "conservation_error_bytes": ledger.conservation_error(),
        "totals": {
            key: getattr(ledger, key)
            for key in (
                "attempts", "delivered", "failed_attempts",
                "retries_scheduled", "dead_letters",
            )
        },
        "groups": {
            "crowd": _group(crowd),
            "shared_bystanders": _group(shared),
            "control_bystanders": _group(control),
        },
    }
    if pool is not None:
        outcome["cells"] = {
            str(cell): {
                "pool_bytes_per_round": pool.pool_bytes(cell),
                "requested_bytes": round(stats.requested_bytes, 3),
                "granted_bytes": round(stats.granted_bytes, 3),
                "consumed_bytes": round(stats.consumed_bytes, 3),
                "denied_bytes": round(stats.denied_bytes, 3),
                "contended_grants": stats.contended_grants,
            }
            for cell, stats in sorted(pool.stats.items())
        }
    return outcome


def bench_channels(config: ChannelsBenchConfig | None = None) -> dict:
    """Run the coupled and uncoupled scenarios; returns the payload.

    The payload's ``coupling`` block is the point of the bench: the
    shared-cell bystanders' utility drop (uncoupled minus coupled) is
    the measured cross-user degradation, against the control cell's
    drop, which the pool never touches.
    """
    config = config or ChannelsBenchConfig()
    schedule = _arrival_schedule(config)
    arrivals = sum(len(round_arrivals) for round_arrivals in schedule)
    coupled = _run_population(config, schedule, coupled=True)
    uncoupled = _run_population(config, schedule, coupled=False)

    def _drop(group: str) -> dict:
        before = uncoupled["groups"][group]["utility"]
        after = coupled["groups"][group]["utility"]
        return {
            "uncoupled_utility": before,
            "coupled_utility": after,
            "utility_drop": round(before - after, 6),
            "drop_fraction": round((before - after) / before, 6) if before else 0.0,
        }

    return {
        "meta": {
            "seed": config.seed,
            "rounds": config.rounds,
            "round_seconds": config.round_seconds,
            "channels": list(_channel_set().names),
            "crowd_users": config.crowd_users,
            "bystanders_per_cell": config.bystanders_per_cell,
            "arrival_prob": ARRIVAL_PROB,
            "arrivals": arrivals,
            "flash_crowd": {
                "cell": config.crowd.cell,
                "first_round": config.crowd.first_round,
                "rounds": config.crowd.rounds,
                "extra_items_per_round": config.crowd.extra_items_per_round,
            },
            "pool_bytes_per_round": config.pool_bytes_per_round,
            "theta_bytes": config.theta_bytes,
            "kappa_joules": config.kappa_joules,
        },
        "coupled": coupled,
        "uncoupled": uncoupled,
        "coupling": {
            "shared_bystanders": _drop("shared_bystanders"),
            "control_bystanders": _drop("control_bystanders"),
            "crowd": _drop("crowd"),
        },
    }
