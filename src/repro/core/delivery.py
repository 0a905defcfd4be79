"""The delivery engine: the deliver phase of every round loop, with
retries, refunds and dead letters.

Every :class:`repro.runtime.loop.RoundLoop` drains its delivery queue
through one :class:`DeliveryEngine`.  Each attempt is debited, then judged
by the engine's :class:`repro.sim.faults.FaultPolicy`; without one (the
default, and the paper's delivery) every attempt succeeds, and a selected
presentation is debited and recorded in one step.  On failure the engine

* **refunds** the un-transferred bytes to the :class:`DataBudget` and the
  proportional energy share to the virtual ``P(t)`` queue, so Lyapunov
  state reflects what was actually spent;
* charges the bytes that *were* spent over the air as waste (a user's data
  plan does not refund a dropped preview);
* schedules a **retry** with exponential backoff and full jitter -- the
  item stays in the scheduling queue but is ineligible until its backoff
  expires, and after repeated failures its presentation is **degraded**
  (capped one level below the last failed attempt) so the retry is cheaper
  and likelier to fit the remaining round budget;
* **dead-letters** the item (a structured
  :class:`~repro.runtime.types.DroppedItem`) once attempts are exhausted
  or a retry could not land before the item's TTL.

Every selection is an ``(item, level, channel)`` triple: the attempt
moves the channel's *wire* bytes over the air and is charged its *billed*
bytes (the same number on the paper's push channel).

Byte conservation invariant (checked by the chaos suite): over any run,

``debited == delivered + refunded + wasted``

in billed bytes, where *wasted* is exactly the mid-flight bytes of failed
attempts.

Determinism: backoff jitter and fault draws both flow through explicit
``random.Random`` streams supplied at construction; the engine never reads
module-level ``random`` state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem
from repro.runtime.types import Delivery, DroppedItem, RoundResult
from repro.core.utility import CombinedUtilityModel
from repro.sim.device import MobileDevice
from repro.sim.faults import FaultPolicy, TransferContext


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    The backoff before attempt ``n+1`` is drawn uniformly from
    ``[0, min(max_backoff, base * 2**(n-1))]`` ("full jitter", the
    decorrelating variant recommended for thundering-herd avoidance).
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 900.0
    max_backoff_seconds: float = 4 * 3600.0
    #: After this many failed attempts, redelivery is capped one
    #: presentation level below the last failure (never below level 1).
    degrade_after_attempts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("max backoff must be >= base backoff")
        if self.degrade_after_attempts < 1:
            raise ValueError("degrade_after_attempts must be >= 1")

    def backoff_seconds(self, failed_attempts: int, rng: random.Random) -> float:
        """Full-jitter delay after the ``failed_attempts``-th failure."""
        return full_jitter_backoff(
            failed_attempts, self.base_backoff_seconds, self.max_backoff_seconds, rng
        )


def full_jitter_backoff(n: int, base: float, ceiling: float, rng: random.Random) -> float:
    """One ``rng.uniform`` draw over ``[0, min(ceiling, base * 2**(n-1))]``
    after the ``n``-th failure: the backoff of both :class:`RetryPolicy`
    and the service's :class:`~repro.service.sinks.SinkPolicy`."""
    if n < 1:
        raise ValueError("failed_attempts must be >= 1")
    return rng.uniform(0.0, min(ceiling, base * (2.0 ** (n - 1))))


@dataclass
class ChannelDeliveryStats:
    """Per-channel slice of the engine counters (byte figures are billed)."""

    attempts: int = 0
    delivered: int = 0
    failed_attempts: int = 0
    retries_scheduled: int = 0
    dead_letters: int = 0
    bytes_delivered: float = 0.0


@dataclass
class DeliveryStats:
    """The fault ledger: cumulative engine counters, the one account of
    attempts, refunds and dead letters.

    Byte counters are in *billed* (data-budget) bytes; on the push
    channel billed and wire bytes coincide.  ``per_channel`` breaks
    attempts/retries/dead-letters down by delivery channel.  Cross-user
    totals are :meth:`merge` folds of per-user ledgers.
    """

    attempts: int = 0
    delivered: int = 0
    failed_attempts: int = 0
    retries_scheduled: int = 0
    dead_letters: int = 0
    bytes_debited: float = 0.0
    bytes_delivered: float = 0.0
    bytes_refunded: float = 0.0
    bytes_wasted: float = 0.0
    fault_counts: dict[str, int] = field(default_factory=dict)
    per_channel: dict[str, ChannelDeliveryStats] = field(default_factory=dict)

    def channel(self, name: str) -> ChannelDeliveryStats:
        stats = self.per_channel.get(name)
        if stats is None:
            stats = ChannelDeliveryStats()
            self.per_channel[name] = stats
        return stats

    def merge(self, other: "DeliveryStats") -> None:
        """Fold another ledger into this one, per-channel slices included."""
        _add_counters(self, other)
        for kind, count in other.fault_counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count
        for name, slice_ in other.per_channel.items():
            _add_counters(self.channel(name), slice_)

    @property
    def failure_rate(self) -> float:
        """Fraction of delivery attempts that failed."""
        if self.attempts == 0:
            return 0.0
        return self.failed_attempts / self.attempts

    def conservation_error(self) -> float:
        """``|debited - (delivered + refunded + wasted)|`` -- 0 when sound."""
        return abs(
            self.bytes_debited
            - (self.bytes_delivered + self.bytes_refunded + self.bytes_wasted)
        )

    def row(self) -> dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "attempts": float(self.attempts),
            "failed_attempts": float(self.failed_attempts),
            "failure_rate": self.failure_rate,
            "retries": float(self.retries_scheduled),
            "dead_letters": float(self.dead_letters),
            "refunded_mb": self.bytes_refunded / 1e6,
            "wasted_mb": self.bytes_wasted / 1e6,
        }


def _add_counters(into, other) -> None:
    """``into.x += other.x`` for every numeric field of a stats dataclass."""
    for spec in fields(into):
        value = getattr(other, spec.name)
        if not isinstance(value, dict):
            setattr(into, spec.name, getattr(into, spec.name) + value)


@dataclass(slots=True)
class _RetryState:
    """Engine-private retry bookkeeping of an item whose last attempt failed
    (a first attempt that succeeds never allocates one)."""

    attempts: int = 0
    next_eligible: float = float("-inf")
    level_cap: int | None = None
    #: Channel of the most recent attempt (dead-letter attribution).
    channel: str = "push"


class DeliveryEngine:
    """Per-item delivery attempts with retry, refund and dead-lettering.

    Parameters
    ----------
    fault_policy:
        Judge of each attempt; ``None`` (the round loop's default engine)
        means every attempt succeeds: the paper's delivery.
    retry:
        Backoff/degradation/dead-letter policy.
    rng:
        Explicit seeded stream for backoff jitter *and* fault draws, so
        runs are reproducible from configuration alone (``Random(0)`` when
        omitted).  An engine without a fault policy never draws and holds
        none.
    """

    def __init__(
        self,
        fault_policy: FaultPolicy | None = None,
        retry: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.fault_policy = fault_policy
        self.retry = retry or RetryPolicy()
        self.rng = rng if rng is not None or fault_policy is None else random.Random(0)
        self.stats = DeliveryStats()
        self._states: dict[int, _RetryState] = {}

    # -- scheduling-queue hooks ---------------------------------------------

    def eligible_items(self, items: list, now: float) -> list:
        """The ``items`` out of retry backoff (``items`` itself while no
        attempt has failed)."""
        states = self._states
        if not states:
            return items
        return [
            item
            for item in items
            if (state := states.get(item.item_id)) is None
            or now >= state.next_eligible
        ]

    def apply_level_caps(self, selected: list) -> list:
        """Clamp the levels of ``(item, level, channel)`` selections to
        each item's degradation cap; the channel passes through."""
        states = self._states
        if not states:
            return selected
        capped: list = []
        for item, level, channel in selected:
            state = states.get(item.item_id)
            if state is not None and state.level_cap is not None:
                level = min(level, state.level_cap)
            capped.append((item, level, channel))
        return capped

    # -- the delivery step ---------------------------------------------------

    def deliver_batch(
        self,
        now: float,
        selected: list,
        device: MobileDevice,
        data_budget: DataBudget,
        energy_budget: EnergyBudget,
        utility_model: CombinedUtilityModel,
        result: RoundResult,
        ttl_seconds: float | None,
    ) -> set[int]:
        """Attempt each selected presentation; returns item ids to drop
        from the scheduling queue (delivered or dead-lettered).

        ``selected`` entries are ``(item, level, channel)`` triples: the
        attempt rides that channel's ladder (*wire* bytes over the air,
        priced for energy) while the data budget is charged the
        channel's *billed* bytes, and every counter is also attributed
        to the channel in :attr:`DeliveryStats.per_channel`.

        Accounting per attempt billing ``s`` that fails at wire fraction
        ``f``: debit ``s``; refund ``(1-f)*s`` to the data budget; count
        ``f*s`` as wasted.  Energy follows the same split on the
        attempt's proportional share of the batch energy, bounded by
        what the debit actually drained (the virtual queue floors at
        zero).
        """
        removed: set[int] = set()
        if not selected:
            return removed
        sizes = [
            channel.wire_size(item, level) for item, level, channel in selected
        ]
        batch_energy = device.download_batch(sizes)
        total_size = sum(sizes)
        states, stats, fault_policy = self._states, self.stats, self.fault_policy
        for (item, level, channel), size in zip(selected, sizes):
            billed = channel.cost.billed_bytes(size)
            channel_name = channel.name
            channel_stats = stats.channel(channel_name)
            share = batch_energy * (size / total_size) if total_size else 0.0
            bytes_drained = data_budget.debit(billed, channel=channel_name)
            energy_drained = energy_budget.debit(share)
            stats.bytes_debited += billed
            state = states.get(item.item_id)
            attempt = 1 if state is None else state.attempts + 1
            stats.attempts += 1
            channel_stats.attempts += 1

            outcome = None
            if fault_policy is not None:
                outcome = fault_policy.sample(
                    TransferContext(
                        item_id=item.item_id,
                        level=level,
                        size_bytes=size,
                        attempt=attempt,
                        time=now,
                        network_state=device.network.state,
                    ),
                    self.rng,
                )

            if outcome is None:
                stats.delivered += 1
                stats.bytes_delivered += billed
                channel_stats.delivered += 1
                channel_stats.bytes_delivered += billed
                result.deliveries.append(
                    Delivery(
                        time=now,
                        user_id=device.user_id,
                        item=item,
                        level=level,
                        size_bytes=size,
                        energy_joules=share,
                        utility=channel.utility(utility_model, item, level, now),
                        channel=channel_name,
                    )
                )
                removed.add(item.item_id)
                if state is not None:
                    del states[item.item_id]
                continue

            if state is None:
                state = states[item.item_id] = _RetryState()
            state.attempts = attempt
            state.channel = channel_name
            # Failed attempt: refund the un-transferred remainder.
            fraction = outcome.fraction_completed
            refund_bytes = min(billed * (1.0 - fraction), bytes_drained)
            wasted = billed - refund_bytes
            data_budget.credit(refund_bytes, channel=channel_name)
            energy_refund = min(share * (1.0 - fraction), energy_drained)
            energy_budget.credit(energy_refund)
            device.cancel_transfer(size, fraction, share)

            kind = outcome.kind.value
            stats.failed_attempts += 1
            channel_stats.failed_attempts += 1
            stats.bytes_refunded += refund_bytes
            stats.bytes_wasted += wasted
            stats.fault_counts[kind] = stats.fault_counts.get(kind, 0) + 1

            if state.attempts >= self.retry.max_attempts:
                self._dead_letter(
                    item, now, f"delivery_failed:{kind}", state, result, removed
                )
                continue
            backoff = self.retry.backoff_seconds(state.attempts, self.rng)
            next_eligible = now + backoff
            if (
                ttl_seconds is not None
                and next_eligible - item.created_at > ttl_seconds
            ):
                self._dead_letter(
                    item, now, f"retry_would_expire:{kind}", state, result, removed
                )
                continue
            state.next_eligible = next_eligible
            if state.attempts >= self.retry.degrade_after_attempts:
                state.level_cap = max(1, level - 1)
            stats.retries_scheduled += 1
            channel_stats.retries_scheduled += 1
        return removed

    def _dead_letter(
        self,
        item: ContentItem,
        now: float,
        reason: str,
        state: _RetryState,
        result: RoundResult,
        removed: set[int],
    ) -> None:
        result.dropped.append(
            DroppedItem(
                time=now,
                item=item,
                reason=reason,
                attempts=state.attempts,
                channel=state.channel,
            )
        )
        self.stats.dead_letters += 1
        self.stats.channel(state.channel).dead_letters += 1
        removed.add(item.item_id)
        del self._states[item.item_id]
