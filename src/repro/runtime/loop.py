"""The composable round loop (Algorithm 2) -- queues, budgets, delivery.

Per Section IV, the broker runs one loop instance per user.  Each round
is a fixed sequence of phases (:attr:`RoundLoop.phase_names`):

``ingest``
    items that arrived since the previous round move from the *incoming*
    queue to the *scheduling* queue; TTL-expired items are evicted;
``replenish``
    budgets top up -- ``B(t) += theta`` and ``P(t) += e(t)`` while
    ``P(t) <= kappa`` (the device's battery state determines ``e(t)``);
``select``
    connectivity is sampled for the round; the bound
    :class:`~repro.runtime.policy.SchedulerPolicy` picks a subset of
    scheduling-queue items, each at a presentation level on a delivery
    channel, sorted into the delivery queue by descending utility;
``deliver``
    the delivery queue drains to the device through the loop's
    :class:`~repro.core.delivery.DeliveryEngine`; delivered items are
    debited from both budgets and all of their presentations leave the
    scheduling queue.

Every selection names its channel: the paper's single push channel is
the one-channel :class:`~repro.core.channels.ChannelSet`, not a separate
code path.

Each phase is a ``<name>_phase(state)`` method, so subclasses can
override or extend individual phases without re-implementing the loop.
The selection rule is the :class:`~repro.runtime.policy.SchedulerPolicy`
the loop is constructed with (docs/EXTENDING.md section 1) -- the only
policy extension point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (delivery imports us)
    from repro.core.delivery import DeliveryEngine

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.channels import ChannelSet, default_channel_set
from repro.core.content import ContentItem
from repro.core.utility import CombinedUtilityModel
from repro.runtime.policy import RoundContext, SchedulerPolicy
from repro.runtime.types import DroppedItem, RoundResult
from repro.sim.device import MobileDevice


@dataclass(slots=True)
class RoundState:
    """Mutable scratch state threaded through one round's phases.

    ``selected`` holds ``(item, level, channel)`` triples.
    """

    now: float
    round_seconds: float
    result: RoundResult
    effective_budget: int = 0
    selected: list = field(default_factory=list)


class RoundLoop:
    """Queue/budget/delivery machinery shared by every scheduling policy.

    The loop owns the state Algorithm 2 mutates (queues, budgets, the
    round counter); the *decision* of what to deliver is delegated to
    ``policy`` each round via a frozen
    :class:`~repro.runtime.policy.RoundContext` snapshot.
    """

    #: The phase sequence of one round; each name dispatches to a
    #: ``<name>_phase(state)`` method.
    phase_names: tuple[str, ...] = ("ingest", "replenish", "select", "deliver")

    def __init__(
        self,
        device: MobileDevice,
        data_budget: DataBudget,
        energy_budget: EnergyBudget,
        utility_model: CombinedUtilityModel | None = None,
        ttl_seconds: float | None = None,
        delivery_engine: "DeliveryEngine | None" = None,
        *,
        policy: SchedulerPolicy,
        channels: ChannelSet | None = None,
        shared_capacity=None,
    ) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl must be positive when set")
        self.device = device
        self.data_budget = data_budget
        self.energy_budget = energy_budget
        self.utility_model = utility_model or CombinedUtilityModel()
        # Function-level import: repro.core.delivery imports this package.
        from repro.core import delivery

        #: The one drain of the deliver phase.  The default engine has no
        #: fault policy: every attempt succeeds (the paper's delivery).
        self.delivery_engine = delivery_engine or delivery.DeliveryEngine()
        #: Optional notification expiry: items older than this are evicted
        #: at the start of a round instead of being delivered stale.  The
        #: paper keeps items queued indefinitely (None, the default); real
        #: deployments expire friend-feed notifications.
        self.ttl_seconds = ttl_seconds
        self._incoming: list[ContentItem] = []
        self._scheduling: list[ContentItem] = []
        self._round_index = 0
        #: Orchestration hook (:mod:`repro.service`): when set, selections
        #: are capped at this presentation level (floored at level 1, so
        #: items still deliver as metadata-only).  ``None`` -- the default,
        #: and the paper's behaviour -- leaves selections untouched.
        self.level_cap: int | None = None
        #: Configured delivery channels; ``None`` (the default) is the
        #: paper's configuration, the push channel alone.
        self.channels = channels or default_channel_set()
        #: Duck-typed shared-capacity pool (``grant(user_id, requested)``
        #: / ``consume(user_id, used)`` -- see
        #: :class:`repro.pubsub.capacity.SharedCellCapacity`).  Couples
        #: this user's round budget to everyone sharing the same cell;
        #: ``None`` keeps budgets private, as in the paper.
        self.shared_capacity = shared_capacity
        #: The selection rule.  Its optional ``attach(loop)`` hook runs
        #: here and may validate configuration against the loop's budgets
        #: (and raise).
        self.policy = policy
        attach = getattr(policy, "attach", None)
        if attach is not None:
            attach(self)

    # -- queue management -----------------------------------------------------

    def enqueue(self, item: ContentItem) -> None:
        """Add a newly arrived item to the incoming queue."""
        if item.user_id != self.device.user_id:
            raise ValueError(
                f"item for user {item.user_id} routed to scheduler of "
                f"user {self.device.user_id}"
            )
        self._incoming.append(item)

    @property
    def pending_items(self) -> int:
        """Items awaiting delivery across incoming + scheduling queues."""
        return len(self._incoming) + len(self._scheduling)

    def backlog_bytes(self) -> float:
        """``Q(t)``: total byte backlog of the scheduling queue.

        Per Eq. 4 an item contributes the sum of all its presentation
        sizes, since delivery drops every presentation of the item.
        """
        return float(sum(item.ladder.total_size() for item in self._scheduling))

    def _selectable(self, now: float) -> list[ContentItem]:
        """Scheduling-queue items eligible for selection this round.

        Items in retry backoff (fault-tolerant delivery) are held back but
        still count toward ``Q(t)``/backlog -- they are queued work.
        """
        return self.delivery_engine.eligible_items(self._scheduling, now)

    # -- policy hook ----------------------------------------------------------

    def make_context(self, now: float, effective_budget: int) -> RoundContext:
        """The frozen round snapshot handed to the policy's ``select``."""
        return RoundContext(
            now=now,
            effective_budget=effective_budget,
            items=list(self._selectable(now)),
            backlog_bytes=self.backlog_bytes(),
            energy_available_joules=self.energy_budget.available,
            utility_model=self.utility_model,
            estimate_energy=self.device.estimate_energy,
            channels=self.channels,
        )

    def _select(self, now: float, effective_budget: int) -> list:
        """This round's ``(item, level > 0, channel)`` triples within
        ``effective_budget`` bytes, as chosen by the policy.

        The one place a selection gains its channel: a custom policy's
        ``(item, level)`` pairs are completed with the primary.
        """
        decision = self.policy.select(self.make_context(now, effective_budget))
        primary = self.channels.primary
        return [
            sel if len(sel) == 3 else (*sel, primary)
            for sel in decision.selections
        ]

    # -- the round loop (Algorithm 2) -----------------------------------------

    def run_round(self, now: float, round_seconds: float) -> RoundResult:
        """Execute one round at time ``now``; returns what was delivered."""
        self._round_index += 1
        state = RoundState(
            now=now,
            round_seconds=round_seconds,
            result=RoundResult(round_index=self._round_index, time=now),
        )
        for name in self.phase_names:
            getattr(self, f"{name}_phase")(state)

        result = state.result
        result.queue_length_after = len(self._scheduling)
        result.backlog_bytes_after = self.backlog_bytes()
        result.data_budget_after = self.data_budget.available
        result.energy_budget_after = self.energy_budget.available
        after_round = getattr(self.policy, "after_round", None)
        if after_round is not None:
            after_round(self, result)
        return result

    def ingest_phase(self, state: RoundState) -> None:
        """Incoming items become schedulable; TTL-expired items are evicted."""
        if self._incoming:
            self._scheduling.extend(self._incoming)
            self._incoming = []

        if self.ttl_seconds is not None:
            now = state.now
            fresh: list[ContentItem] = []
            for item in self._scheduling:
                if now - item.created_at > self.ttl_seconds:
                    state.result.dropped.append(
                        DroppedItem(time=now, item=item, reason="ttl_expired")
                    )
                else:
                    fresh.append(item)
            self._scheduling = fresh

    def replenish_phase(self, state: RoundState) -> None:
        """Step 2 of Algorithm 2: budget replenishment."""
        self.data_budget.replenish()
        e_t = self.device.replenishment(state.now, self.energy_budget.kappa_joules)
        self.energy_budget.replenish(e_t)

    def select_phase(self, state: RoundState) -> None:
        """Sample connectivity, then ask the policy for this round's picks."""
        now = state.now
        self.device.begin_round(now, state.round_seconds)
        state.result.connected = self.device.connected
        if not (self.device.connected and self._selectable(now)):
            return
        capacity = self.device.round_capacity_bytes(state.round_seconds)
        effective_budget = int(min(self.data_budget.available, capacity))
        if self.shared_capacity is not None:
            # Shared cell pool: this round's budget is further clamped to
            # whatever the user's cell has left, coupling users on the
            # same tower.  Heavy crowds drain the pool; bystanders see a
            # smaller grant.
            granted = self.shared_capacity.grant(
                self.device.user_id, effective_budget
            )
            effective_budget = int(min(effective_budget, granted))
        state.effective_budget = effective_budget
        selected = self._select(now, state.effective_budget)
        if self.level_cap is not None:
            # Degradation ladder (service overload): shed rich-media levels
            # first, keeping at least the metadata presentation (level 1).
            cap = max(1, self.level_cap)
            selected = [
                (item, min(level, cap), channel)
                for item, level, channel in selected
            ]
        # Previously failed items may be capped at a degraded level.
        selected = self.delivery_engine.apply_level_caps(selected)

        # Delivery queue drains in descending utility order (Alg. 2, step 1),
        # each selection ranked by its chosen channel's utility.
        model = self.utility_model
        selected.sort(
            key=lambda sel: sel[2].utility(model, sel[0], sel[1], now),
            reverse=True,
        )
        state.selected = selected

    def deliver_phase(self, state: RoundState) -> None:
        """Drain the delivery queue through the engine, then drop every
        presentation of the delivered (or dead-lettered) items.

        Energy and the device transfer are priced on *wire* bytes (what
        crosses the air on the channel's ladder); the data budget is
        debited the channel's *billed* bytes.
        """
        if not state.selected:
            return
        result = state.result
        first_new = len(result.deliveries)
        removed = self.delivery_engine.deliver_batch(
            now=state.now,
            selected=state.selected,
            device=self.device,
            data_budget=self.data_budget,
            energy_budget=self.energy_budget,
            utility_model=self.utility_model,
            result=result,
            ttl_seconds=self.ttl_seconds,
        )
        # Step 3: drop all presentations of the removed items from the queue.
        if removed:
            self._scheduling = [
                item for item in self._scheduling if item.item_id not in removed
            ]
        self._consume_shared(result.deliveries[first_new:])

    def _consume_shared(self, deliveries: list) -> None:
        """Draw this round's delivered cell-coupled wire bytes from the pool."""
        if self.shared_capacity is None or not deliveries:
            return
        cell_bytes = sum(
            d.size_bytes
            for d in deliveries
            if self.channels.get_or_primary(d.channel).cell_coupled
        )
        if cell_bytes:
            self.shared_capacity.consume(self.device.user_id, cell_bytes)
