"""Scheduling policies: what to deliver this round, where, at which level.

The middle runtime layer.  A policy sees one :class:`RoundContext` -- the
frozen facts of a round (eligible items, effective byte budget, queue and
energy state, the configured channels) -- and returns a
:class:`RoundDecision` with the chosen ``(item, level, channel)`` triples.
The surrounding machinery (queues, budgets, delivery, TTL) lives in
:class:`repro.runtime.loop.RoundLoop`; the math lives in
:mod:`repro.runtime.kernels`.

Built-in policies, registered by name in :mod:`repro.runtime.registry`:

``richnote``
    The paper's Lyapunov-adjusted MCKP selection (Eq. 7 + Algorithm 1)
    over each item's (channel x level) choice set, computed over array
    kernels: one utility matrix and one adjusted matrix per (ladder
    group, channel).  The paper's push channel is the one-channel set.
    Bit-identical to Eq. 7's scalar reference
    (:meth:`~repro.core.lyapunov.LyapunovController.adjusted_profile`)
    feeding :func:`repro.core.mckp.select_presentations` (asserted by
    ``tests/test_runtime.py``).
``fifo`` / ``util``
    Section V-C's baselines: fixed presentation level on the primary
    channel, greedy fill in arrival order / descending utility order.

Custom policies need only ``select``, and may return plain
``(item, level)`` pairs (the loop routes them over the primary channel);
``attach(loop)`` and ``after_round(loop, result)`` are optional lifecycle
hooks discovered by duck typing (see docs/EXTENDING.md section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.core.channels import Channel, ChannelSet, default_channel_set
from repro.core.content import ContentItem
from repro.core.lyapunov import (
    LyapunovConfig,
    LyapunovController,
    LyapunovState,
)
from repro.core.utility import CombinedUtilityModel
from repro.runtime import kernels
from repro.runtime.registry import register


@dataclass(frozen=True, slots=True)
class RoundContext:
    """Everything a policy may consult when selecting for one round.

    ``items`` are the selection-eligible scheduling-queue entries (TTL
    survivors, not in retry backoff), in queue order.  ``backlog_bytes``
    / ``energy_available_joules`` are the ``Q(t)`` / ``P(t)`` snapshots
    frozen for the round, and ``estimate_energy`` prices a download of a
    given size under the round's (fixed) network state.  ``channels`` is
    the configured :class:`~repro.core.channels.ChannelSet`; ``None``
    means the paper's configuration, the push channel alone.
    """

    now: float
    effective_budget: int
    items: Sequence[ContentItem]
    backlog_bytes: float
    energy_available_joules: float
    utility_model: CombinedUtilityModel
    estimate_energy: Callable[[int], float]
    channels: ChannelSet | None = None

    def __post_init__(self) -> None:
        if self.channels is None:
            object.__setattr__(self, "channels", default_channel_set())


@dataclass(frozen=True, slots=True)
class RoundDecision:
    """A policy's answer: ``(item, level > 0, channel)`` triples in budget.

    A custom policy may leave the channel out; the loop completes such
    pairs with the primary channel.  ``total_size`` counts *billed* bytes
    (what the data budget is charged), the wire bytes on the push channel.
    """

    selections: list
    total_size: int = 0
    total_profit: float = 0.0


@runtime_checkable
class SchedulerPolicy(Protocol):
    """Anything that can pick this round's deliveries.

    Optional hooks, discovered via ``getattr``:

    * ``attach(loop)`` -- called once, by the constructor of the
      :class:`~repro.runtime.loop.RoundLoop` given the policy; validate or
      derive configuration from the loop's budgets here.
    * ``after_round(loop, result)`` -- called after every round with the
      finalized :class:`~repro.runtime.types.RoundResult`; record
      diagnostics here.
    """

    def select(self, ctx: RoundContext) -> RoundDecision:
        """Choose deliveries for the round described by ``ctx``."""
        ...  # pragma: no cover - protocol


@register("richnote")
class RichNotePolicy:
    """The paper's policy: Lyapunov-adjusted MCKP over array kernels.

    Parameters
    ----------
    lyapunov:
        Control configuration (V, kappa, unit scales).  When ``None`` the
        config is derived from the loop's energy budget at
        ``attach`` time; when given, its ``kappa`` must match the loop's.
    """

    def __init__(self, lyapunov: LyapunovConfig | None = None) -> None:
        self._explicit_config = lyapunov
        self.controller = LyapunovController(lyapunov)
        #: End-of-round Lyapunov function values L(t) -- the stability
        #: diagnostic (bounded L <=> bounded queues, P near kappa).
        self.lyapunov_history: list[float] = []

    # -- lifecycle hooks ------------------------------------------------------

    def attach(self, loop) -> None:
        """Derive/validate the Lyapunov config against the loop's budgets."""
        config = self._explicit_config or LyapunovConfig(
            kappa_joules=loop.energy_budget.kappa_joules
        )
        if abs(config.kappa_joules - loop.energy_budget.kappa_joules) > 1e-6:
            raise ValueError(
                "Lyapunov kappa must match the energy budget's kappa "
                f"({config.kappa_joules} != {loop.energy_budget.kappa_joules})"
            )
        self.controller = LyapunovController(config)

    def after_round(self, loop, result) -> None:
        self.lyapunov_history.append(self.lyapunov_value(loop))

    def lyapunov_value(self, loop) -> float:
        """Current ``L(t)`` over the loop's live queue and energy state."""
        state = LyapunovState(
            q_bytes=loop.backlog_bytes(),
            p_joules=loop.energy_budget.available,
        )
        return self.controller.lyapunov_function(state)

    # -- selection ------------------------------------------------------------

    def select(self, ctx: RoundContext) -> RoundDecision:
        """Eq. 7 + Algorithm 1 over each item's (channel x level) choices.

        Items are grouped by native ladder; per (group, channel) that
        channel's ladder is priced with one Eq. 1 utility matrix and one
        Eq. 7 matrix: presentation utilities and *wire*-size energies are
        the channel's, while ``s(i)`` stays the item's native ladder
        (Eq. 4: queue backlog is independent of the route chosen).
        Energy estimates are memoized by size -- the device's network
        state is fixed within a round, so equal sizes price equally.

        The paper's single push channel hands those rows to Algorithm 1
        as they are.  Any other set fuses a group's per-channel rows into
        one strictly-increasing row priced in *billed* bytes (a ladder
        group shares its billed-size rows) and reduces it to its convex
        hull first: cross-channel gradients are not monotone.
        """
        items = ctx.items
        channels = tuple(ctx.channels)
        fuse = not ctx.channels.is_single_passthrough
        model = ctx.utility_model
        now = ctx.now
        # A custom utility model changes only how the utility matrix is
        # filled: cell by cell through the channel instead of Eq. 1's
        # outer product over one decayed content column.
        stock = type(model) is CombinedUtilityModel
        if stock and model.aging is not None:
            decay = model.aging.decay
            contents = [
                decay(item.content_utility, max(0.0, now - item.created_at))
                for item in items
            ]
        elif stock:
            contents = [item.content_utility for item in items]

        groups: dict[int, tuple] = {}
        for index, item in enumerate(items):
            entry = groups.get(id(item.ladder))
            if entry is None:
                groups[id(item.ladder)] = (item.ladder, [index])
            else:
                entry[1].append(index)

        cfg = self.controller.config
        energy_cache: dict[int, float] = {}
        sizes_rows: list = [None] * len(items)
        profits_rows: list = [None] * len(items)
        #: Fused sets only: the (channel index, level) behind each column
        #: of an item's reduced row.
        routes: list = [None] * len(items)
        for ladder, indices in groups.values():
            item_backlog = float(ladder.total_size())
            wire_rows: list[list[int]] = []
            adjusted: list = []
            for channel in channels:
                channel_ladder = ladder if channel.ladder is None else channel.ladder
                wire_sizes = [step.size_bytes for step in channel_ladder]
                energies = [0.0]
                for size in wire_sizes[1:]:
                    energy = energy_cache.get(size)
                    if energy is None:
                        energy = energy_cache[size] = ctx.estimate_energy(size)
                    energies.append(energy)
                if stock:
                    utilities = kernels.combined_utility_matrix(
                        [contents[index] for index in indices],
                        [step.utility for step in channel_ladder],
                    )
                else:
                    utilities = [
                        [
                            channel.utility(model, items[index], level, now)
                            for level in range(len(wire_sizes))
                        ]
                        for index in indices
                    ]
                wire_rows.append(wire_sizes)
                adjusted.append(
                    kernels.lyapunov_adjusted_rows(
                        utilities,
                        energies,
                        item_backlog,
                        ctx.backlog_bytes,
                        ctx.energy_available_joules,
                        kappa_joules=cfg.kappa_joules,
                        v=cfg.v,
                        size_scale=cfg.size_scale,
                        energy_scale=cfg.energy_scale,
                    )
                )
            if not fuse:
                # The push channel bills its wire bytes one for one.
                for index, row in zip(indices, adjusted[0].tolist()):
                    sizes_rows[index] = wire_rows[0]
                    profits_rows[index] = row
                continue
            sizes, profits, via, at = kernels.merge_channel_rows_batched(
                [
                    [channel.cost.billed_bytes(size) for size in wire_sizes]
                    for channel, wire_sizes in zip(channels, wire_rows)
                ],
                adjusted,
            )
            hull, lengths = kernels.hull_levels_batched(sizes, profits)
            for row, index in enumerate(indices):
                kept = hull[row, : lengths[row]].tolist()
                sizes_rows[index] = [sizes[column] for column in kept]
                profits_rows[index] = profits[row, kept].tolist()
                routes[index] = list(
                    zip(via[row, kept].tolist(), at[row, kept].tolist())
                )

        picked, total_size, total_profit = kernels.greedy_select_heap(
            [item.item_id for item in items],
            sizes_rows,
            profits_rows,
            ctx.effective_budget,
        )
        selections = []
        for index, pick in enumerate(picked):
            if pick > 0:
                channel_index, level = routes[index][pick] if fuse else (0, pick)
                selections.append((items[index], level, channels[channel_index]))
        return RoundDecision(
            selections=selections,
            total_size=total_size,
            total_profit=total_profit,
        )


class FixedLevelPolicy:
    """Common base for the baselines: deliver at ``fixed_level`` in order.

    Subclasses define :meth:`order_items`; :meth:`fill` greedily takes
    items in that order over the primary channel, always at the
    (ladder-clamped) fixed level, while the remaining round budget
    affords them.  An item whose fixed
    presentation does not fit is *skipped for this round but stays
    queued* (head-of-line items larger than the leftover budget simply
    wait for rollover, which is what a fixed-level pipeline does in
    practice).
    """

    def __init__(self, fixed_level: int) -> None:
        if fixed_level < 1:
            raise ValueError("fixed level must be >= 1 (level 0 sends nothing)")
        self.fixed_level = fixed_level

    def level_for(self, item: ContentItem) -> int:
        """Clamp the fixed level to the item's ladder."""
        return min(self.fixed_level, item.ladder.max_level)

    def order_items(
        self,
        items: list[ContentItem],
        now: float,
        utility_model: CombinedUtilityModel,
    ) -> list[ContentItem]:
        """Policy-defined delivery order over the eligible items."""
        raise NotImplementedError

    def fill(
        self, ordered: list[ContentItem], effective_budget: int, channel: Channel
    ) -> list[tuple[ContentItem, int, Channel]]:
        """Greedy fixed-level fill routed over one channel (billed bytes)."""
        remaining = effective_budget
        chosen: list[tuple[ContentItem, int, Channel]] = []
        for item in ordered:
            level = min(self.fixed_level, channel.max_level(item))
            size = channel.billed_size(item, level)
            if size <= remaining:
                chosen.append((item, level, channel))
                remaining -= size
        return chosen

    def select(self, ctx: RoundContext) -> RoundDecision:
        # Baselines have no channel optimization: everything rides the
        # primary channel, mirroring a fixed-level push pipeline.
        ordered = self.order_items(list(ctx.items), ctx.now, ctx.utility_model)
        return RoundDecision(
            selections=self.fill(
                ordered, ctx.effective_budget, ctx.channels.primary
            )
        )


@register("fifo")
class FifoPolicy(FixedLevelPolicy):
    """FIFO: oldest arrival first, fixed presentation level."""

    def order_items(
        self,
        items: list[ContentItem],
        now: float,
        utility_model: CombinedUtilityModel,
    ) -> list[ContentItem]:
        return sorted(items, key=lambda item: item.created_at)


@register("util")
class UtilPolicy(FixedLevelPolicy):
    """UTIL: highest combined utility first, fixed presentation level."""

    def order_items(
        self,
        items: list[ContentItem],
        now: float,
        utility_model: CombinedUtilityModel,
    ) -> list[ContentItem]:
        return sorted(
            items,
            key=lambda item: utility_model.utility(
                item, self.level_for(item), now
            ),
            reverse=True,
        )
