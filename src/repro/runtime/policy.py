"""Scheduling policies: what to deliver this round, and at which level.

The middle runtime layer.  A policy sees one :class:`RoundContext` -- the
frozen facts of a round (eligible items, effective byte budget, queue and
energy state) -- and returns a :class:`RoundDecision` with the chosen
``(item, level)`` pairs.  The surrounding machinery (queues, budgets,
delivery, TTL) lives in :class:`repro.runtime.loop.RoundLoop`; the math
lives in :mod:`repro.runtime.kernels`.

Built-in policies, registered by name in :mod:`repro.runtime.registry`:

``richnote``
    The paper's Lyapunov-adjusted MCKP selection (Eq. 7 + Algorithm 1),
    computed over array kernels: one utility matrix and one adjusted
    matrix per ladder group instead of one ``MckpItem`` per queue entry.
    Bit-identical to the legacy object path (asserted by
    ``benchmarks/test_bench_kernels.py``).
``fifo`` / ``util``
    Section V-C's baselines: fixed presentation level, greedy fill in
    arrival order / descending utility order.

Custom policies need only ``select``; ``attach(loop)`` and
``after_round(loop, result)`` are optional lifecycle hooks discovered by
duck typing (see docs/EXTENDING.md section 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, Union, runtime_checkable

from repro.core.channels import Channel, ChannelSet
from repro.core.content import ContentItem
from repro.core.lyapunov import (
    LyapunovConfig,
    LyapunovController,
    LyapunovState,
)
from repro.core.utility import CombinedUtilityModel
from repro.runtime import kernels
from repro.runtime.registry import register

#: One selected delivery: ``(item, level)`` on the legacy single-channel
#: path, or ``(item, level, channel)`` when a multi-channel
#: :class:`~repro.core.channels.ChannelSet` is configured.
Selection = Union[
    "tuple[ContentItem, int]", "tuple[ContentItem, int, Channel]"
]


def _multi_channel(channels: ChannelSet | None) -> bool:
    """True when selection must pick a channel jointly with the level."""
    return channels is not None and not channels.is_single_passthrough


@dataclass(frozen=True, slots=True)
class RoundContext:
    """Everything a policy may consult when selecting for one round.

    ``items`` are the selection-eligible scheduling-queue entries (TTL
    survivors, not in retry backoff), in queue order.  ``backlog_bytes``
    / ``energy_available_joules`` are the ``Q(t)`` / ``P(t)`` snapshots
    frozen for the round, and ``estimate_energy`` prices a download of a
    given size under the round's (fixed) network state.  ``channels`` is
    the configured :class:`~repro.core.channels.ChannelSet`; ``None`` (or
    a single passthrough channel) selects the legacy single-push path and
    policies then return plain ``(item, level)`` pairs.
    """

    now: float
    effective_budget: int
    items: Sequence[ContentItem]
    backlog_bytes: float
    energy_available_joules: float
    utility_model: CombinedUtilityModel
    estimate_energy: Callable[[int], float]
    channels: ChannelSet | None = None


@dataclass(frozen=True, slots=True)
class RoundDecision:
    """A policy's answer: ``(item, level > 0)`` pairs within budget.

    With multiple channels configured, selections are
    ``(item, level, channel)`` triples and ``total_size`` counts *billed*
    bytes (what the data budget is charged) rather than wire bytes.
    """

    selections: list
    total_size: int = 0
    total_profit: float = 0.0


@runtime_checkable
class SchedulerPolicy(Protocol):
    """Anything that can pick this round's deliveries.

    Optional hooks, discovered via ``getattr``:

    * ``attach(loop)`` -- called once when the policy is bound to a
      :class:`~repro.runtime.loop.RoundLoop`; validate or derive
      configuration from the loop's budgets here.
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
        config is derived from the bound loop's energy budget at
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
        state = LyapunovState(
            q_bytes=ctx.backlog_bytes,
            p_joules=ctx.energy_available_joules,
        )
        items = list(ctx.items)
        if _multi_channel(ctx.channels):
            return self._select_channels(ctx, items, state)
        if type(ctx.utility_model) is CombinedUtilityModel:
            sizes_rows, profits_rows = self._array_profiles(ctx, items, state)
        else:
            # Custom utility models keep the scalar per-item path.
            sizes_rows, profits_rows = self._object_profiles(ctx, items, state)

        levels, total_size, total_profit = kernels.greedy_select_heap(
            [item.item_id for item in items],
            sizes_rows,
            profits_rows,
            ctx.effective_budget,
        )
        return RoundDecision(
            selections=[
                (items[index], level)
                for index, level in enumerate(levels)
                if level > 0
            ],
            total_size=total_size,
            total_profit=total_profit,
        )

    def _select_channels(
        self,
        ctx: RoundContext,
        items: list[ContentItem],
        state: LyapunovState,
    ) -> RoundDecision:
        """Joint (channel x level) MCKP over the configured channel set.

        Each item's choice set is the union of every channel's ladder:
        per channel the Eq. 7 adjustment is computed on that channel's
        presentation utilities and *wire*-size energies, then the rows
        are fused by :func:`repro.runtime.kernels.merge_channel_rows`
        into one strictly-increasing row priced in *billed* bytes.
        Cross-channel gradients are not monotone, so Algorithm 1 always
        runs behind the hull (LP-domination) preprocessing here.
        """
        channels = list(ctx.channels)
        model = ctx.utility_model
        now = ctx.now
        energy_cache: dict[int, float] = {}

        def priced_energy(wire_size: int) -> float:
            energy = energy_cache.get(wire_size)
            if energy is None:
                energy = ctx.estimate_energy(wire_size)
                energy_cache[wire_size] = energy
            return energy

        sizes_rows: list[list[int]] = []
        profits_rows: list[list[float]] = []
        backmaps: list[list[tuple[int, int]]] = []
        for item in items:
            # Q(t)'s per-item contribution stays the item's native ladder
            # (Eq. 4: queue backlog is independent of the route chosen).
            item_backlog = float(item.ladder.total_size())
            billed_rows: list[list[int]] = []
            adjusted_rows: list[list[float]] = []
            for channel in channels:
                ladder = channel.ladder_for(item)
                n_levels = ladder.max_level + 1
                wire_sizes = [ladder.size(level) for level in range(n_levels)]
                utilities = [
                    channel.utility(model, item, level, now)
                    for level in range(n_levels)
                ]
                energies = [0.0] + [
                    priced_energy(size) for size in wire_sizes[1:]
                ]
                billed_rows.append(
                    [0]
                    + [
                        channel.cost.billed_bytes(size)
                        for size in wire_sizes[1:]
                    ]
                )
                adjusted_rows.append(
                    self.controller.adjusted_profile(
                        state, item_backlog, energies, utilities
                    )
                )
            merged_sizes, merged_profits, backmap = kernels.merge_channel_rows(
                billed_rows, adjusted_rows
            )
            sizes_rows.append(merged_sizes)
            profits_rows.append(merged_profits)
            backmaps.append(backmap)

        choices, total_size, total_profit = kernels.greedy_select_hull(
            [item.item_id for item in items],
            sizes_rows,
            profits_rows,
            ctx.effective_budget,
        )
        selections = []
        for index, choice in enumerate(choices):
            if choice == 0:
                continue
            channel_index, level = backmaps[index][choice]
            selections.append((items[index], level, channels[channel_index]))
        return RoundDecision(
            selections=selections,
            total_size=total_size,
            total_profit=total_profit,
        )

    def _array_profiles(
        self,
        ctx: RoundContext,
        items: list[ContentItem],
        state: LyapunovState,
    ) -> tuple[list[list[int]], list[list[float]]]:
        """Adjusted-profit rows via matrix kernels, one group per ladder.

        The decayed content column, the per-level presentation row and the
        Eq. 7 adjustment are each the same float operations as the scalar
        path (see :mod:`repro.runtime.kernels`), so the resulting rows --
        and therefore the greedy's selections -- are bit-identical.
        Energy estimates are memoized by size: the device's network state
        is fixed within a round, so equal sizes price equally.
        """
        now = ctx.now
        aging = ctx.utility_model.aging
        if aging is None:
            contents = [item.content_utility for item in items]
        else:
            contents = [
                aging.decay(item.content_utility, max(0.0, now - item.created_at))
                for item in items
            ]

        groups: dict[int, tuple] = {}
        for index, item in enumerate(items):
            entry = groups.get(id(item.ladder))
            if entry is None:
                groups[id(item.ladder)] = (item.ladder, [index])
            else:
                entry[1].append(index)

        cfg = self.controller.config
        energy_cache: dict[int, float] = {}
        sizes_rows: list[list[int]] = [None] * len(items)  # type: ignore[list-item]
        profits_rows: list[list[float]] = [None] * len(items)  # type: ignore[list-item]
        for ladder, indices in groups.values():
            n_levels = ladder.max_level + 1
            level_sizes = [ladder.size(level) for level in range(n_levels)]
            presentation_row = [ladder.utility(level) for level in range(n_levels)]
            energies = [0.0]
            for size in level_sizes[1:]:
                energy = energy_cache.get(size)
                if energy is None:
                    energy = ctx.estimate_energy(size)
                    energy_cache[size] = energy
                energies.append(energy)
            item_backlog = float(ladder.total_size())

            utilities = kernels.combined_utility_matrix(
                [contents[index] for index in indices], presentation_row
            )
            adjusted = kernels.lyapunov_adjusted_matrix(
                utilities,
                energies,
                [item_backlog] * len(indices),
                q_bytes=state.q_bytes,
                p_joules=state.p_joules,
                kappa_joules=cfg.kappa_joules,
                v=cfg.v,
                size_scale=cfg.size_scale,
                energy_scale=cfg.energy_scale,
            )
            for index, row in zip(indices, adjusted.tolist()):
                sizes_rows[index] = level_sizes
                profits_rows[index] = row
        return sizes_rows, profits_rows

    def _object_profiles(
        self,
        ctx: RoundContext,
        items: list[ContentItem],
        state: LyapunovState,
    ) -> tuple[list[list[int]], list[list[float]]]:
        """Scalar per-item fallback for user-supplied utility models."""
        model = ctx.utility_model
        sizes_rows: list[list[int]] = []
        profits_rows: list[list[float]] = []
        for item in items:
            ladder = item.ladder
            n_levels = ladder.max_level + 1
            if hasattr(model, "utilities_for_ladder"):
                utilities = model.utilities_for_ladder(item, ctx.now)
            else:
                utilities = [
                    model.utility(item, level, ctx.now)
                    for level in range(n_levels)
                ]
            energies = [
                ctx.estimate_energy(ladder.size(level)) if level > 0 else 0.0
                for level in range(n_levels)
            ]
            profits = self.controller.adjusted_profile(
                state, float(ladder.total_size()), energies, utilities
            )
            sizes_rows.append([ladder.size(level) for level in range(n_levels)])
            profits_rows.append(profits)
        return sizes_rows, profits_rows


class FixedLevelPolicy:
    """Common base for the baselines: deliver at ``fixed_level`` in order.

    Subclasses define :meth:`order_items`; :meth:`fill` greedily takes
    items in that order, always at the (ladder-clamped) fixed level,
    while the remaining round budget affords them.  An item whose fixed
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
        self, ordered: list[ContentItem], effective_budget: int
    ) -> list[tuple[ContentItem, int]]:
        remaining = effective_budget
        chosen: list[tuple[ContentItem, int]] = []
        for item in ordered:
            level = self.level_for(item)
            size = item.ladder.size(level)
            if size <= remaining:
                chosen.append((item, level))
                remaining -= size
        return chosen

    def fill_channel(
        self,
        ordered: list[ContentItem],
        effective_budget: int,
        channel: Channel,
    ) -> list:
        """Greedy fixed-level fill routed over one channel (billed bytes)."""
        remaining = effective_budget
        chosen: list = []
        for item in ordered:
            level = min(self.fixed_level, channel.max_level(item))
            size = channel.billed_size(item, level)
            if size <= remaining:
                chosen.append((item, level, channel))
                remaining -= size
        return chosen

    def select(self, ctx: RoundContext) -> RoundDecision:
        ordered = self.order_items(list(ctx.items), ctx.now, ctx.utility_model)
        if _multi_channel(ctx.channels):
            # Baselines have no channel optimization: everything rides the
            # primary channel, mirroring a fixed-level push pipeline.
            return RoundDecision(
                selections=self.fill_channel(
                    ordered, ctx.effective_budget, ctx.channels.primary
                )
            )
        return RoundDecision(selections=self.fill(ordered, ctx.effective_budget))


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
