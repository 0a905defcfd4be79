"""Delivery channels: cost curve and presentation ladder.

The paper evaluates a single push channel whose billed bytes equal the
wire bytes of the chosen presentation.  Real notification stacks deliver
over several transports at once -- push, an in-app inbox, email digests,
messenger-style webhooks -- and each has its own *cost curve* (billed
bytes per wire byte plus envelope overhead) and, when the transport
re-renders content, its own *presentation ladder*.

:class:`Channel` packages those axes.  A channel with no ladder
override and an identity cost curve (:attr:`Channel.is_passthrough`)
*is* the paper's push channel: its wire sizes are the item's own ladder,
its billed bytes the wire bytes, its utility the model's.  The scalar
runtime therefore has no single-channel code path -- a loop configured
with no channels runs the one-channel :func:`default_channel_set`, and
every selection is an ``(item, level, channel)`` triple (the golden
digests in ``tests/test_runtime.py`` pin the push behaviour).

Selection is a joint (channel x level) multiple-choice knapsack: each
item's choice set is the union of every channel's ladder, priced in
*billed* bytes against the data budget while energy is priced on *wire*
bytes (see :func:`repro.runtime.kernels.merge_channel_rows_batched`).

Built-in channels are built by name (``push`` / ``inapp`` / ``email`` /
``messenger``, :func:`builtin_channel`); a custom channel is a
:class:`Channel` placed in a :class:`ChannelSet` (docs/EXTENDING.md
section 10).  The raw cost tables live in :mod:`repro.core._channel_costs`,
which only this module may import (``tests/test_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core import _channel_costs
from repro.core.content import ContentItem, Presentation, PresentationLadder

__all__ = [
    "Channel",
    "ChannelCostCurve",
    "ChannelSet",
    "builtin_channel",
    "default_channel_set",
]


@dataclass(frozen=True, slots=True)
class ChannelCostCurve:
    """Billed bytes as a function of wire bytes.

    ``billed = round(per_byte * wire) + overhead_bytes`` for any non-empty
    payload; a zero-byte payload (level 0, not sent) always bills zero.
    The identity curve (``per_byte=1, overhead=0``) reproduces the
    paper's accounting: billed == wire.
    """

    per_byte: float = 1.0
    overhead_bytes: int = 0

    def __post_init__(self) -> None:
        if self.per_byte < 0:
            raise ValueError(f"per_byte must be >= 0, got {self.per_byte}")
        if self.overhead_bytes < 0:
            raise ValueError(
                f"overhead_bytes must be >= 0, got {self.overhead_bytes}"
            )

    @property
    def is_identity(self) -> bool:
        # Exact on purpose: identity pricing is a configured constant
        # (the push channel's 1.0), never the result of arithmetic.
        return self.per_byte == 1.0 and self.overhead_bytes == 0

    def billed_bytes(self, wire_bytes: int) -> int:
        """Data-budget cost of sending ``wire_bytes`` over this channel."""
        if wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {wire_bytes}")
        if wire_bytes == 0:
            return 0
        if self.is_identity:
            return int(wire_bytes)
        return int(round(self.per_byte * wire_bytes)) + self.overhead_bytes


@dataclass(frozen=True)
class Channel:
    """One delivery transport.

    ``ladder`` overrides how content is presented on this channel; ``None``
    (push) presents each item's own ladder unchanged.  ``cell_coupled``
    marks channels whose wire bytes ride the cellular link and therefore
    draw from a shared per-cell pool
    (:class:`repro.pubsub.capacity.SharedCellCapacity`).
    """

    name: str
    cost: ChannelCostCurve = field(default_factory=ChannelCostCurve)
    ladder: PresentationLadder | None = None
    cell_coupled: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("channel name must be non-empty")

    @property
    def is_passthrough(self) -> bool:
        """Does this channel behave exactly like the paper's push channel?

        A passthrough channel presents the item's native ladder and bills
        wire bytes one-for-one.
        """
        return self.ladder is None and self.cost.is_identity

    def ladder_for(self, item: ContentItem) -> PresentationLadder:
        return self.ladder if self.ladder is not None else item.ladder

    def max_level(self, item: ContentItem) -> int:
        return self.ladder_for(item).max_level

    def wire_size(self, item: ContentItem, level: int) -> int:
        """Bytes over the air for ``item`` at ``level`` on this channel."""
        return self.ladder_for(item).size(level)

    def billed_size(self, item: ContentItem, level: int) -> int:
        """Data-budget bytes for ``item`` at ``level`` on this channel."""
        return self.cost.billed_bytes(self.wire_size(item, level))

    def utility(self, model, item: ContentItem, level: int, now=None) -> float:
        """Eq. 1 on this channel: decayed ``U_c(i)`` x this ladder's ``U_p``.

        With no ladder override this defers to ``model.utility``.
        """
        if self.ladder is None:
            return model.utility(item, level, now)
        content = item.content_utility
        aging = getattr(model, "aging", None)
        if aging is not None and now is not None:
            age = max(0.0, now - item.created_at)
            content = aging.decay(content, age)
        return content * self.ladder.utility(level)


class ChannelSet:
    """An ordered, name-unique set of channels; the first is primary.

    The primary channel is the default route for fixed-level baseline
    policies and for selections that do not name a channel.
    """

    __slots__ = ("_channels", "_by_name")

    def __init__(self, channels: Sequence[Channel]):
        channels = tuple(channels)
        if not channels:
            raise ValueError("a ChannelSet needs at least one channel")
        by_name: dict[str, Channel] = {}
        for channel in channels:
            if channel.name in by_name:
                raise ValueError(f"duplicate channel name {channel.name!r}")
            by_name[channel.name] = channel
        self._channels = channels
        self._by_name = by_name

    @property
    def primary(self) -> Channel:
        return self._channels[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(channel.name for channel in self._channels)

    @property
    def is_single_passthrough(self) -> bool:
        """One passthrough channel: the paper's single-push configuration.

        Its choice rows are the items' own ladders, which Algorithm 1
        takes as they are; any other set is merged across channels and
        reduced to its convex hull first.
        """
        return len(self._channels) == 1 and self._channels[0].is_passthrough

    def get(self, name: str) -> Channel:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown channel {name!r}; configured: {list(self.names)}"
            ) from None

    def get_or_primary(self, name: str) -> Channel:
        """The named channel, or the primary when ``name`` is unknown."""
        return self._by_name.get(name, self.primary)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels)

    def __len__(self) -> int:
        return len(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelSet({list(self.names)})"


def _ladder_from_shape(shape: tuple[tuple[int, float], ...]) -> PresentationLadder:
    levels = [Presentation(level=0, size_bytes=0, utility=0.0)]
    for offset, (size, utility) in enumerate(shape, start=1):
        levels.append(
            Presentation(level=offset, size_bytes=size, utility=utility)
        )
    return PresentationLadder(levels)


def builtin_channel(name: str) -> Channel:
    """A built-in channel by name, from the cost tables."""
    try:
        per_byte, overhead = _channel_costs.COST_CURVES[name]
    except KeyError:
        raise KeyError(
            f"unknown channel {name!r}; built-ins: {list(_channel_costs.COST_CURVES)}"
        ) from None
    shape = _channel_costs.LADDER_SHAPES.get(name)
    return Channel(
        name=name,
        cost=ChannelCostCurve(per_byte=per_byte, overhead_bytes=overhead),
        ladder=_ladder_from_shape(shape) if shape is not None else None,
        cell_coupled=name in _channel_costs.CELL_COUPLED,
    )


def default_channel_set() -> ChannelSet:
    """The paper's configuration: the push channel alone."""
    return ChannelSet([builtin_channel("push")])
