"""Round-loop data types shared by every layer of the runtime.

These are the *wire types* of the scheduling runtime: what a round
delivers (:class:`Delivery`), what it evicts (:class:`DroppedItem`) and
one user's round (:class:`RoundResult`).  They sit at the bottom of
the runtime stack -- kernels, policies, the round loop, the delivery
engine and every orchestration layer exchange them -- so this module
imports nothing above :mod:`repro.core.content`.

All three are ``slots`` dataclasses: deliveries and round results are
allocated once per delivered presentation / per round per user, which on
a million-user deployment is the dominant object churn of the hot path.
(Dropping the per-instance ``__dict__`` cuts a ``Delivery`` from ~145 to
~80 bytes and removes a dict allocation per event.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.content import ContentItem


@dataclass(frozen=True, slots=True)
class Delivery:
    """One presentation delivered to the device.

    ``channel`` names the delivery transport
    (:class:`repro.core.channels.Channel`); the default ``"push"`` is the
    paper's single channel.  ``size_bytes`` is always the *wire* size of
    the presentation -- the channel's billed (data-budget) size can be
    recomputed from its cost curve.
    """

    time: float
    user_id: int
    item: ContentItem
    level: int
    size_bytes: int
    energy_joules: float
    utility: float
    channel: str = "push"


@dataclass(frozen=True, slots=True)
class DroppedItem:
    """An item evicted from the scheduling queue without delivery.

    ``reason`` is structured as ``"<cause>"`` or ``"<cause>:<fault_kind>"``,
    e.g. ``"ttl_expired"``, ``"delivery_failed:timeout"``,
    ``"retry_would_expire:disconnect"``.  ``attempts`` counts delivery
    attempts made before the item was dead-lettered (0 when it never
    reached the delivery path).
    """

    time: float
    item: ContentItem
    reason: str
    attempts: int = 0
    #: Transport of the last failed attempt.
    channel: str = "push"


@dataclass(slots=True)
class RoundResult:
    """Outcome of one scheduling round for one user."""

    round_index: int
    time: float
    deliveries: list[Delivery] = field(default_factory=list)
    dropped: list[DroppedItem] = field(default_factory=list)
    queue_length_after: int = 0
    backlog_bytes_after: float = 0.0
    data_budget_after: float = 0.0
    energy_budget_after: float = 0.0
    connected: bool = True

    @property
    def delivered_utility(self) -> float:
        return sum(d.utility for d in self.deliveries)
