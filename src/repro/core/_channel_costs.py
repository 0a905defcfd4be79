"""Per-channel cost tables (private to :mod:`repro.core.channels`).

These constants parameterize the built-in delivery channels: how billed
bytes relate to wire bytes, the fixed protocol overhead of an envelope,
which transports ride the cellular link, and the presentation ladder of
each transport that re-renders content.  "A Mechanism for Optimizing
Media Recommender Systems" (PAPERS.md) motivates treating per-channel
cost curves as first-class inputs to the utility/cost trade-off; the
numbers here are illustrative operating points, not measurements.

Layering contract (``tests/test_layering.py``): only
``repro.core.channels`` may import this module.  Everything else must go
through the :class:`~repro.core.channels.Channel` objects, so there is
exactly one place where raw cost tables turn into behaviour.
"""

from __future__ import annotations

#: name -> (per_byte multiplier, fixed overhead bytes) of the billed-cost
#: curve.  ``billed = round(per_byte * wire) + overhead`` for a non-empty
#: payload; level 0 (not sent) always bills zero.
COST_CURVES: dict[str, tuple[float, int]] = {
    # Push is the paper's channel: metered byte-for-byte, no overhead.
    "push": (1.0, 0),
    # In-app inbox rides an already-open session; cheaper per byte but a
    # small sync-envelope overhead.
    "inapp": (0.5, 256),
    # Email bodies are cheap (pull on WiFi, typically), with a MIME
    # envelope overhead.
    "email": (0.25, 2048),
    # Messenger-style channels are metered like push plus webhook framing.
    "messenger": (1.0, 512),
}

#: Channels whose bytes ride the user's cellular link and therefore draw
#: from a shared cell-tower pool (``SharedCellCapacity``).  Email is
#: fetched lazily (typically on WiFi) and is exempt.
CELL_COUPLED: frozenset[str] = frozenset({"push", "inapp", "messenger"})

#: Presentation-ladder shapes for channels that re-render content instead
#: of using the item's own ladder: ``name -> ((size, utility), ...)`` for
#: levels 1..k (level 0 is implicit).  ``None``-ladder channels (push)
#: present the item's native ladder unchanged.
LADDER_SHAPES: dict[str, tuple[tuple[int, float], ...]] = {
    # In-app: metadata card and a compact preview only.
    "inapp": ((600, 0.25), (24_000, 0.55)),
    # Email digest: text-only, then inline artwork.
    "email": ((1_200, 0.18), (60_000, 0.40)),
    # Messenger: text, sticker-sized art, short clip.
    "messenger": ((800, 0.30), (30_000, 0.60), (160_000, 0.85)),
}
