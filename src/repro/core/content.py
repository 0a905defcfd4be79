"""Content items and presentation ladders.

A *content item* is the unit of notification in RichNote: a music track a
friend streamed, an album release, a playlist update.  Each item can be
presented to the user at one of several discrete *presentation levels*
(Section III-B of the paper):

* level 0  -- no presentation at all: the notification is not sent
  (zero size, zero utility);
* level 1  -- the smallest real presentation: essential metadata only,
  no media sample;
* levels 2..k_i -- progressively richer presentations, each strictly
  larger in size and strictly higher in presentation utility than the
  previous one (monotone, with diminishing returns).

The :class:`PresentationLadder` enforces these ordering invariants at
construction time so the selection algorithms downstream may rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence


class ContentKind(str, Enum):
    """The Spotify-style publication types that give rise to notifications."""

    FRIEND_FEED = "friend_feed"
    ALBUM_RELEASE = "album_release"
    PLAYLIST_UPDATE = "playlist_update"


@dataclass(frozen=True, slots=True)
class Presentation:
    """One concrete presentation of a content item.

    Attributes
    ----------
    level:
        Discrete presentation level, ``0 <= level <= k_i``.  Level 0 means
        "do not send"; level 1 is metadata-only.
    size_bytes:
        Total byte size of the presentation, ``s(i, j)`` in the paper.
    utility:
        Presentation utility ``U_p(i, j)`` in [0, 1] relative to the full
        content.  Level 0 has utility exactly 0.
    description:
        Human-readable label, e.g. ``"metadata+10s@160kbps"``.
    """

    level: int
    size_bytes: int
    utility: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"presentation level must be >= 0, got {self.level}")
        if self.size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {self.size_bytes}")
        if self.level == 0 and (self.size_bytes != 0 or self.utility != 0.0):
            raise ValueError("level 0 must have zero size and zero utility")
        if self.utility < 0:
            raise ValueError(f"utility must be >= 0, got {self.utility}")


class PresentationLadder:
    """The ordered set of presentations available for one content item.

    Invariants (Section III-B):

    * level indices are exactly ``0, 1, ..., k``;
    * sizes strictly increase with level (beyond level 0);
    * utilities strictly increase with level ("information never hurts").

    The ladder does not itself enforce diminishing returns; generators that
    build ladders from utility curves (see :mod:`repro.core.presentations`)
    produce concave utility sequences, and :meth:`is_concave` lets callers
    check.
    """

    __slots__ = ("_levels", "_total_size")

    def __init__(self, presentations: Sequence[Presentation]):
        ladder = sorted(presentations, key=lambda p: p.level)
        if not ladder:
            raise ValueError("ladder must contain at least level 0")
        for expected, pres in enumerate(ladder):
            if pres.level != expected:
                raise ValueError(
                    f"ladder levels must be consecutive from 0; "
                    f"expected {expected}, got {pres.level}"
                )
        if ladder[0].level != 0:
            raise ValueError("ladder must include level 0 (not sent)")
        for lo, hi in zip(ladder, ladder[1:]):
            if hi.size_bytes <= lo.size_bytes:
                raise ValueError(
                    f"sizes must strictly increase with level: "
                    f"level {hi.level} size {hi.size_bytes} <= "
                    f"level {lo.level} size {lo.size_bytes}"
                )
            if hi.utility <= lo.utility:
                raise ValueError(
                    f"utilities must strictly increase with level: "
                    f"level {hi.level} utility {hi.utility} <= "
                    f"level {lo.level} utility {lo.utility}"
                )
        self._levels: tuple[Presentation, ...] = tuple(ladder)
        self._total_size = sum(p.size_bytes for p in ladder)

    @property
    def max_level(self) -> int:
        """The richest level ``k_i``."""
        return self._levels[-1].level

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self) -> Iterator[Presentation]:
        return iter(self._levels)

    def __getitem__(self, level: int) -> Presentation:
        if not 0 <= level <= self.max_level:
            raise IndexError(f"no presentation at level {level}")
        return self._levels[level]

    def size(self, level: int) -> int:
        """``s(i, j)`` -- byte size of the presentation at ``level``."""
        return self[level].size_bytes

    def utility(self, level: int) -> float:
        """``U_p(i, j)`` -- presentation utility at ``level``."""
        return self[level].utility

    def total_size(self) -> int:
        """``s(i) = sum_j s(i, j)`` -- the queue-backlog size of the item.

        The paper's queue update (Eq. 4) drops *all* presentations of an
        item from the scheduling queue upon delivery, so the backlog
        contribution of an item is the sum over its presentations.
        """
        return self._total_size

    def is_concave(self) -> bool:
        """Whether marginal utility per level is non-increasing.

        This is the "diminishing returns" property of Section III-A.  It is
        checked with respect to level index; generators built from concave
        curves of size satisfy the stronger gradient-monotonicity used by
        the fractional-MCKP optimality argument.
        """
        gains = [
            hi.utility - lo.utility
            for lo, hi in zip(self._levels, self._levels[1:])
        ]
        return all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"L{p.level}:{p.size_bytes}B/{p.utility:.3f}" for p in self._levels
        )
        return f"PresentationLadder({inner})"


@dataclass(slots=True)
class ContentItem:
    """A single notifiable content item flowing through the system.

    Attributes
    ----------
    item_id:
        Globally unique identifier.
    user_id:
        The recipient this item is destined for (selection is per-user).
    kind:
        Publication type (friend feed / album release / playlist update).
    created_at:
        Seconds since simulation epoch at which the item became available.
    ladder:
        The presentation ladder for this item.
    content_utility:
        ``U_c(i)`` in [0, 1]: the learned probability that the user consumes
        the item.  Assigned by the utility model before scheduling.
    clicked:
        Ground-truth label from the trace (did the user click it).  Used
        only for evaluation metrics, never by the scheduler.
    click_time:
        Trace timestamp of the recorded click, if any.
    metadata:
        Free-form attributes (track/artist/album ids, popularity...), used
        for feature extraction.
    """

    item_id: int
    user_id: int
    kind: ContentKind
    created_at: float
    ladder: PresentationLadder
    content_utility: float = 0.0
    clicked: bool = False
    click_time: float | None = None
    metadata: dict = field(default_factory=dict)

    def combined_utility(self, level: int) -> float:
        """``U(i, j) = U_c(i) * U_p(i, j)`` (Eq. 1)."""
        return self.content_utility * self.ladder.utility(level)

    def __post_init__(self) -> None:
        if not 0.0 <= self.content_utility <= 1.0:
            raise ValueError(
                f"content utility must be in [0, 1], got {self.content_utility}"
            )
