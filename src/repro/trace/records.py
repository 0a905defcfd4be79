"""The flat notification-trace record: the unit of the synthetic dataset.

Mirrors what the paper extracted from the de-identified Spotify logs after
joining three sources (Section V-A): the notification log, the mouse
activity log (click / hover), and the social graph + public-API metadata
(popularity scores, social ties).  One record = one notification delivered
to one user, with its features and interaction labels.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from repro.pubsub.topics import TopicKind


@dataclass(frozen=True)
class NotificationRecord:
    """One notification with features and ground-truth interaction labels.

    The scheduler and classifier only ever see the feature fields; the
    ``clicked``/``hovered``/``click_time`` labels are used for supervised
    training (clicked-vs-hovered, Section V-A) and for evaluation metrics
    (precision/recall of delivered notifications).
    """

    notification_id: int
    recipient_id: int
    sender_id: int
    kind: TopicKind
    track_id: int
    album_id: int
    artist_id: int
    track_popularity: int
    album_popularity: int
    artist_popularity: int
    tie_strength: float
    is_friend: bool
    favorite_genre: bool
    timestamp: float
    hovered: bool
    clicked: bool
    click_time: float | None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValueError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if self.click_time is not None and not math.isfinite(self.click_time):
            raise ValueError(f"click time must be finite, got {self.click_time}")
        if not 0.0 <= self.tie_strength <= 1.0:
            raise ValueError("tie strength must be in [0, 1]")
        if self.clicked and not self.hovered:
            raise ValueError("a click implies mouse attention (hovered)")
        if self.clicked and self.click_time is None:
            raise ValueError("clicked records need a click time")
        if self.click_time is not None and self.click_time < self.timestamp:
            raise ValueError("click cannot precede the notification")

    @property
    def attended(self) -> bool:
        """Whether the user gave any mouse attention (the training filter)."""
        return self.hovered

    def hour_of_day(self) -> float:
        return (self.timestamp / 3600.0) % 24.0

    def is_weekend(self) -> bool:
        """Trace epoch is taken to start on a Monday 00:00."""
        day = int(self.timestamp // 86400.0) % 7
        return day >= 5

    def is_night(self) -> bool:
        hour = self.hour_of_day()
        return hour >= 22.0 or hour < 6.0

    def to_dict(self) -> dict:
        # Every field is a scalar: no ``asdict`` deep copy is needed.
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["kind"] = self.kind.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "NotificationRecord":
        payload = dict(data)
        payload["kind"] = TopicKind(payload["kind"])
        return cls(**payload)


_FIELD_NAMES = tuple(field.name for field in fields(NotificationRecord))


#: The shard-store columns :func:`first_broken_record` reads.
CHECKED_COLUMNS = ("timestamp", "click_time", "tie_strength", "hovered", "clicked")


def first_broken_record(columns: Mapping[str, np.ndarray]) -> tuple[int, str, str] | None:
    """:meth:`NotificationRecord.__post_init__`'s invariants over shard-store
    columns (``click_time`` ``NaN`` stands for ``None``), vectorised.

    Returns ``(row, column, message)`` for the first row that breaks an
    invariant -- the first one it breaks, in ``__post_init__``'s order,
    as building the records in row order would raise -- with ``column``
    the column that breaks it, or ``None`` when every row holds.  The
    first row of a concatenation is thus the first of its first broken
    part: a caller may check a long column block by block.
    """
    timestamp, click_time = columns["timestamp"], columns["click_time"]
    tie_strength = columns["tie_strength"]
    hovered = columns["hovered"].astype(bool)
    clicked = columns["clicked"].astype(bool)
    no_click = np.isnan(click_time)
    found = None
    for column, broken, message in (
        ("timestamp", ~(np.isfinite(timestamp) & (timestamp >= 0)),
         "timestamp must be finite and >= 0"),
        ("click_time", ~no_click & ~np.isfinite(click_time), "click time must be finite"),
        ("tie_strength", ~((tie_strength >= 0.0) & (tie_strength <= 1.0)),
         "tie strength must be in [0, 1]"),
        ("hovered", clicked & ~hovered, "a click implies mouse attention (hovered)"),
        ("click_time", clicked & no_click, "clicked records need a click time"),
        ("click_time", click_time < timestamp, "click cannot precede the notification"),
    ):
        if broken.any():
            row = int(np.argmax(broken))
            if found is None or row < found[0]:
                found = (row, column, message)
    return found


def check_record_columns(user_id: int, columns: Mapping[str, np.ndarray]) -> None:
    """:func:`first_broken_record` on one user's columns: the first broken
    invariant raises ``ValueError`` naming the user and the row."""
    broken = first_broken_record(columns)
    if broken is not None:
        row, _, message = broken
        raise ValueError(f"user {user_id}, row {row}: {message}")
