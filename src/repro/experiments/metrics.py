"""Evaluation metrics of Section V-C.

Definitions (quoting the paper):

* **Delivery ratio** -- "the fraction of notifications delivered";
* **Precision** -- "the fraction of delivered notifications (before the
  recorded click time in the Spotify trace) that are clicked on by the
  users";
* **Recall** -- "the fraction of total clicked notifications that are
  delivered to the users";
* **Average utility** -- "average utility of delivered notifications ...
  computed using Equation 1";
* **Download energy** -- "energy spent in downloading notifications based
  on the energy model from [9]";
* **Queuing delay** -- "the time between when a notification arrives in
  the broker and when it is delivered".

Unless stated otherwise, values are averaged across users.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import add, gt
from typing import Sequence

import numpy as np

from repro.runtime.types import Delivery
from repro.trace.records import NotificationRecord


@dataclass(frozen=True)
class UserMetrics:
    """Metrics of one user's simulation run."""

    user_id: int
    total_notifications: int
    delivered_notifications: int
    delivered_bytes: float
    clicked_total: int
    clicked_delivered_in_time: int
    total_utility: float
    clicked_utility: float
    energy_joules: float
    mean_queuing_delay_s: float
    level_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        if self.total_notifications == 0:
            return 0.0
        return self.delivered_notifications / self.total_notifications

    @property
    def precision(self) -> float:
        if self.delivered_notifications == 0:
            return 0.0
        return self.clicked_delivered_in_time / self.delivered_notifications

    @property
    def recall(self) -> float:
        if self.clicked_total == 0:
            return 0.0
        return self.clicked_delivered_in_time / self.clicked_total

    @property
    def average_utility(self) -> float:
        if self.delivered_notifications == 0:
            return 0.0
        return self.total_utility / self.delivered_notifications


def segment_bounds(offsets: Sequence[int], segments: int, *columns) -> list[int]:
    """``offsets`` as Python ints, checked to cut every column into exactly
    ``segments`` whole segments: ``segments + 1`` entries from 0, never
    decreasing, ending at every column's length.  A kernel that read past or
    short of a column would hash or fold the wrong rows without a word."""
    bounds = np.asarray(offsets, dtype=np.int64).tolist()
    if len(bounds) != segments + 1:
        raise ValueError(
            f"{len(bounds)} offsets for {segments} segments; want {segments + 1}"
        )
    if bounds[0] != 0 or any(map(gt, bounds, bounds[1:])):
        raise ValueError(f"offsets must start at 0 and never decrease, got {bounds[:8]}")
    lengths = {len(column) for column in columns}
    if lengths - {bounds[-1]}:
        raise ValueError(
            f"offsets end at row {bounds[-1]}, columns hold {sorted(lengths)} rows"
        )
    return bounds


class _Segments:
    """Rows ``bounds[u]:bounds[u + 1]`` of a call's columns are user ``u``'s.

    A reduction lays the rows out in one buffer, each segment behind a
    leading 0 (at ``heads``), and reduces every segment with one
    ``reduceat``: an empty segment reduces to its 0.
    """

    def __init__(self, bounds: list[int]) -> None:
        self.bounds = bounds
        cuts = np.asarray(bounds, dtype=np.int64)
        self.lengths = cuts[1:] - cuts[:-1]
        self.heads = cuts[:-1] + np.arange(len(self.lengths))
        self.slots = np.ones(cuts[-1] + len(self.heads), dtype=bool)
        self.slots[self.heads] = False

    def slices(self):
        return map(slice, self.bounds, self.bounds[1:])

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray, dtype) -> list:
        if not len(self.heads):
            return []
        buffer = np.zeros(len(self.slots), dtype=dtype)
        buffer[self.slots] = values
        return ufunc.reduceat(buffer, self.heads).tolist()

    def counts(self, mask: np.ndarray) -> list[int]:
        """How many rows of each segment ``mask`` holds."""
        return self._reduce(np.add, mask, np.int64)

    def left_folds(self, negated: np.ndarray) -> list[float]:
        """``0.0 + x1 + x2 + ...`` per segment, in row order, given ``-x``.

        ``np.subtract.reduceat`` is a sequential fold, and ``a - -x`` is
        ``a + x`` to the bit (signed zeros included): over ``[0, -x1, -x2,
        ...]`` it yields the ``+`` fold from ``0.0``, where
        ``np.add.reduceat`` would sum pairwise.  A row holding ``0.0`` is
        skipped exactly (``a - 0.0`` is ``a``).
        """
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, as the + fold gives
            return self._reduce(np.subtract, negated, np.float64)

    def totals(self, column: np.ndarray) -> list:
        """``reduce(add, column[lo:hi].tolist(), 0)`` per segment: the total
        of the values ``tolist()`` yields, left to right from the int 0.

        A float column is one :meth:`left_folds` (an empty segment keeps
        the int 0).  An integer column is summed exactly, as Python ints
        are: its high and low 32 bits are summed apart, so neither int64
        sum can overflow.  Anything else is a column of objects, each
        added as the object it holds, one segment at a time.
        """
        kind = column.dtype.kind
        if kind == "f":
            folds = self.left_folds(-column.astype(np.float64, copy=False))
            return [total if rows else 0 for total, rows in zip(folds, self.lengths.tolist())]
        if kind in "biu":
            wide = column.astype(np.uint64 if kind == "u" else np.int64)
            high = self._reduce(np.add, wide >> 32, np.int64)
            low = self._reduce(np.add, wide & 0xFFFFFFFF, np.int64)
            return [(h << 32) + lo for h, lo in zip(high, low)]
        return [reduce(add, column[rows].tolist(), 0) for rows in self.slices()]

    def histograms(self, levels: np.ndarray) -> list[dict]:
        """``dict(Counter(levels[lo:hi].tolist()))`` per segment: counts by
        value, keys in first-row order.

        An integer column groups equal values with one stable sort by
        (segment, value), then lists each segment's groups by their first
        row; any other column is counted as the objects it holds.
        """
        if levels.dtype.kind not in "biu":
            return [dict(Counter(levels[rows].tolist())) for rows in self.slices()]
        owner = np.arange(len(self.lengths)).repeat(self.lengths)
        values = levels.view(np.int64) if levels.dtype.itemsize == 8 else levels.astype(np.int64)
        order = np.lexsort((values, owner))
        owner, values = owner[order], values[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (values[1:] != values[:-1])
        firsts = new.nonzero()[0]
        sizes = np.append(firsts[1:], len(order)) - firsts
        firsts = order[firsts]
        by_row = firsts.argsort()  # groups in row order, so by segment
        keys, counts = levels[firsts[by_row]].tolist(), sizes[by_row].tolist()
        cuts = np.cumsum(np.bincount(owner[new], minlength=len(self.lengths))).tolist()
        return [dict(zip(keys[lo:hi], counts[lo:hi])) for lo, hi in zip([0] + cuts, cuts)]


def user_metrics_from_columns(
    user_ids: Sequence[int],
    record_offsets: Sequence[int], record_clicked: Sequence[bool],
    offsets: Sequence[int],
    times: np.ndarray, levels: np.ndarray, sizes: np.ndarray,
    energies: np.ndarray, utilities: np.ndarray,
    created_at: np.ndarray, clicked: np.ndarray, click_times: np.ndarray,
) -> list[UserMetrics]:
    """The Section V-C join over cohort columns: the one place it is computed.

    User ``user_ids[u]`` owns notifications ``record_offsets[u]:[u + 1]`` of
    ``record_clicked`` (one entry per notification of the trace) and
    deliveries ``offsets[u]:[u + 1]`` of every other column, in delivery
    order; the last three are the delivered item's fields (``NaN`` is no
    click time).  Levels, sizes, energies and utilities are counted and
    summed as the values ``tolist()`` yields, so an object column keeps its
    Python types.

    The per-delivery terms are elementwise arrays over all the rows: the
    delay clamp ``where(d > 0.0, d, 0.0)`` (``max(0.0, d)`` exactly, NaN
    and ``-0.0`` included) and the clicked / in-time-click masks.  Every
    user of the call is then reduced at once (:class:`_Segments`): counts
    are segmented sums of masks, the level histogram one stable sort (keys
    in first-delivery order), and each float total a left fold in delivery
    order -- ``reduce(add, values, 0)``, and for the clicked utility the
    ``+`` fold from ``0.0`` over the clicked rows that defines it -- so the
    same values give the same bits whoever calls.  An object column is
    reduced per user, as the objects it holds: an int total is exact and
    its ``float`` rounds once, which no float64 fold reproduces.
    """
    n_users = len(user_ids)
    records = _Segments(segment_bounds(record_offsets, n_users, record_clicked))
    rows = _Segments(segment_bounds(
        offsets, n_users, times, levels, sizes, energies, utilities,
        created_at, clicked, click_times,
    ))
    levels, sizes, energies, utilities = map(np.asarray, (levels, sizes, energies, utilities))
    times = np.asarray(times, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN delay, clamped to 0.0
        delays = times - np.asarray(created_at, dtype=np.float64)
    delays = np.where(delays > 0.0, delays, 0.0)
    hit = np.asarray(clicked, dtype=bool)
    in_time = hit & (times <= np.asarray(click_times, dtype=np.float64))  # NaN: False
    if utilities.dtype.kind == "f":
        clicked_utility = rows.left_folds(np.where(hit, -utilities.astype(np.float64), 0.0))
    else:
        hits = hit.tolist()
        clicked_utility = [
            reduce(add, compress(utilities[r].tolist(), hits[r]), 0.0) for r in rows.slices()
        ]
    delivered = rows.lengths.tolist()
    return [
        UserMetrics(
            user_id=user_id,
            total_notifications=notifications,
            delivered_notifications=n,
            delivered_bytes=float(size),
            clicked_total=clicks,
            clicked_delivered_in_time=in_time_clicks,
            total_utility=utility,
            clicked_utility=clicked,
            energy_joules=energy,
            mean_queuing_delay_s=delay / n if n else 0.0,
            level_histogram=histogram,
        )
        for (
            user_id, notifications, n, size, clicks, in_time_clicks,
            utility, clicked, energy, delay, histogram,
        ) in zip(
            user_ids, records.lengths.tolist(), delivered, rows.totals(sizes),
            records.counts(np.asarray(record_clicked, dtype=bool)), rows.counts(in_time),
            rows.totals(utilities), clicked_utility, rows.totals(energies),
            rows.left_folds(-delays), rows.histograms(levels),
        )
    ]


def compute_user_metrics(
    user_id: int,
    records: Sequence[NotificationRecord],
    deliveries: Sequence[Delivery],
) -> UserMetrics:
    """Join a user's trace with their realized deliveries: the one-user
    :func:`user_metrics_from_columns` (the counted and summed fields as
    object columns, so each is counted and summed as the object it holds; a
    ``None`` click time reads as NaN)."""
    items = [d.item for d in deliveries]
    levels, sizes, energies, utilities = (
        np.array(values, dtype=object)
        for values in (
            [d.level for d in deliveries], [d.size_bytes for d in deliveries],
            [d.energy_joules for d in deliveries], [d.utility for d in deliveries],
        )
    )
    (metrics,) = user_metrics_from_columns(
        [user_id], [0, len(records)], [r.clicked for r in records], [0, len(deliveries)],
        [d.time for d in deliveries], levels, sizes, energies, utilities,
        [item.created_at for item in items], [item.clicked for item in items],
        [item.click_time for item in items],
    )
    return metrics


@dataclass(frozen=True)
class AggregateMetrics:
    """Cross-user aggregation of one (method, configuration) cell."""

    users: int
    delivery_ratio: float
    precision: float
    recall: float
    average_utility: float
    total_utility: float
    clicked_utility: float
    delivered_mb: float
    energy_kilojoules: float
    mean_queuing_delay_s: float
    level_mix: dict[int, float] = field(default_factory=dict)

    def row(self) -> dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "delivery_ratio": self.delivery_ratio,
            "precision": self.precision,
            "recall": self.recall,
            "avg_utility": self.average_utility,
            "total_utility": self.total_utility,
            "clicked_utility": self.clicked_utility,
            "delivered_mb": self.delivered_mb,
            "energy_kj": self.energy_kilojoules,
            "delay_s": self.mean_queuing_delay_s,
        }


class MetricsAccumulator:
    """Streaming fold of :class:`UserMetrics` into :class:`AggregateMetrics`.

    Folding users one at a time *in the same order* as a batch
    :func:`aggregate` call produces bit-identical results: both are left
    folds starting at 0.0, so every float addition happens in the same
    sequence.  This is what lets the persistent experiment pool aggregate
    batches as they stream back from workers -- discarding each
    :class:`UserMetrics` after folding -- while still matching the
    sequential runner's aggregate exactly.  (:func:`aggregate` itself is
    implemented on top of this class, so the two can never drift.)
    """

    def __init__(self) -> None:
        self.users = 0
        self._delivery_ratio = 0.0
        self._precision = 0.0
        self._recall = 0.0
        self._average_utility = 0.0
        self._total_utility = 0.0
        self._clicked_utility = 0.0
        self._delivered_bytes = 0.0
        self._energy_joules = 0.0
        self._delay_s = 0.0
        self._level_counts: dict[int, int] = {}
        self._total_deliveries = 0

    def add(self, user: UserMetrics) -> None:
        """Fold one user's metrics into the running totals."""
        self.users += 1
        self._delivery_ratio += user.delivery_ratio
        self._precision += user.precision
        self._recall += user.recall
        self._average_utility += user.average_utility
        self._total_utility += user.total_utility
        self._clicked_utility += user.clicked_utility
        self._delivered_bytes += user.delivered_bytes
        self._energy_joules += user.energy_joules
        self._delay_s += user.mean_queuing_delay_s
        for level, count in user.level_histogram.items():
            self._level_counts[level] = self._level_counts.get(level, 0) + count
            self._total_deliveries += count

    def result(self) -> AggregateMetrics:
        """The cross-user aggregate of everything folded so far."""
        if not self.users:
            raise ValueError("no user metrics to aggregate")
        n = self.users
        level_mix = {
            level: count / self._total_deliveries
            for level, count in sorted(self._level_counts.items())
        } if self._total_deliveries else {}
        return AggregateMetrics(
            users=n,
            delivery_ratio=self._delivery_ratio / n,
            precision=self._precision / n,
            recall=self._recall / n,
            average_utility=self._average_utility / n,
            total_utility=self._total_utility,
            clicked_utility=self._clicked_utility,
            delivered_mb=self._delivered_bytes / 1e6,
            energy_kilojoules=self._energy_joules / 1e3,
            mean_queuing_delay_s=self._delay_s / n,
            level_mix=level_mix,
        )


def aggregate(per_user: Sequence[UserMetrics]) -> AggregateMetrics:
    """Average ratio metrics across users; sum volume metrics.

    Matches the paper's reporting: ratio-style metrics (delivery ratio,
    precision, recall, delay) are per-user averages; utility, bytes and
    energy are totals across the user base (Fig. 3b/4a/4c).
    """
    accumulator = MetricsAccumulator()
    for user in per_user:
        accumulator.add(user)
    return accumulator.result()
