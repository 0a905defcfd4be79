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
from typing import Sequence

from repro.runtime.types import Delivery, RoundResult
from repro.trace.records import NotificationRecord


@dataclass
class FailureStats:
    """Delivery-failure accounting accumulated over RoundResult streams.

    Byte conservation must hold whenever the fault-tolerant delivery
    engine is active: ``debited == delivered + refunded + wasted``
    (:meth:`conservation_error` is ~0).  ``wasted`` is the mid-flight
    bytes of failed attempts -- spent over the air, never delivered.
    """

    attempts: int = 0
    failed_attempts: int = 0
    retries_scheduled: int = 0
    dead_letters: int = 0
    debited_bytes: float = 0.0
    delivered_bytes: float = 0.0
    refunded_bytes: float = 0.0
    wasted_bytes: float = 0.0
    fault_counts: dict[str, int] = field(default_factory=dict)

    def observe(self, result: RoundResult) -> None:
        """Fold one round's failure counters into the running totals."""
        self.attempts += result.attempts
        self.failed_attempts += result.failed_attempts
        self.retries_scheduled += result.retries_scheduled
        self.dead_letters += result.dead_letters
        self.debited_bytes += result.debited_bytes
        if result.attempts:
            # Only the fault-tolerant engine populates attempt/debit
            # counters; on the atomic fast path delivered bytes have no
            # matching debit record here, so folding them in would make
            # the conservation check vacuously fail.
            self.delivered_bytes += result.delivered_bytes
        self.refunded_bytes += result.refunded_bytes
        self.wasted_bytes += result.wasted_bytes
        for kind, count in result.fault_counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count

    def merge(self, other: "FailureStats") -> None:
        """Fold another user's totals into these (cross-user aggregation)."""
        self.attempts += other.attempts
        self.failed_attempts += other.failed_attempts
        self.retries_scheduled += other.retries_scheduled
        self.dead_letters += other.dead_letters
        self.debited_bytes += other.debited_bytes
        self.delivered_bytes += other.delivered_bytes
        self.refunded_bytes += other.refunded_bytes
        self.wasted_bytes += other.wasted_bytes
        for kind, count in other.fault_counts.items():
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + count

    @property
    def failure_rate(self) -> float:
        """Fraction of delivery attempts that failed."""
        if self.attempts == 0:
            return 0.0
        return self.failed_attempts / self.attempts

    def conservation_error(self) -> float:
        """``|debited - (delivered + refunded + wasted)|``; ~0 when sound."""
        return abs(
            self.debited_bytes
            - (self.delivered_bytes + self.refunded_bytes + self.wasted_bytes)
        )

    def row(self) -> dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "attempts": float(self.attempts),
            "failed_attempts": float(self.failed_attempts),
            "failure_rate": self.failure_rate,
            "retries": float(self.retries_scheduled),
            "dead_letters": float(self.dead_letters),
            "refunded_mb": self.refunded_bytes / 1e6,
            "wasted_mb": self.wasted_bytes / 1e6,
        }


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


def user_metrics_from_columns(
    user_id: int, record_clicked: Sequence[bool],
    times: Sequence[float], levels: Sequence[int], sizes: Sequence[float],
    energies: Sequence[float], utilities: Sequence[float],
    created_at: Sequence[float], clicked: Sequence[bool], click_times: Sequence[float],
) -> UserMetrics:
    """The Section V-C join over columns: the one place it is computed.

    ``record_clicked`` has one entry per notification of the user's trace,
    every other column one per realized delivery, in delivery order (the
    last three are the delivered item's fields; ``None`` or ``NaN`` is no
    click time).  Sums are sequential left folds: the same values in the
    same order give the same bits, whoever calls.
    """
    delivered = len(times)
    delays = [max(0.0, time - created) for time, created in zip(times, created_at)]
    in_time_clicks = 0
    clicked_utility = 0.0
    for hit, utility, time, click_time in zip(clicked, utilities, times, click_times):
        if hit:
            clicked_utility += utility
            if click_time is not None and time <= click_time:  # NaN: False
                in_time_clicks += 1
    return UserMetrics(
        user_id=user_id,
        total_notifications=len(record_clicked),
        delivered_notifications=delivered,
        delivered_bytes=float(sum(sizes)),
        clicked_total=sum(map(bool, record_clicked)),
        clicked_delivered_in_time=in_time_clicks,
        total_utility=sum(utilities),
        clicked_utility=clicked_utility,
        energy_joules=sum(energies),
        mean_queuing_delay_s=(sum(delays) / delivered) if delivered else 0.0,
        level_histogram=dict(Counter(levels)),  # keys in first-delivery order
    )


def compute_user_metrics(
    user_id: int,
    records: Sequence[NotificationRecord],
    deliveries: Sequence[Delivery],
) -> UserMetrics:
    """Join a user's trace with their realized deliveries."""
    items = [d.item for d in deliveries]
    return user_metrics_from_columns(
        user_id, [r.clicked for r in records],
        [d.time for d in deliveries], [d.level for d in deliveries],
        [d.size_bytes for d in deliveries],
        [d.energy_joules for d in deliveries], [d.utility for d in deliveries],
        [item.created_at for item in items], [item.clicked for item in items],
        [item.click_time for item in items],
    )


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
