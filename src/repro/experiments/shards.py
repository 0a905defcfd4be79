"""Workload sharding: per-user record shards and cost-balanced batches.

Section V-C's scaling argument rests on users being perfect shards: no
state is shared between per-user round loops, so any partition of the
user set can be replayed independently and merged.  This module is the
single implementation of that partitioning, shared by the sequential
runner, the legacy one-shot parallel runner and the persistent
:class:`repro.experiments.pool.ExperimentPool`.

Two primitives:

* :func:`shard_by_user` -- group a trace's records by recipient,
  preserving the workload's timestamp order within each shard (the order
  the simulator replays them in);
* :func:`balanced_batches` -- partition users into worker batches whose
  *costs* (notification counts -- the dominant per-user simulation cost)
  are balanced, replacing a blind fixed ``chunksize``.  The assignment is
  the classic LPT greedy (largest job first onto the least-loaded batch)
  with deterministic tie-breaks, so the same workload always produces the
  same batches.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

from repro.trace.records import NotificationRecord

__all__ = ["balanced_batches", "shard_by_user"]


def shard_by_user(
    records: Sequence[NotificationRecord], user_ids: Sequence[int]
) -> dict[int, list[NotificationRecord]]:
    """Group ``records`` by recipient, restricted to ``user_ids``.

    Every requested user gets an entry (possibly empty); record order
    within a shard follows the input order, which for a
    :class:`~repro.trace.generator.Workload` is timestamp order.
    """
    by_user: dict[int, list[NotificationRecord]] = {u: [] for u in user_ids}
    for record in records:
        shard = by_user.get(record.recipient_id)
        if shard is not None:
            shard.append(record)
    return by_user


def balanced_batches(
    costs: Mapping[int, int], n_batches: int
) -> list[list[int]]:
    """Partition users into ``n_batches`` cost-balanced batches (LPT greedy).

    ``costs`` maps user id -> per-user cost (notification count).  Users
    are placed heaviest-first onto the currently lightest batch; ties on
    load break toward the lower batch index and ties on cost toward the
    lower user id, so the partition is a pure function of its inputs.

    Returns exactly ``min(n_batches, len(costs))`` non-empty batches
    (empty when ``costs`` is empty).  Every user appears in exactly one
    batch -- :func:`itertools.chain` over the result is a permutation of
    ``costs``'s keys.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    users = sorted(costs, key=lambda u: (-costs[u], u))
    n_batches = min(n_batches, len(users))
    batches: list[list[int]] = [[] for _ in range(n_batches)]
    heap = [(0, index) for index in range(n_batches)]  # (load, batch index)
    heapq.heapify(heap)
    for user in users:
        load, index = heapq.heappop(heap)
        batches[index].append(user)
        heapq.heappush(heap, (load + costs[user], index))
    return batches
