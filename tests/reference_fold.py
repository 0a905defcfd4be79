"""Reference oracle: the per-delivery metric join and per-row digest.

This is what ``repro.experiments.metrics.user_metrics_from_columns`` and
``repro.experiments.runner.delivery_digests`` were before they became
array code: one user's Python lists folded in a per-delivery loop, and a
``%``-formatted tuple ``repr`` per delivery row, hashed per user.  The
functions are moved here verbatim so the array kernels in ``src/`` have
something to be bit-identical *to* (``tests/test_fold_differential.py``).
It validates nothing -- it is only ever fed inputs the production kernels
accept.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from repro.experiments.metrics import UserMetrics


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
    click time).  Sums are sequential left folds from the int 0
    (``reduce(add, values, 0)``, which the built-in ``sum`` is for floats
    only before CPython 3.12): the same values in the same order give the
    same bits, whoever calls and on any CPython.
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
        delivered_bytes=float(reduce(add, sizes, 0)),
        clicked_total=sum(map(bool, record_clicked)),
        clicked_delivered_in_time=in_time_clicks,
        total_utility=reduce(add, utilities, 0),
        clicked_utility=clicked_utility,
        energy_joules=reduce(add, energies, 0),
        mean_queuing_delay_s=(reduce(add, delays, 0) / delivered) if delivered else 0.0,
        level_histogram=dict(Counter(levels)),  # keys in first-delivery order
    )


class _FloatTexts(dict):
    """``texts[bits]``: ``repr`` of the float with that ``int64`` bit pattern."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(np.int64(bits).view(np.float64).item())
        return text


def delivery_digests(
    offsets: Sequence[int], user_ids: Sequence[int],
    times: np.ndarray, item_ids: np.ndarray, levels: np.ndarray,
    sizes: np.ndarray, energies: np.ndarray, utilities: np.ndarray,
) -> list[str]:
    """One SHA-256 per user over delivery rows given as cohort columns.

    Segment ``s`` -- rows ``offsets[s]:offsets[s + 1]``, all delivered to
    ``user_ids[s]`` -- hashes the bytes of ``"".join(map(repr, rows))`` over
    its ``(time, user, item, level, size, energy, realized utility)`` tuples
    in delivery order: the exact fields the runtime-extraction golden tests
    pin.  Two engines that produce the same digest for every user produced
    bit-identical delivery streams.  The only digest implementation: the
    scalar path reaches it through :func:`delivery_digest`.

    A float's ``repr`` is the expensive part of a row and ``times`` /
    ``energies`` (``float64``) repeat a few values, so each distinct *bit
    pattern* of the two is rendered once per call; keyed by the ``int64``
    view, ``0.0`` / ``-0.0`` and NaN payloads cannot share an entry.  Other
    fields are rendered per row from what ``tolist()`` yields, per segment.
    """
    time_bits = np.asarray(times, dtype=np.float64).view(np.int64)
    energy_bits = np.asarray(energies, dtype=np.float64).view(np.int64)
    columns = (time_bits, item_ids, levels, sizes, energy_bits, utilities)
    float_text = _FloatTexts().__getitem__
    digests: list[str] = []
    for segment, user_id in enumerate(user_ids):
        mine = slice(offsets[segment], offsets[segment + 1])
        t_bits, items, lvls, szs, e_bits, utils = (c[mine].tolist() for c in columns)
        row = f"(%s, {user_id!r}, %r, %r, %r, %s, %r)".__mod__
        fields = zip(map(float_text, t_bits), items, lvls, szs, map(float_text, e_bits), utils)
        digests.append(hashlib.sha256("".join(map(row, fields)).encode()).hexdigest())
    return digests
