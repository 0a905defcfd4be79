"""Pure, array-oriented decision kernels (the bottom runtime layer).

Each kernel is a stateless function over parallel columns -- sizes,
energies, utilities for an entire scheduling queue in one call -- so the
per-round hot path allocates matrices instead of one object per
(item, level) pair.  The kernels mirror the paper's math exactly:

* :func:`combined_utility_matrix` -- ``U(i, j) = U_c(i) x U_p(i, j)``
  (Eq. 1) as an outer product of a content-utility column and a
  presentation-utility row (or per-item rows);
* :func:`lyapunov_adjusted_rows` -- the drift-plus-penalty adjustment
  ``U_a(i, j) = Q s(i) + (P - kappa) rho(i, j) + V U(i, j)`` (Eq. 7) for
  one user's queue or a whole cohort's, with the same operation order and
  unit scaling as the equation's scalar reference
  :meth:`repro.core.lyapunov.LyapunovController.adjusted_utility`, so the
  two agree bit for bit;
* :func:`merge_channel_rows_batched` / :func:`hull_levels_batched` -- a
  ladder group's per-channel rows fused into one (channel x level) choice
  row per item and reduced to its convex hull;
* :func:`greedy_select` -- Algorithm 1's utility-size-gradient greedy for
  a whole group of users in one segmented pass (the columnar engine's
  selector); :func:`greedy_select_heap` -- the same algorithm for one
  user as the paper's heap (the scalar round loop's selector and the
  segmented kernel's parity oracle); :func:`hull_levels` -- the
  per-row LP-domination (convex hull) filter, the scalar oracle of
  :func:`hull_levels_batched`; :func:`greedy_select_hull` -- the heap
  behind :func:`hull_levels` for arbitrary profit rows, which no product
  path calls (the benchmark harness wraps it by name);
* :func:`feature_matrix` -- Section V-A's classifier feature layout for a
  whole record batch in one array pass (the scoring hot path of
  :meth:`repro.experiments.runner.UtilityAnnotations.train`).

Layering contract (``tests/test_layering.py``): this module imports
nothing from the policy or orchestration layers -- only the standard
library and numpy.  Bit-for-bit parity with the per-object reference
(``adjusted_profile`` + :func:`repro.core.mckp.select_presentations`) is
asserted by ``tests/test_runtime.py``; keep any float arithmetic in the
exact order written here.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

__all__ = [
    "combined_utility_matrix",
    "exp_decay_column",
    "feature_matrix",
    "gradient",
    "greedy_select",
    "greedy_select_heap",
    "greedy_select_hull",
    "hull_levels",
    "ingest_round_index",
    "hull_levels_batched",
    "merge_channel_rows_batched",
    "lyapunov_adjusted_rows",
    "replenish_data_column",
    "replenish_energy_column",
]


def feature_matrix(
    tie_strengths: Sequence[float],
    is_friend: Sequence[bool],
    favorite_genre: Sequence[bool],
    track_popularity: Sequence[int],
    album_popularity: Sequence[int],
    artist_popularity: Sequence[int],
    timestamps: Sequence[float],
    kind_codes: Sequence[int],
) -> np.ndarray:
    """Section V-A's classifier features for a whole batch in one pass.

    Column layout matches :data:`repro.ml.dataset.FEATURE_NAMES`:
    tie/friend/genre, three popularity scores normalized to [0, 1], three
    timestamp features and a 3-wide one-hot of the publication kind
    (``kind_codes``: 0 = friend feed, 1 = artist release, 2 = playlist).

    Bit-identical to the scalar
    :meth:`repro.ml.dataset.FeatureExtractor._vector` applied per row:
    every op is an IEEE-754 double division, modulo or comparison, which
    numpy and pure Python evaluate identically (for the modulo, both
    follow the sign-of-divisor convention and timestamps are
    non-negative).
    """
    n = len(timestamps)
    out = np.empty((n, 12), dtype=np.float64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    hour = (timestamps / 3600.0) % 24.0
    day = (timestamps // 86400.0) % 7.0
    kinds = np.asarray(kind_codes, dtype=np.int64)
    out[:, 0] = np.asarray(tie_strengths, dtype=np.float64)
    out[:, 1] = np.asarray(is_friend, dtype=np.float64)
    out[:, 2] = np.asarray(favorite_genre, dtype=np.float64)
    out[:, 3] = np.asarray(track_popularity, dtype=np.float64) / 100.0
    out[:, 4] = np.asarray(album_popularity, dtype=np.float64) / 100.0
    out[:, 5] = np.asarray(artist_popularity, dtype=np.float64) / 100.0
    out[:, 6] = hour / 24.0
    out[:, 7] = day >= 5.0
    out[:, 8] = (hour >= 22.0) | (hour < 6.0)
    out[:, 9] = kinds == 0
    out[:, 10] = kinds == 1
    out[:, 11] = kinds == 2
    return out


def exp_decay_column(
    contents: Sequence[float], ages_seconds: Sequence[float], tau_seconds: float
) -> np.ndarray:
    """Exponentially aged content utilities: ``U_c(i) * exp(-age_i / tau)``.

    Uses ``math.exp`` element-wise (not ``np.exp``) so the result is
    bit-identical to :meth:`repro.core.utility.ExponentialAging.decay`
    applied per item -- the two libm paths may differ by one ulp.
    """
    exponents = -np.asarray(ages_seconds, dtype=np.float64) / tau_seconds
    return np.asarray(contents, dtype=np.float64) * np.fromiter(
        map(math.exp, exponents.tolist()), dtype=np.float64, count=exponents.size
    )


def combined_utility_matrix(
    contents: Sequence[float] | np.ndarray,
    presentation_utilities: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """``U[i, j] = U_c(i) * U_p(j)`` for a queue column and a ladder row.

    ``presentation_utilities`` is either one shared ladder row (1-D, the
    homogeneous-queue fast path) or one row per item (2-D).
    """
    content_column = np.asarray(contents, dtype=np.float64)
    ladder = np.asarray(presentation_utilities, dtype=np.float64)
    if ladder.ndim == 1:
        return content_column[:, None] * ladder[None, :]
    return content_column[:, None] * ladder


def lyapunov_adjusted_rows(
    utilities: np.ndarray,
    energies_row: Sequence[float] | np.ndarray,
    item_backlog_bytes: float,
    q_bytes_column: float | Sequence[float] | np.ndarray,
    p_joules_column: float | Sequence[float] | np.ndarray,
    *,
    kappa_joules: float,
    v: float,
    size_scale: float,
    energy_scale: float,
) -> np.ndarray:
    """Eq. 7 over a whole queue: ``U_a = Q s + (P - kappa) rho + V U``.

    ``utilities`` is the ``(n_items, n_levels)`` matrix of combined
    utilities.  Row ``i`` is one queued item; ``q_bytes_column[i]`` /
    ``p_joules_column[i]`` carry its user's round-frozen ``Q(t)`` /
    ``P(t)`` -- one scalar each for a single user's queue (the round
    loop), one entry per row for a cohort (broadcast per item by the
    caller).  ``energies_row`` is the per-level energy estimate of the
    round's network state: one shared row, or one row per item when a
    cohort's users are in different states.  ``item_backlog_bytes`` is
    the shared per-item backlog contribution ``s(i)`` (one presentation
    ladder per call).  Column 0 -- the "not sent" level -- is forced to exactly 0.0.

    The order of float operations replicates
    :meth:`repro.core.lyapunov.LyapunovController.adjusted_utility`, the
    equation's scalar reference: ``(Q*ss)*(s_i*ss) + ((P-kappa)*es)*(rho*es)
    + V*U``, evaluated left to right, so every row matches
    :meth:`~repro.core.lyapunov.LyapunovController.adjusted_profile` bit
    for bit and slicing one user's rows out of a cohort call equals
    calling the kernel for that user alone.
    """
    utility_matrix = np.asarray(utilities, dtype=np.float64)
    energies = np.asarray(energies_row, dtype=np.float64)
    q_column = np.asarray(q_bytes_column, dtype=np.float64)
    p_column = np.asarray(p_joules_column, dtype=np.float64)
    queue_column = (q_column * size_scale) * (item_backlog_bytes * size_scale)
    energy_terms = ((p_column - kappa_joules) * energy_scale)[..., None] * (
        energies * energy_scale
    )
    adjusted = queue_column[..., None] + energy_terms + v * utility_matrix
    adjusted[:, 0] = 0.0
    return adjusted


def replenish_data_column(
    available_bytes: np.ndarray, theta_bytes: "float | np.ndarray"
) -> None:
    """Algorithm 2, step 2 for every user at once: ``B(t) += theta``.

    In-place over the cohort's byte-budget column; one float add per
    user, identical to :meth:`repro.core.budgets.DataBudget.replenish`
    (no rollover cap -- the paper's unbounded rollover).  ``theta_bytes``
    is one allowance for everyone or a column of one per user: the same
    elementwise add either way.
    """
    available_bytes += theta_bytes


def replenish_energy_column(
    available_joules: np.ndarray,
    e_t_column: np.ndarray,
    kappa_joules: float,
) -> None:
    """Masked energy replenishment: ``P(t) += e(t)`` while ``P(t) <= kappa``.

    In-place over the cohort's energy column.  The mask reproduces the
    per-user conditional of
    :meth:`repro.core.budgets.EnergyBudget.replenish` exactly: users
    already above ``kappa`` accept nothing this round.
    """
    mask = available_joules <= kappa_joules
    available_joules[mask] += e_t_column[mask]


def ingest_round_index(
    created_at: Sequence[float] | np.ndarray,
    round_times: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The round at which each item becomes schedulable, for a whole cohort.

    An item arriving at a round tick's own timestamp joins that round, so
    an item joins the scheduling queue at the first round whose time is
    ``>= created_at``.  Returns that round index per item;
    ``len(round_times)`` marks items created after the last round (they
    never join).  Both engines ingest by this rule: the columnar engine
    directly, the scalar replay through
    :func:`repro.runtime.columnar.round_arrivals`.
    """
    times = np.asarray(round_times, dtype=np.float64)
    created = np.asarray(created_at, dtype=np.float64)
    return np.searchsorted(times, created, side="left")


def merge_channel_rows_batched(
    sizes_rows: Sequence[Sequence[int]],
    profits_stack: Sequence[np.ndarray],
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Fuse a group's per-channel ladders into one MCKP choice row per item.

    ``sizes_rows[c]`` is channel ``c``'s (billed) size row -- entry ``j``
    the size of presenting at level ``j`` on that channel, entry 0 the
    shared "not sent" choice (size 0) -- and ``profits_stack[c]`` its
    ``(n_items, n_levels_c)`` adjusted-profit matrix.  Every item of the
    group shares the size rows (one presentation ladder across the
    group), so the *merged size axis* -- the union of all
    (channel, level > 0) choices sorted by strictly increasing size, the
    precondition of :func:`hull_levels_batched` -- is identical for all
    items; only the winning (channel, level) behind each merged size can
    differ, decided by each item's own profits.

    Equal-size ties keep the highest-profit choice, then the lowest
    channel index, then the lowest level: ``np.argmax`` (first occurrence
    of the maximum) over tie members pre-sorted by (channel, level).  A
    non-null choice whose billed size is 0 cannot be represented (index 0
    is reserved for "not sent") and is dropped.

    Returns ``(merged_sizes, profits, channels, levels)``: the shared
    strictly-increasing size row (leading 0), and three ``(n_items, k)``
    arrays whose column ``j`` carries each item's winning profit and its
    (channel, level) backmap for merged choice ``j`` (column 0 is the
    not-sent sentinel: profit 0.0, channel 0, level 0).  The hull pass
    then prunes dominated cross-channel choices, so Algorithm 1 picks
    channel and level *jointly*.
    """
    candidates: list[tuple[int, int, int]] = []
    for channel_index, sizes in enumerate(sizes_rows):
        for level in range(1, len(sizes)):
            candidates.append((int(sizes[level]), channel_index, level))
    candidates.sort()

    groups: list[tuple[int, list[tuple[int, int]]]] = []
    for size, channel_index, level in candidates:
        if size <= 0:
            continue
        if groups and groups[-1][0] == size:
            groups[-1][1].append((channel_index, level))
        else:
            groups.append((size, [(channel_index, level)]))

    n_items = int(profits_stack[0].shape[0]) if profits_stack else 0
    width = len(groups) + 1
    merged_sizes = [0] + [size for size, _ in groups]
    merged_profits = np.zeros((n_items, width), dtype=np.float64)
    merged_channels = np.zeros((n_items, width), dtype=np.int64)
    merged_levels = np.zeros((n_items, width), dtype=np.int64)
    for column, (_, members) in enumerate(groups, start=1):
        if len(members) == 1:
            channel_index, level = members[0]
            merged_profits[:, column] = profits_stack[channel_index][:, level]
            merged_channels[:, column] = channel_index
            merged_levels[:, column] = level
        else:
            stacked = np.stack(
                [profits_stack[c][:, level] for c, level in members], axis=1
            )
            winner = np.argmax(stacked, axis=1)
            merged_profits[:, column] = np.take_along_axis(
                stacked, winner[:, None], axis=1
            )[:, 0]
            member_channels = np.array([c for c, _ in members], dtype=np.int64)
            member_levels = np.array([lvl for _, lvl in members], dtype=np.int64)
            merged_channels[:, column] = member_channels[winner]
            merged_levels[:, column] = member_levels[winner]
    return merged_sizes, merged_profits, merged_channels, merged_levels


def hull_levels_batched(
    sizes_row: Sequence[int] | np.ndarray,
    profits_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hull_levels` for every row of a shared-size-axis matrix.

    ``sizes_row`` is one strictly-increasing size row (leading 0) shared
    by all items; ``profits_matrix`` is ``(n_items, k)`` with column 0
    equal to 0.0.  Returns ``(hull_indices, hull_lengths)``: row ``i``'s
    surviving column indices are ``hull_indices[i, :hull_lengths[i]]``,
    identical to ``hull_levels(sizes_row, profits_matrix[i])``.

    Both passes replicate the scalar kernel's float comparisons exactly:
    the dominance pass keeps column ``j`` iff its profit strictly exceeds
    the running maximum of columns ``0..j-1``, and the Graham-scan pass
    pops while ``grad_ac >= grad_ab`` with gradients computed as the same
    IEEE-754 subtract-then-divide (sizes convert to float64 exactly).
    """
    sizes = np.asarray(sizes_row, dtype=np.float64)
    profits = np.asarray(profits_matrix, dtype=np.float64)
    n_items, width = profits.shape

    kept = np.zeros((n_items, width), dtype=bool)
    kept[:, 0] = True
    if width > 1:
        running_max = np.maximum.accumulate(profits, axis=1)
        kept[:, 1:] = profits[:, 1:] > running_max[:, :-1]

    hull_indices = np.zeros((n_items, width), dtype=np.int64)
    hull_lengths = np.ones(n_items, dtype=np.int64)  # column 0 pre-pushed
    for column in range(1, width):
        active = kept[:, column]
        if not active.any():
            continue
        popping = active.copy()
        while True:
            rows = np.flatnonzero(popping & (hull_lengths >= 2))
            if rows.size == 0:
                break
            a = hull_indices[rows, hull_lengths[rows] - 2]
            b = hull_indices[rows, hull_lengths[rows] - 1]
            gradient_ab = (profits[rows, b] - profits[rows, a]) / (
                sizes[b] - sizes[a]
            )
            gradient_ac = (profits[rows, column] - profits[rows, a]) / (
                sizes[column] - sizes[a]
            )
            pop = gradient_ac >= gradient_ab
            popping[rows[~pop]] = False
            hull_lengths[rows[pop]] -= 1
        push_rows = np.flatnonzero(active)
        hull_indices[push_rows, hull_lengths[push_rows]] = column
        hull_lengths[push_rows] += 1
    return hull_indices, hull_lengths


def gradient(
    sizes: Sequence[int], profits: Sequence[float], level: int
) -> float:
    """Utility-size gradient for upgrading ``level -> level + 1``.

    The denominator is positive by the strict-size-increase invariant of
    presentation ladders.
    """
    dsize = sizes[level + 1] - sizes[level]
    dprofit = profits[level + 1] - profits[level]
    return dprofit / dsize


def greedy_select_heap(
    keys: Sequence[int],
    sizes_rows: Sequence[Sequence[int]],
    profits_rows: Sequence[Sequence[float]],
    budget: int,
) -> tuple[list[int], int, float]:
    """Algorithm 1 (SelectPresentations) for one user, as the paper's heap.

    Row ``i`` describes item ``keys[i]``: ``sizes_rows[i][j]`` /
    ``profits_rows[i][j]`` are the size and (possibly Lyapunov-adjusted)
    profit of level ``j``.  Level 0 must have size 0; sizes must strictly
    increase; keys must be unique (they are the heap tie-break).

    Returns ``(levels, total_size, total_profit)`` with ``levels[i]`` the
    chosen level of item ``i`` in input order.

    Semantics match :func:`repro.core.mckp.select_presentations`:
    repeatedly upgrade the item whose next upgrade has the largest
    gradient; skip stale heap entries; stop at the first non-positive
    head gradient; an unaffordable upgrade freezes that item only.  The
    scalar round loop runs this per user; it is the parity oracle of the
    cohort-wide :func:`greedy_select`.
    """
    levels = [0] * len(keys)
    index_of: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = []  # (-gradient, key, current level)
    for index, key in enumerate(keys):
        index_of[key] = index
        if len(sizes_rows[index]) > 1:
            heap.append(
                (-gradient(sizes_rows[index], profits_rows[index], 0), key, 0)
            )
    if len(index_of) != len(keys):
        raise ValueError("item keys must be unique")
    heapq.heapify(heap)

    total_size = 0
    total_profit = 0.0
    while heap:
        neg_grad, key, level = heapq.heappop(heap)
        index = index_of[key]
        if levels[index] != level:
            # Stale entry from before a previous upgrade of this item.
            continue
        if -neg_grad <= 0.0:
            # Monotone-gradient ladders: no later upgrade of any item can
            # beat this one, so the remaining heap is all non-improving.
            break
        sizes = sizes_rows[index]
        profits = profits_rows[index]
        size_gain = sizes[level + 1] - sizes[level]
        if total_size + size_gain > budget:
            # Freeze this item; cheaper upgrades of other items may still fit.
            continue
        next_level = level + 1
        levels[index] = next_level
        total_size += size_gain
        total_profit += profits[next_level] - profits[level]
        if next_level < len(sizes) - 1:
            heapq.heappush(
                heap, (-gradient(sizes, profits, next_level), key, next_level)
            )
    return levels, total_size, total_profit


def greedy_select(
    sizes: Sequence[int] | np.ndarray,
    profits: np.ndarray,
    lengths: np.ndarray | None,
    keys: np.ndarray,
    offsets: np.ndarray,
    budgets: np.ndarray,
) -> np.ndarray:
    """Algorithm 1 for every user of a group in one segmented pass.

    Row ``i`` of ``profits`` is one queued item; segment ``s`` (one user)
    owns rows ``offsets[s]:offsets[s + 1]`` and the byte budget
    ``budgets[s]``.  ``sizes`` is one shared strictly-increasing row or
    one row per item, ``lengths[i]`` the number of valid leading columns
    of row ``i`` (``None``: all), ``keys[i]`` the item id that breaks
    gradient ties (unique within a segment).  Returns the chosen level
    per row, bit-identical to :func:`greedy_select_heap` per segment:

    * *order* -- the heap pops an item's upgrades in level order and
      always the largest head, so its pop order is a stable sort of all
      upgrades by (segment, running minimum of the item's gradients
      descending, key, level), cut where that minimum turns non-positive
      (the heap's ``break``);
    * *freeze* -- an upgrade that does not fit freezes its item only, so
      the budget applies iteratively: accept everything up to a segment's
      first overshoot, drop that upgrade, every later one larger than
      what is left, and the rest of their items' ladders; re-accumulate.
      Each pass lowers the largest surviving size gain, so there are at
      most as many passes as distinct gains.
    """
    profits = np.asarray(profits, dtype=np.float64)
    n_rows, width = profits.shape
    if n_rows == 0 or width < 2:
        return np.zeros(n_rows, dtype=np.int64)
    budgets = np.asarray(budgets, dtype=np.int64)
    gains = np.diff(np.asarray(sizes, dtype=np.int64), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # padded columns
        gradients = np.diff(profits, axis=1) / gains
    segment = np.repeat(np.arange(budgets.size), np.diff(offsets))
    # An upgrade is reachable while every gradient so far is positive, it
    # is a real level and it could fit an untouched budget.
    reachable = (gradients > 0.0) & (gains <= budgets[segment][:, None])
    if lengths is not None:
        reachable &= np.arange(1, width) < np.asarray(lengths)[:, None]
    rows, ups = np.nonzero(np.logical_and.accumulate(reachable, axis=1))
    # Cheaper than one three-key lexsort: rows ranked by (segment, key)
    # put the candidates, stably, into the heap's tie order; a dense rank
    # of the running minimum then packs with the segment into one integer
    # key whose stable sort sees nearly sorted input.
    tie_rank = np.empty(n_rows, dtype=np.int64)
    tie_rank[np.lexsort((keys, segment))] = np.arange(n_rows)
    ties = np.argsort(tie_rank[rows], kind="stable")
    rows, ups = rows[ties], ups[ties]
    running_min = np.minimum.accumulate(gradients, axis=1)[rows, ups]
    ascending = np.argsort(running_min)
    value = running_min[ascending]
    rank = np.empty(rows.size, dtype=np.int64)
    rank[ascending] = np.cumsum(value != np.roll(value, 1))  # equal values tie
    seg = segment[rows]
    order = np.argsort(seg * (rows.size + 1) - rank, kind="stable")
    rows, ups, seg = rows[order], ups[order], seg[order]
    gain = gains[ups] if gains.ndim == 1 else gains[rows, ups]
    limit = budgets[seg]
    head = np.searchsorted(seg, seg)  # each candidate's first of its segment
    position = np.arange(rows.size)
    alive = np.ones(rows.size, dtype=bool)
    cap = np.full(n_rows, width, dtype=np.int64)  # first dropped upgrade per row
    while True:
        live = np.where(alive, gain, 0)
        total = np.cumsum(live)
        spent = total - (total - live)[head]
        over = np.flatnonzero(alive & (spent > limit))
        if not over.size:
            break
        first = over[np.flatnonzero(np.diff(seg[over], prepend=-1))]
        since = np.full(budgets.size, rows.size)
        since[seg[first]] = first
        left = np.zeros(budgets.size, dtype=np.int64)
        left[seg[first]] = limit[first] - (spent[first] - gain[first])
        dropped = alive & (position >= since[seg]) & (gain > left[seg])
        np.minimum.at(cap, rows[dropped], ups[dropped])
        alive &= ups < cap[rows]
    return np.bincount(rows[alive], minlength=n_rows)


def hull_levels(
    sizes: Sequence[int], profits: Sequence[float]
) -> list[int]:
    """Levels surviving LP-domination filtering, in increasing size order.

    Classical MCKP preprocessing (Sinha & Zoltners): drop *dominated*
    levels (no larger size, no smaller profit elsewhere), then drop
    *LP-dominated* levels below the upper-left convex hull of the
    (size, profit) cloud.  Survivors always include level 0 and have
    strictly decreasing gradients -- the precondition for Algorithm 1's
    one-upgrade optimality bound under ARBITRARY profit profiles.
    """
    # Dominance pass: sizes strictly increase by construction, so a level
    # is dominated iff its profit does not exceed the best profit so far.
    kept: list[int] = [0]
    best_profit = profits[0]
    for level in range(1, len(sizes)):
        if profits[level] > best_profit:
            kept.append(level)
            best_profit = profits[level]

    # Convex hull pass over the kept levels (Graham-scan style).
    hull: list[int] = []
    for level in kept:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            gradient_ab = (profits[b] - profits[a]) / (sizes[b] - sizes[a])
            gradient_ac = (profits[level] - profits[a]) / (
                sizes[level] - sizes[a]
            )
            if gradient_ac >= gradient_ab:
                hull.pop()
            else:
                break
        hull.append(level)
    return hull


def greedy_select_hull(
    keys: Sequence[int],
    sizes_rows: Sequence[Sequence[int]],
    profits_rows: Sequence[Sequence[float]],
    budget: int,
) -> tuple[list[int], int, float]:
    """Algorithm 1 behind per-item LP-domination preprocessing.

    Reduces each row to its convex hull (so gradients strictly decrease),
    runs :func:`greedy_select_heap` on the reduced rows, and maps chosen
    levels back to original ladder indices.  Identical selections to
    :func:`greedy_select_heap` on gradient-monotone ladders; strictly safer
    when adjusted-utility profiles dip (e.g. strongly negative energy
    pressure), at an ``O(n k)`` preprocessing cost.
    """
    hulls = [
        hull_levels(sizes, profits)
        for sizes, profits in zip(sizes_rows, profits_rows)
    ]
    reduced_sizes = [
        [sizes_rows[i][level] for level in hull] for i, hull in enumerate(hulls)
    ]
    reduced_profits = [
        [profits_rows[i][level] for level in hull] for i, hull in enumerate(hulls)
    ]
    levels, total_size, total_profit = greedy_select_heap(
        keys, reduced_sizes, reduced_profits, budget
    )
    return (
        [hulls[i][level] for i, level in enumerate(levels)],
        total_size,
        total_profit,
    )
