"""Differential property: the array fold kernels == the per-delivery reference.

``repro.experiments.metrics.user_metrics_from_columns`` joins a cohort's
delivery columns with elementwise arrays and reduces every user of a call
at once (prefix sums, one stable sort for the level histogram, a
``np.subtract.reduceat`` left fold per float total; object columns per
user), and ``repro.experiments.runner.delivery_digests`` builds a call's
row text column by column from bit-pattern tables;
``tests/reference_fold.py`` is the per-delivery loop and the per-row
``%``-formatted ``repr`` they replaced.  Every user's ``UserMetrics`` must
have the same ``repr`` (every float bit, histogram key order) and the
same digest string, on exactly the inputs where array code goes wrong:
NaN / ``-0.0`` / infinite / subnormal values, delays that are negative,
``-0.0`` or NaN, clicks exactly at delivery time, levels first delivered
out of sorted order, one hub user 50x the others, empty users, item ids
beyond int32, and the object columns the scalar adapters pass.

The property counts what it generated and fails if a class is missing;
``derandomize=True`` makes the counts reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metrics import user_metrics_from_columns
from repro.experiments.runner import delivery_digests
from tests import reference_fold as reference

#: Specials a float column mixes in: both zeros, both NaN signs, both
#: infinities, the smallest subnormals.
SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]


def float_column(rng, n, distinct, special_rate):
    """``n`` floats drawn from ``distinct`` values, with specials mixed in."""
    pool = rng.normal(scale=rng.choice([1.0, 1e3, 1e6]), size=distinct)
    values = pool[rng.integers(distinct, size=n)]
    specials = rng.random(n) < special_rate
    values[specials] = rng.choice(SPECIALS, size=int(specials.sum()))
    return values


def make_case(rng, lengths, records, object_columns):
    """Delivery columns over ``lengths`` rows per user, record labels over
    ``records`` per user; dtypes of the fold, or of the scalar adapters."""
    n = sum(lengths)
    times = float_column(rng, n, distinct=4, special_rate=0.08)
    times[rng.random(n) < 0.1] = rng.choice([0.0, -0.0], size=1)  # zero-delay pairs
    created = times - rng.uniform(0.0, 7200.0, size=n)
    shape = rng.integers(6, size=n)
    created[shape == 0] = times[shape == 0] + rng.uniform(0.0, 60.0)  # negative delay
    created[shape == 1] = times[shape == 1]                           # zero delay
    created[shape == 2] = 0.0                                         # -0.0 - 0.0
    created[shape == 3] = rng.choice(SPECIALS, size=int((shape == 3).sum()))
    ladder = rng.permutation([1, 2, 3, 4, 5, 6, -1, 2**40])[: rng.integers(1, 8)]
    levels = ladder[rng.integers(len(ladder), size=n)]
    sizes = rng.integers(0, rng.choice([10**4, 10**7, 2**52]), size=n)
    energies = float_column(rng, n, distinct=3, special_rate=0.15)
    # Some cases without specials: a NaN total hides how the sum was taken.
    utilities = float_column(rng, n, max(n, 1), special_rate=rng.choice([0.0, 0.1]))
    item_ids = rng.integers(0, rng.choice([2**10, 2**62]), size=n)
    clicked = rng.random(n) < 0.5
    click_times = times + rng.uniform(-600.0, 3600.0, size=n)
    when = rng.integers(4, size=n)
    click_times[when == 0] = math.nan
    click_times[when == 1] = times[when == 1]  # clicked exactly at delivery
    record_clicked = rng.random(sum(records)) < 0.4
    if object_columns:
        # What compute_user_metrics / delivery_digest build from Delivery
        # objects: Python scalars in object arrays, sizes int or float.
        as_float = rng.random(n) < 0.3
        sizes = np.array(
            [float(s) if f else int(s) for s, f in zip(sizes.tolist(), as_float)], dtype=object
        )
        levels, energies, utilities, item_ids, clicked = (
            np.array(column.tolist(), dtype=object)
            for column in (levels, energies, utilities, item_ids, clicked)
        )
    return {
        "times": times, "levels": levels, "sizes": sizes, "energies": energies,
        "utilities": utilities, "created": created, "clicked": clicked,
        "click_times": click_times, "item_ids": item_ids, "record_clicked": record_clicked,
    }


def offsets_of(lengths):
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def new_metrics(user_ids, records, lengths, c):
    return user_metrics_from_columns(
        user_ids, offsets_of(records), c["record_clicked"], offsets_of(lengths),
        c["times"], c["levels"], c["sizes"], c["energies"], c["utilities"],
        c["created"], c["clicked"], c["click_times"],
    )


def new_digests(user_ids, lengths, c):
    return delivery_digests(
        offsets_of(lengths), user_ids, c["times"], c["item_ids"], c["levels"],
        c["sizes"], c["energies"], c["utilities"],
    )


def reference_metrics(user_ids, records, lengths, c):
    delivery_columns = [
        c[name] for name in ("times", "levels", "sizes", "energies", "utilities",
                             "created", "clicked", "click_times")
    ]
    record_bounds, bounds = offsets_of(records), offsets_of(lengths)
    return [
        reference.user_metrics_from_columns(
            user_id, c["record_clicked"][record_bounds[u] : record_bounds[u + 1]].tolist(),
            *(column[bounds[u] : bounds[u + 1]].tolist() for column in delivery_columns),
        )
        for u, user_id in enumerate(user_ids)
    ]


def split_case(c, records, lengths, cut):
    """The case as two calls, users ``[:cut]`` and ``[cut:]`` -- how the
    fold hands a cohort to the kernels block by block."""
    rows, labels = sum(lengths[:cut]), sum(records[:cut])
    head = {k: (v[:labels] if k == "record_clicked" else v[:rows]) for k, v in c.items()}
    tail = {k: (v[labels:] if k == "record_clicked" else v[rows:]) for k, v in c.items()}
    return head, tail


@st.composite
def cases(draw):
    """Hypothesis picks the cohort's shape, a drawn seed fills in values."""
    users = draw(st.integers(1, 6))
    base = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, base), min_size=users, max_size=users))
    hub = draw(st.booleans())
    if hub:
        lengths[draw(st.integers(0, users - 1))] = 50 * base
    records = draw(st.lists(st.integers(0, 5), min_size=users, max_size=users))
    user_ids = draw(
        st.lists(st.integers(-(2**40), 2**40), min_size=users, max_size=users)
    )
    object_columns = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = make_case(rng, lengths, records, object_columns)
    return user_ids, records, lengths, hub, object_columns, case, draw(st.integers(0, users))


def observe(seen, user_ids, records, lengths, hub, object_columns, c):
    """Count the classes a mutant of the kernels needs in order to show."""
    seen["cases"] += 1
    seen["hub"] += hub
    seen["object_columns"] += object_columns
    seen["empty_user"] += any(r == 0 and n == 0 for r, n in zip(records, lengths))
    seen["records_no_deliveries"] += any(r > 0 and n == 0 for r, n in zip(records, lengths))
    with np.errstate(invalid="ignore"):
        delays = c["times"] - c["created"]
    seen["nan_delay"] += bool(np.isnan(delays).any())
    seen["negative_delay"] += bool((delays < 0.0).any())
    seen["minus_zero_delay"] += bool(((delays == 0.0) & np.signbit(delays)).any())
    clicked = c["clicked"].astype(bool)
    seen["click_at_delivery"] += bool((clicked & (c["click_times"] == c["times"])).any())
    seen["nan_click_time"] += bool((clicked & np.isnan(c["click_times"])).any())
    for name in ("utilities", "energies"):
        values = np.asarray(c[name], dtype=np.float64)
        seen[f"{name}_nan"] += bool(np.isnan(values).any())
        seen[f"{name}_inf"] += bool(np.isinf(values).any())
        seen[f"{name}_minus_zero"] += bool(((values == 0.0) & np.signbit(values)).any())
        seen[f"{name}_subnormal"] += bool(
            ((values != 0.0) & (np.abs(values) < np.finfo(np.float64).tiny)).any()
        )
    # Two zeros in one table column: a value-keyed table merges them.
    for name in ("times", "energies"):
        values = np.asarray(c[name], dtype=np.float64)
        signs = np.signbit(values[values == 0.0])
        seen["both_zeros_in_a_table"] += bool(signs.any() and not signs.all())
    bounds = offsets_of(lengths)
    levels = np.asarray(c["levels"], dtype=np.int64)
    seen["levels_out_of_order"] += any(
        list(dict.fromkeys(levels[lo:hi].tolist())) != sorted(set(levels[lo:hi].tolist()))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    seen["item_beyond_int32"] += bool((np.asarray(c["item_ids"], dtype=np.int64) > 2**31).any())
    if not object_columns:
        # A pairwise total (np.sum) would give other bits for some user.
        with np.errstate(invalid="ignore"):
            seen["pairwise_sum_differs"] += any(
                np.sum(c["utilities"][lo:hi]).tobytes()
                != np.float64(reduce(add, c["utilities"][lo:hi].tolist(), 0)).tobytes()
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )


def test_fold_kernels_equal_the_per_delivery_reference():
    seen: Counter[str] = Counter()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(cases())
    def prop(drawn):
        user_ids, records, lengths, hub, object_columns, c, cut = drawn
        want_metrics = [repr(m) for m in reference_metrics(user_ids, records, lengths, c)]
        want_digests = reference.delivery_digests(
            offsets_of(lengths), user_ids, c["times"], c["item_ids"], c["levels"],
            c["sizes"], c["energies"], c["utilities"],
        )
        assert [repr(m) for m in new_metrics(user_ids, records, lengths, c)] == want_metrics
        assert new_digests(user_ids, lengths, c) == want_digests

        # Cut into two calls anywhere: the same outcomes, user for user.
        head, tail = split_case(c, records, lengths, cut)
        halves = [
            (user_ids[:cut], records[:cut], lengths[:cut], head),
            (user_ids[cut:], records[cut:], lengths[cut:], tail),
        ]
        assert [
            repr(m) for args in halves for m in new_metrics(*args)
        ] == want_metrics
        assert [
            d for ids, _, n, part in halves for d in new_digests(ids, n, part)
        ] == want_digests
        observe(seen, user_ids, records, lengths, hub, object_columns, c)

    prop()
    assert seen["cases"] >= 450, seen
    for needed, at_least in {
        "hub": 120,
        "object_columns": 100,
        "empty_user": 120,
        "records_no_deliveries": 150,
        "nan_delay": 150,
        "negative_delay": 200,
        "minus_zero_delay": 60,
        "click_at_delivery": 170,
        "nan_click_time": 170,
        "utilities_nan": 60,
        "utilities_inf": 50,
        "utilities_minus_zero": 40,
        "utilities_subnormal": 60,
        "energies_nan": 120,
        "energies_inf": 120,
        "energies_minus_zero": 90,
        "energies_subnormal": 120,
        "both_zeros_in_a_table": 130,
        "levels_out_of_order": 130,
        "item_beyond_int32": 150,
        "pairwise_sum_differs": 12,
    }.items():
        assert seen[needed] >= at_least, (needed, seen)
