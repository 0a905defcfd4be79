"""Scalability micro-benchmarks of the hot paths a deployment cares about.

The paper's motivation is scale ("daily bandwidth consumption ... is
around 2TB", millions of users), and its Section V-C argues per-user
rounds shard to a parallel backend: broker fan-out, one scheduler round
vs queue size (near-linear MCKP heap) and Random Forest inference
throughput are timed here with pytest-benchmark (``make bench``).
Population-scale speed is the repo benchmark's job
(``benchmarks/harness/``, ``make bench-repo``).
"""

import random

from repro.core.budgets import DataBudget, EnergyBudget
from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.pubsub.broker import Broker, DeliveryMode
from repro.pubsub.subscriptions import SubscriptionStore
from repro.pubsub.topics import Publication, Topic, TopicKind
from repro.runtime import RoundLoop, registry
from repro.sim.battery import BatterySample, BatteryTrace
from repro.sim.device import MobileDevice
from repro.sim.network import CellularOnlyNetwork

LADDER = build_audio_ladder()


def test_bench_broker_fanout(benchmark):
    """1k publications x fan-out 20 through subscription matching."""
    store = SubscriptionStore()
    n_topics, fanout = 100, 20
    user = 0
    for topic_id in range(n_topics):
        topic = Topic(TopicKind.FRIEND, topic_id + 10_000)
        for _ in range(fanout):
            store.subscribe(user % 2000, topic)
            user += 1
    broker = Broker(store, default_mode=DeliveryMode.ROUND)
    rng = random.Random(0)
    publications = [
        Publication(
            topic=Topic(TopicKind.FRIEND, rng.randrange(n_topics) + 10_000),
            publisher_id=99_999,
            timestamp=float(i),
            payload={"track_id": i},
        )
        for i in range(1000)
    ]

    def fan_out():
        total = 0
        for publication in publications:
            total += len(broker.publish(publication))
        broker.flush()
        return total

    total = benchmark(fan_out)
    assert total == 1000 * fanout


def _make_scheduler():
    device = MobileDevice(
        user_id=1,
        network=CellularOnlyNetwork(),
        battery=BatteryTrace([BatterySample(0.0, 1.0, True)]),
    )
    return RoundLoop(
        device=device,
        data_budget=DataBudget(theta_bytes=5_000_000.0),
        energy_budget=EnergyBudget(kappa_joules=3000.0),
        policy=registry.create("richnote"),
    )


def _fill(scheduler, n_items, seed=0):
    rng = random.Random(seed)
    for item_id in range(n_items):
        scheduler.enqueue(
            ContentItem(
                item_id=item_id,
                user_id=1,
                kind=ContentKind.FRIEND_FEED,
                created_at=0.0,
                ladder=LADDER,
                content_utility=rng.random(),
            )
        )


def test_bench_round_with_large_queue(benchmark):
    """One Lyapunov-MCKP round over a 5000-item scheduling queue."""

    def run():
        scheduler = _make_scheduler()
        _fill(scheduler, 5000)
        return scheduler.run_round(3600.0, 3600.0)

    result = benchmark(run)
    assert result.deliveries


def test_bench_round_scaling(benchmark):
    """Round latency grows near-linearly with queue size (heap selection)."""
    import time

    def measure(n_items):
        scheduler = _make_scheduler()
        _fill(scheduler, n_items)
        start = time.perf_counter()
        scheduler.run_round(3600.0, 3600.0)
        return time.perf_counter() - start

    def run():
        return {n: measure(n) for n in (500, 2000, 8000)}

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("# Scheduler round latency vs queue size")
    for n_items, seconds in timings.items():
        print(f"  {n_items:>6} items: {seconds * 1000:8.1f} ms")
    # Sub-quadratic: 16x items must cost far less than 256x time.
    assert timings[8000] < 64 * max(timings[500], 1e-4)


def test_bench_forest_inference(benchmark, workload, annotations):
    """Online scoring throughput of the trained content-utility forest."""
    import numpy as np

    from repro.ml.dataset import FeatureExtractor, build_training_set
    from repro.ml.forest import RandomForestClassifier

    extractor = FeatureExtractor()
    x, y = build_training_set(workload.records, extractor)
    forest = RandomForestClassifier(
        n_estimators=15, max_depth=8, min_samples_leaf=5, random_state=0
    ).fit(x[:2000], y[:2000])
    batch = np.asarray(x[:1000], dtype=float)

    proba = benchmark(forest.predict_proba, batch)
    assert proba.shape == (1000, 2)
