"""Claim: the headline orderings survive new worlds (seed robustness).

Every other claim pins one world.  This one regenerates the entire
synthetic world (catalog, graph, trace, labels, classifier) under three
different seeds and checks the paper's core ordering claims hold in every
replicate -- the reproduction's answer to "did you just get lucky with
your random trace?".  Each replicate is its own world, so it names its
own preset and population rather than the shared fixture's.
"""

from repro.experiments.config import ExperimentConfig, Method, MethodSpec
from repro.experiments.confidence import (
    compare_replicated,
    dominates_across_seeds,
)

SEEDS = (301, 502, 703)
REPLICA_PRESET = "small"
REPLICA_USERS = 8


def test_seed_robustness():
    config = ExperimentConfig(weekly_budget_mb=5.0)
    specs = [
        MethodSpec(Method.RICHNOTE),
        MethodSpec(Method.UTIL, 3),
        MethodSpec(Method.FIFO, 3),
    ]
    results = {
        metric: compare_replicated(
            specs, config, SEEDS, metric=metric, preset=REPLICA_PRESET,
            top_users=REPLICA_USERS,
        )
        for metric in ("delivery_ratio", "recall", "delay_s")
    }
    print()
    print(f"# Seed robustness over worlds {list(SEEDS)} (5MB budget)")
    for metric, summaries in results.items():
        print(f"-- {metric}")
        for label, summary in summaries.items():
            print(
                f"   {label:<10} mean={summary.mean:10.3f} "
                f"std={summary.std:9.3f} "
                f"range=[{summary.minimum:.3f}, {summary.maximum:.3f}]"
            )

    # Delivery ratio and recall: RichNote's worst world beats the
    # baselines' best worlds.
    for metric in ("delivery_ratio", "recall"):
        summaries = results[metric]
        for baseline in ("UTIL-L3", "FIFO-L3"):
            assert dominates_across_seeds(
                summaries["RichNote"], summaries[baseline]
            ), f"{metric}: RichNote vs {baseline} not seed-robust"
    # Queuing delay: RichNote's worst is below the baselines' best.
    delay = results["delay_s"]
    for baseline in ("UTIL-L3", "FIFO-L3"):
        assert delay["RichNote"].maximum < delay[baseline].minimum
