"""Trace-driven evaluation harness regenerating the paper's figures."""

from repro.experiments.config import (
    PAPER_BASELINE_LEVELS,
    PAPER_BUDGET_SWEEP_MB,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.adapters import record_to_item
from repro.experiments.metrics import (
    AggregateMetrics,
    MetricsAccumulator,
    UserMetrics,
    aggregate,
    compute_user_metrics,
)
from repro.experiments.pool import ExperimentPool, sweep_budgets_parallel
from repro.experiments.runner import (
    CellSummary,
    ExperimentResult,
    UtilityAnnotations,
    delivery_digest,
    run_experiment,
    run_user,
    shard_by_user,
    sweep_budgets,
)
from repro.experiments.system import SystemConfig, SystemReport, SystemSimulation
from repro.experiments.confidence import (
    MetricSummary,
    ReplicatedResult,
    compare_replicated,
    dominates_across_seeds,
    replicate_experiment,
)
