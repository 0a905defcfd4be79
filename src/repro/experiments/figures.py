"""Per-figure data producers for the paper's evaluation section.

Each function returns plain data structures (series keyed by method and
budget) that the benchmark harness prints as the paper's rows.  Figures:

* Fig. 3  (a) delivery ratio, (b) data delivered, (c) recall, (d) precision
  -- methods x weekly budgets;
* Fig. 4  (a) total utility, (b) utility among clicked, (c) download
  energy, (d) queuing delay -- same grid;
* Fig. 5  (a) RichNote vs every fixed presentation level, (b) presentation
  mix vs budget, (c) presentation mix with the WIFI/CELL/OFF Markov model,
  (d) utility across user-volume categories;
* Section V-D5: sensitivity to the Lyapunov control knob V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.config import (
    PAPER_BASELINE_LEVELS,
    PAPER_BUDGET_SWEEP_MB,
    ExperimentConfig,
    Method,
    MethodSpec,
    NetworkMode,
)
from repro.experiments.runner import (
    ExperimentResult,
    UtilityAnnotations,
    run_experiment,
    sweep_budgets,
)
from repro.trace.generator import Workload


@dataclass
class FigureSeries:
    """One metric as series[method_label][budget] = value."""

    figure: str
    metric: str
    budgets_mb: tuple[float, ...]
    series: dict[str, dict[float, float]] = field(default_factory=dict)

    def row(self, label: str) -> list[float]:
        return [self.series[label][budget] for budget in self.budgets_mb]


def paper_method_specs() -> list[MethodSpec]:
    """RichNote plus FIFO/UTIL at the paper's fixed levels (5 s, 10 s)."""
    specs = [MethodSpec(Method.RICHNOTE)]
    for level in PAPER_BASELINE_LEVELS:
        specs.append(MethodSpec(Method.FIFO, fixed_level=level))
        specs.append(MethodSpec(Method.UTIL, fixed_level=level))
    return specs


def _series_from_grid(
    figure: str,
    metric: str,
    grid: dict[tuple[str, float], ExperimentResult],
    budgets: Sequence[float],
    extract,
) -> FigureSeries:
    out = FigureSeries(figure=figure, metric=metric, budgets_mb=tuple(budgets))
    for (label, budget), result in grid.items():
        out.series.setdefault(label, {})[budget] = extract(result)
    return out


def figure3_and_4(
    workload: Workload,
    budgets_mb: Sequence[float] = PAPER_BUDGET_SWEEP_MB,
    base_config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    specs: Sequence[MethodSpec] | None = None,
    grid: dict[tuple[str, float], ExperimentResult] | None = None,
) -> dict[str, FigureSeries]:
    """The shared Figures 3-4 sweep; returns all eight metric series.

    Pass a precomputed ``grid`` (e.g. from
    :func:`repro.experiments.pool.sweep_budgets_parallel`) to render
    series from an already-executed sweep instead of running one here.
    """
    specs = list(specs) if specs is not None else paper_method_specs()
    if grid is None:
        grid = sweep_budgets(
            workload, specs, budgets_mb, base_config, annotations, user_ids
        )
    metric_map = {
        "fig3a_delivery_ratio": lambda r: r.aggregate.delivery_ratio,
        "fig3b_delivered_mb": lambda r: r.aggregate.delivered_mb,
        "fig3c_recall": lambda r: r.aggregate.recall,
        "fig3d_precision": lambda r: r.aggregate.precision,
        "fig4a_total_utility": lambda r: r.aggregate.total_utility,
        "fig4b_clicked_utility": lambda r: r.aggregate.clicked_utility,
        "fig4c_energy_kj": lambda r: r.aggregate.energy_kilojoules,
        "fig4d_delay_s": lambda r: r.aggregate.mean_queuing_delay_s,
    }
    return {
        name: _series_from_grid(name[:5], name, grid, budgets_mb, extract)
        for name, extract in metric_map.items()
    }


def figure5a_fixed_levels(
    workload: Workload,
    budgets_mb: Sequence[float] = PAPER_BUDGET_SWEEP_MB,
    base_config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    max_level: int = 6,
) -> FigureSeries:
    """RichNote vs UTIL fixed at every preview level (Fig. 5a).

    The paper's "fixed presentation methods" hold one level constant; we
    use the UTIL ordering for them (its batch-mode analogue).
    """
    specs = [MethodSpec(Method.RICHNOTE)] + [
        MethodSpec(Method.UTIL, fixed_level=level) for level in range(2, max_level + 1)
    ]
    grid = sweep_budgets(
        workload, specs, budgets_mb, base_config, annotations, user_ids
    )
    return _series_from_grid(
        "fig5a",
        "total_utility",
        grid,
        budgets_mb,
        lambda r: r.aggregate.total_utility,
    )


@dataclass
class LevelMixSeries:
    """Presentation-level mix per budget (Figs. 5b/5c stacked bars)."""

    figure: str
    budgets_mb: tuple[float, ...]
    # mix[budget][level] = fraction of deliveries at that level
    mix: dict[float, dict[int, float]] = field(default_factory=dict)


def figure5b_presentation_mix(
    workload: Workload,
    budgets_mb: Sequence[float] = PAPER_BUDGET_SWEEP_MB,
    base_config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    network_mode: NetworkMode = NetworkMode.CELL_ONLY,
) -> LevelMixSeries:
    """RichNote's chosen presentation levels across budgets (Fig. 5b).

    With ``network_mode=MARKOV`` this is Fig. 5(c): the WIFI state admits
    more bytes per round, so richer presentations appear at equal budgets.
    """
    from dataclasses import replace

    base_config = base_config or ExperimentConfig()
    base_config = replace(base_config, network_mode=network_mode)
    series = LevelMixSeries(
        figure="fig5c" if network_mode is NetworkMode.MARKOV else "fig5b",
        budgets_mb=tuple(budgets_mb),
    )
    if annotations is None:
        annotations = UtilityAnnotations.train(workload, seed=base_config.seed)
    grid = sweep_budgets(
        workload, [MethodSpec(Method.RICHNOTE)], budgets_mb, base_config,
        annotations, user_ids,
    )
    for (_, budget), result in grid.items():
        series.mix[budget] = dict(result.aggregate.level_mix)
    return series


@dataclass(frozen=True)
class UserCategoryPoint:
    """One bucket of Fig. 5(d): users grouped by notification volume."""

    category_label: str
    lower_bound: int
    upper_bound: int
    user_count: int
    mean_utility: float
    std_utility: float


def figure5d_user_categories(
    workload: Workload,
    config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
    n_buckets: int = 5,
) -> list[UserCategoryPoint]:
    """Per-user utility grouped by notification-volume category (Fig. 5d)."""
    config = config or ExperimentConfig()
    result = run_experiment(
        workload, MethodSpec(Method.RICHNOTE), config, annotations, user_ids
    )
    volumes = [(o.metrics.total_notifications, o.metrics.total_utility) for o in result.per_user]
    if not volumes:
        return []
    max_volume = max(v for v, _ in volumes)
    bucket_width = max(1, math.ceil(max_volume / n_buckets))
    buckets: dict[int, list[float]] = {}
    for volume, utility in volumes:
        buckets.setdefault(min(volume // bucket_width, n_buckets - 1), []).append(utility)
    points = []
    for index in sorted(buckets):
        utilities = buckets[index]
        mean = sum(utilities) / len(utilities)
        variance = sum((u - mean) ** 2 for u in utilities) / len(utilities)
        lo, hi = index * bucket_width, (index + 1) * bucket_width
        points.append(
            UserCategoryPoint(
                category_label=f"{lo}-{hi}",
                lower_bound=lo,
                upper_bound=hi,
                user_count=len(utilities),
                mean_utility=mean,
                std_utility=math.sqrt(variance),
            )
        )
    return points


@dataclass(frozen=True)
class SensitivityPoint:
    """One V setting of the Lyapunov sensitivity study (Sec. V-D5)."""

    v: float
    total_utility: float
    mean_backlog_bytes: float
    delivery_ratio: float
    energy_kilojoules: float


def v_sensitivity(
    workload: Workload,
    v_values: Sequence[float] = (10.0, 100.0, 1000.0, 10000.0),
    config: ExperimentConfig | None = None,
    annotations: UtilityAnnotations | None = None,
    user_ids: Sequence[int] | None = None,
) -> list[SensitivityPoint]:
    """RichNote across Lyapunov control-knob settings.

    The paper "observed that RichNote performs uniformly better in all
    these settings"; the bench asserts utility varies mildly while backlog
    stays bounded.
    """
    config = config or ExperimentConfig()
    if annotations is None:
        annotations = UtilityAnnotations.train(workload, seed=config.seed)
    points = []
    for v in v_values:
        result = run_experiment(
            workload,
            MethodSpec(Method.RICHNOTE),
            config.with_v(v),
            annotations,
            user_ids,
        )
        points.append(
            SensitivityPoint(
                v=v,
                total_utility=result.aggregate.total_utility,
                mean_backlog_bytes=result.mean_backlog_bytes,
                delivery_ratio=result.aggregate.delivery_ratio,
                energy_kilojoules=result.aggregate.energy_kilojoules,
            )
        )
    return points
