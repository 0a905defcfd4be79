"""Plain-text rendering of figure series as the paper's tables."""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figures import (
    FigureSeries,
    LevelMixSeries,
    SensitivityPoint,
    UserCategoryPoint,
)


def render_series_table(series: FigureSeries, precision: int = 3) -> str:
    """One row per method, one column per budget."""
    header = ["method".ljust(14)] + [
        f"{budget:g}MB".rjust(10) for budget in series.budgets_mb
    ]
    lines = [f"# {series.metric}", " ".join(header)]
    for label in sorted(series.series):
        cells = [label.ljust(14)]
        for budget in series.budgets_mb:
            cells.append(f"{series.series[label][budget]:.{precision}f}".rjust(10))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_level_mix(series: LevelMixSeries, max_level: int = 6) -> str:
    """Stacked-bar data of Figs. 5b/5c as a table (fraction per level)."""
    header = ["budget".ljust(10)] + [f"L{lvl}".rjust(8) for lvl in range(1, max_level + 1)]
    lines = [f"# {series.figure} presentation mix", " ".join(header)]
    for budget in series.budgets_mb:
        mix = series.mix.get(budget, {})
        cells = [f"{budget:g}MB".ljust(10)]
        for level in range(1, max_level + 1):
            cells.append(f"{mix.get(level, 0.0):.3f}".rjust(8))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_user_categories(points: Sequence[UserCategoryPoint]) -> str:
    lines = [
        "# fig5d utility across user categories",
        "category".ljust(12)
        + "users".rjust(8)
        + "mean_util".rjust(12)
        + "std".rjust(10),
    ]
    for point in points:
        lines.append(
            point.category_label.ljust(12)
            + str(point.user_count).rjust(8)
            + f"{point.mean_utility:.2f}".rjust(12)
            + f"{point.std_utility:.2f}".rjust(10)
        )
    return "\n".join(lines)


def render_sensitivity(points: Sequence[SensitivityPoint]) -> str:
    lines = [
        "# Lyapunov V sensitivity",
        "V".rjust(8)
        + "total_util".rjust(12)
        + "backlog_MB".rjust(12)
        + "delivery".rjust(10)
        + "energy_kJ".rjust(11),
    ]
    for point in points:
        lines.append(
            f"{point.v:g}".rjust(8)
            + f"{point.total_utility:.1f}".rjust(12)
            + f"{point.mean_backlog_bytes / 1e6:.2f}".rjust(12)
            + f"{point.delivery_ratio:.3f}".rjust(10)
            + f"{point.energy_kilojoules:.2f}".rjust(11)
        )
    return "\n".join(lines)


def render_failure_stats(stats, label: str = "") -> str:
    """Delivery-failure accounting table (chaos runs).

    ``stats`` is a :class:`repro.core.delivery.DeliveryStats`, the fault
    ledger (a cell's is :attr:`ExperimentResult.failures`, its users'
    engine ledgers merged in user order); the table lists
    attempts/retries/dead-letters, the refunded and wasted billed bytes,
    the byte-conservation check and the per-kind fault mix.
    """
    title = "# delivery failures" + (f" -- {label}" if label else "")
    lines = [title]
    for key, value in stats.row().items():
        if key in ("refunded_mb", "wasted_mb", "failure_rate"):
            lines.append(f"{key:>16}: {value:.4f}")
        else:
            lines.append(f"{key:>16}: {value:.0f}")
    lines.append(
        f"{'conservation':>16}: "
        f"{'ok' if stats.conservation_error() < 1e-6 else 'VIOLATED'} "
        f"(err={stats.conservation_error():.3g} B)"
    )
    for kind in sorted(stats.fault_counts):
        lines.append(f"{'fault:' + kind:>16}: {stats.fault_counts[kind]}")
    return "\n".join(lines)


def render_ascii_chart(
    series: FigureSeries,
    width: int = 60,
    height: int = 12,
    log_x: bool = True,
) -> str:
    """Terminal line chart of a figure series (one glyph per method).

    Budgets map to the x axis (log-scaled by default, matching the paper's
    sweep spacing); metric values to the y axis.  Intended for the example
    scripts -- a quick visual check without a plotting dependency.
    """
    import math

    if width < 10 or height < 4:
        raise ValueError("chart needs width >= 10 and height >= 4")
    budgets = list(series.budgets_mb)
    if len(budgets) < 2:
        raise ValueError("need at least two budgets to chart")
    values = [
        series.series[label][budget]
        for label in series.series
        for budget in budgets
    ]
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0

    def x_position(budget: float) -> int:
        if log_x:
            left, right = math.log(budgets[0]), math.log(budgets[-1])
            t = (math.log(budget) - left) / (right - left)
        else:
            t = (budget - budgets[0]) / (budgets[-1] - budgets[0])
        return min(width - 1, int(round(t * (width - 1))))

    def y_position(value: float) -> int:
        t = (value - lo) / (hi - lo)
        return min(height - 1, int(round(t * (height - 1))))

    glyphs = "ox+*#@%&"
    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, label in enumerate(sorted(series.series)):
        glyph = glyphs[index % len(glyphs)]
        legend.append(f"{glyph}={label}")
        for budget in budgets:
            row = height - 1 - y_position(series.series[label][budget])
            col = x_position(budget)
            grid[row][col] = glyph
    lines = [f"# {series.metric}   y: [{lo:.3g}, {hi:.3g}]"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(
        " x: " + " .. ".join(f"{budgets[0]:g}MB {budgets[-1]:g}MB".split())
    )
    lines.append(" " + "  ".join(legend))
    return "\n".join(lines)


def save_series_csv(series: FigureSeries, path) -> None:
    """Write a figure series as CSV: method, then one column per budget.

    For users who want to re-plot the paper's figures with their own
    tooling; pairs with :func:`load_series_csv`.
    """
    import csv
    from pathlib import Path

    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", series.metric])
        writer.writerow(["method"] + [f"{b:g}" for b in series.budgets_mb])
        for label in sorted(series.series):
            writer.writerow(
                [label]
                + [repr(series.series[label][b]) for b in series.budgets_mb]
            )


def load_series_csv(path) -> FigureSeries:
    """Inverse of :func:`save_series_csv`."""
    import csv
    from pathlib import Path

    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 3 or rows[0][0] != "metric" or rows[1][0] != "method":
        raise ValueError(f"{path}: not a figure-series CSV")
    metric = rows[0][1]
    budgets = tuple(float(b) for b in rows[1][1:])
    series: dict[str, dict[float, float]] = {}
    for row in rows[2:]:
        if not row:
            continue
        label, values = row[0], row[1:]
        if len(values) != len(budgets):
            raise ValueError(f"{path}: row {label!r} has wrong width")
        series[label] = dict(zip(budgets, (float(v) for v in values)))
    return FigureSeries(
        figure=metric[:5], metric=metric, budgets_mb=budgets, series=series
    )
