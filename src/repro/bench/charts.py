"""ASCII charts for the benchmark reports.

The paper's figures are line charts of evaluation time vs workload size,
one series per strategy.  This module renders the same data as a
terminal-friendly chart so ``benchmark_results/*.txt`` shows the *shape*
at a glance — log-scaled horizontal bars, one row per (point, strategy).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.bench.runner import ComparisonResult

#: Width of the bar area in characters.
BAR_WIDTH = 50


def ascii_chart(
    title: str,
    labels: Sequence[str],
    series: dict,
    unit: str = "work",
) -> str:
    """Render ``{strategy: [value per label]}`` as log-scaled bars.

    Missing points (None / inf) render as ``infeasible``.  Values are
    log-scaled because the interesting gaps span orders of magnitude.
    """
    finite = [
        value
        for values in series.values()
        for value in values
        if value is not None and math.isfinite(value) and value > 0
    ]
    if not finite:
        return f"{title}\n(no data)"
    low = min(finite)
    high = max(finite)
    span = math.log10(high / low) if high > low else 1.0

    def bar(value) -> str:
        if value is None or not math.isfinite(value):
            return "infeasible"
        if value <= 0:
            return ""
        filled = 1 + round(
            (BAR_WIDTH - 1) * (math.log10(value / low) / span)
        ) if span else BAR_WIDTH
        return "#" * max(1, min(BAR_WIDTH, filled))

    name_width = max(len(name) for name in series)
    lines = [title, f"(log scale, {unit}; min={low:g}, max={high:g})"]
    for index, label in enumerate(labels):
        lines.append(f"{label}:")
        for name, values in series.items():
            value = values[index] if index < len(values) else None
            rendered = bar(value)
            suffix = (
                f" {value:,.0f}"
                if value is not None and math.isfinite(value)
                else ""
            )
            lines.append(f"  {name:<{name_width}} |{rendered}{suffix}")
    return "\n".join(lines)


def chart_results(
    title: str,
    results: Sequence[ComparisonResult],
    strategies: Sequence[str],
) -> str:
    """Build an ascii work chart straight from ComparisonResult sweeps."""
    from repro.bench.reporting import _point_label, series_summary

    labels = [_point_label(result) for result in results]
    series = {
        strategy: series_summary(results, strategy)
        for strategy in strategies
    }
    return ascii_chart(title, labels, series)
