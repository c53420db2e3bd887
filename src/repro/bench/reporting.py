"""Paper-style series tables for the benchmark harness.

The figures in the paper plot query evaluation time against workload
size, one series per strategy.  :func:`print_series` reproduces that as a
fixed-width table with one row per parameter point and one column pair
(time, work) per strategy, so the *shape* — who wins, by what factor,
where the crossovers sit — is directly visible in the benchmark output.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.runner import ComparisonResult


def print_series(
    title: str,
    results: Sequence[ComparisonResult],
    strategies: Sequence[str],
    x_label: str = "point",
) -> str:
    """Render (and return) the series table (plus an ASCII shape chart)
    for one experiment."""
    lines = [f"== {title} ==".center(40 + 24 * len(strategies))]
    header = f"{x_label:>24s}"
    for strategy in strategies:
        header += f" | {strategy:>21s}"
    lines.append(header)
    sub = " " * 24
    for _ in strategies:
        sub += f" | {'ms':>9s} {'work':>11s}"
    lines.append(sub)
    lines.append("-" * len(sub))
    for result in results:
        label = _point_label(result)
        row = f"{label:>24s}"
        for strategy in strategies:
            report = result.reports.get(strategy)
            if report is None:
                reason = "infeasible" if strategy in result.failures else "-"
                row += f" | {reason:>21s}"
            else:
                row += (
                    f" | {report.elapsed_seconds * 1000:9.1f} "
                    f"{report.total_work:11d}"
                )
        lines.append(row)
    text = "\n".join(lines)
    if results:
        from repro.bench.charts import chart_results

        text += "\n\n" + chart_results(f"shape: {title}", results, strategies)
    print(text)
    return text


def _point_label(result: ComparisonResult) -> str:
    params = result.workload.params
    parts = [f"{key}={value}" for key, value in params.items()
             if key != "indexes"]
    if params.get("indexes") is False:
        parts.append("noidx")
    return ",".join(parts)


def series_summary(
    results: Sequence[ComparisonResult], strategy: str
) -> list[float]:
    """One strategy's work series; ``inf`` where it did not run."""
    return [
        float(result.reports[strategy].total_work)
        if strategy in result.reports else float("inf")
        for result in results
    ]
