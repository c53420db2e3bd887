"""Benchmark harness: workload builders, sweep runner, series reporting."""

from repro.bench.runner import ComparisonResult, compare_strategies
from repro.bench.reporting import print_series, series_summary
from repro.bench.workloads import (
    FIG2_INNER_SIZES,
    FIG2_OUTER_SIZE,
    FIG3_POINTS,
    FIG4_SIZES,
    FIG5_INNER_SIZES,
    FIG5_OUTER_SIZE,
    Workload,
    build_example23,
    build_fig2,
    build_fig3,
    build_fig4,
    build_fig5,
    build_table1_catalog,
    table1_queries,
)

__all__ = [
    "ComparisonResult",
    "FIG2_INNER_SIZES",
    "FIG2_OUTER_SIZE",
    "FIG3_POINTS",
    "FIG4_SIZES",
    "FIG5_INNER_SIZES",
    "FIG5_OUTER_SIZE",
    "Workload",
    "build_example23",
    "build_fig2",
    "build_fig3",
    "build_fig4",
    "build_fig5",
    "build_table1_catalog",
    "compare_strategies",
    "print_series",
    "series_summary",
    "table1_queries",
]
