"""Figure 2 — the EXISTS subquery experiment.

Paper setup: outer block of 1000 rows, EXISTS subquery over 300k/600k/
900k/1.2M rows, all correlation attributes indexed.  Paper result: both
join unnesting and the GMDJ rewrite beat the native engine's specialized
EXISTS algorithm, with GMDJ ≈ join even on this simplest unnesting case.

Here: outer 200 rows, inner 6k/12k/18k/24k (same sweep trajectory), four
strategies, and a series report in ``benchmark_results/latest/fig2_exists.txt``.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import WorkloadCache, scaled, write_report
from repro.bench import (
    FIG2_INNER_SIZES,
    FIG2_OUTER_SIZE,
    build_fig2,
    compare_strategies,
    print_series,
)
from repro.engine import execute

STRATEGIES = ("native", "unnest_join", "gmdj", "gmdj_optimized")
SIZES = tuple(map(scaled, FIG2_INNER_SIZES))
_workloads = WorkloadCache(
    lambda inner: build_fig2(inner, outer_size=scaled(FIG2_OUTER_SIZE)))
_reference = {}


def _expected(inner_size: int):
    if inner_size not in _reference:
        workload = _workloads.get(inner_size)
        _reference[inner_size] = execute(
            workload.query, workload.catalog, "gmdj"
        )
    return _reference[inner_size]


@pytest.mark.parametrize("inner_size", SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fig2_exists(benchmark, inner_size, strategy):
    workload = _workloads.get(inner_size)
    runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(_expected(inner_size))


def test_fig2_series_report(benchmark):
    def run():
        return [
            compare_strategies(_workloads.get(size), list(STRATEGIES))
            for size in SIZES
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = print_series(
        "Figure 2: EXISTS subquery (outer=200; paper: 1000 over 300k-1.2M)",
        results, STRATEGIES, x_label="inner size",
    )
    write_report("fig2_exists", text)
    # Paper shape: GMDJ stays within a small factor of join unnesting.
    for result in results:
        gmdj = result.reports["gmdj_optimized"].total_work
        join = result.reports["unnest_join"].total_work
        assert gmdj <= join * 2.5
