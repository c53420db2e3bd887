"""Figure 3 — comparison predicate over an aggregate subquery.

Paper setup: outer block 500→2000 rows paired with inner blocks
300k→1.2M; the native engine falls back to a plain nested loop, join
unnesting needs an aggregate + outer-join plan (which degraded at the
largest size), the GMDJ evaluation stays smooth.

Here: outer 50→200 paired with inner 3k→12k.  ``naive`` plays the
paper's native nested loop; the GMDJ series should stay well below it
and within a constant factor of the join plan throughout.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import WorkloadCache, scaled, write_report
from repro.bench import FIG3_POINTS, build_fig3, compare_strategies, print_series
from repro.engine import execute

STRATEGIES = ("naive", "unnest_join", "gmdj", "gmdj_optimized")
POINTS = tuple((scaled(outer), scaled(inner)) for outer, inner in FIG3_POINTS)
_workloads = WorkloadCache(build_fig3)
_reference = {}


def _expected(point):
    if point not in _reference:
        workload = _workloads.get(*point)
        _reference[point] = execute(
            workload.query, workload.catalog, "gmdj"
        )
    return _reference[point]


@pytest.mark.parametrize("point", POINTS,
                         ids=[f"{o}x{i}" for o, i in POINTS])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fig3_aggcomp(benchmark, point, strategy):
    workload = _workloads.get(*point)
    runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(_expected(point))


def test_fig3_series_report(benchmark):
    def run():
        return [
            compare_strategies(_workloads.get(*point), list(STRATEGIES))
            for point in POINTS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = print_series(
        "Figure 3: aggregate comparison (paper: outer 500-2000, inner "
        "300k-1.2M; naive = native nested loop)",
        results, STRATEGIES, x_label="outer x inner",
    )
    write_report("fig3_aggcomp", text)
    for result in results:
        naive = result.reports["naive"].total_work
        gmdj = result.reports["gmdj_optimized"].total_work
        # Paper shape: the nested loop is dramatically worse than GMDJ.
        assert gmdj * 5 < naive
