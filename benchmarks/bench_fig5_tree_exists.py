"""Figure 5 — two tree-nested EXISTS predicates, with and without indexes.

Paper setup: a 1000-row outer block with two EXISTS subqueries over
300k→1.2M-row tables whose disjoint filter predicates prevent the join
plans from being combined.  Paper results: native does well **only**
when the correlation attributes are indexed (an order of magnitude worse
without); the join plan needs two large joins and suffers, badly so
without indexes; the GMDJ is essentially unaffected by dropping indexes,
and the coalescing-optimized GMDJ (both subqueries in one scan) beats
even the specialized native EXISTS evaluation.

Here: outer 200, inner 6k→24k, each strategy measured indexed and
unindexed.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import WorkloadCache, scaled, write_report
from repro.bench import (
    FIG5_INNER_SIZES,
    FIG5_OUTER_SIZE,
    build_fig5,
    compare_strategies,
    print_series,
)
from repro.engine import execute

INDEXED = ("native", "unnest_join", "gmdj", "gmdj_optimized")
UNINDEXED = ("native_noindex", "unnest_join_noindex", "gmdj_optimized")

SIZES = tuple(map(scaled, FIG5_INNER_SIZES))
_workloads = WorkloadCache(lambda size, indexes: build_fig5(
    size, outer_size=scaled(FIG5_OUTER_SIZE), indexes=indexes))
_reference = {}


def _expected(size, indexes):
    key = (size, indexes)
    if key not in _reference:
        workload = _workloads.get(size, indexes)
        _reference[key] = execute(
            workload.query, workload.catalog, "gmdj"
        )
    return _reference[key]


@pytest.mark.parametrize("inner_size", SIZES)
@pytest.mark.parametrize("strategy", INDEXED)
def test_fig5_indexed(benchmark, inner_size, strategy):
    workload = _workloads.get(inner_size, True)
    runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(_expected(inner_size, True))


@pytest.mark.parametrize("inner_size", SIZES)
@pytest.mark.parametrize("strategy", UNINDEXED)
def test_fig5_unindexed(benchmark, inner_size, strategy):
    workload = _workloads.get(inner_size, False)
    runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(_expected(inner_size, False))


def test_fig5_series_report(benchmark):
    strategies = list(dict.fromkeys(INDEXED + UNINDEXED))

    def run():
        results = []
        for size in SIZES:
            indexed = compare_strategies(_workloads.get(size, True), list(INDEXED))
            unindexed = compare_strategies(
                _workloads.get(size, False), list(UNINDEXED)
            )
            indexed.reports.update(unindexed.reports)
            results.append(indexed)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = print_series(
        "Figure 5: tree-nested EXISTS (paper: 1000 outer over 300k-1.2M, "
        "indexed vs unindexed)",
        results, strategies, x_label="inner size",
    )
    write_report("fig5_tree_exists", text)
    for result in results:
        # Paper shape: dropping indexes barely moves the GMDJ but makes
        # the native strategy pay for full inner scans per outer tuple.
        native_idx = result.reports["native"].total_work
        native_noidx = result.reports["native_noindex"].total_work
        assert native_noidx > native_idx * 5
        # Coalescing folds both EXISTS blocks into one detail scan.
        optimized = result.reports["gmdj_optimized"].counters["relation_scans"]
        basic = result.reports["gmdj"].counters["relation_scans"]
        assert optimized < basic
