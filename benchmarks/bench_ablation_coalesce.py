"""Ablation A — coalescing (Proposition 4.1) on the Example 2.3 query.

The three-subquery SourceIP query stacks three GMDJs over the same Flow
table; coalescing folds them (plus the final aggregation pass, after the
selection pull-up) into far fewer scans.  The metric that matters is the
number of relation scans and pages read — this is exactly the "evaluate
multiple subqueries over the same table in a single scan of that table"
claim of Section 4.1.

``gmdj_coalesce`` is not a strategy: it is the translation with
``coalesce=True, completion=False``, run pre-translated under ``gmdj``.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import scaled, write_report
from repro.bench import build_example23, compare_strategies, print_series
from repro.engine import execute
from repro.unnesting import subquery_to_gmdj

STRATEGIES = ("gmdj", "gmdj_coalesce", "gmdj_optimized")
_workload = None


def _setup():
    global _workload
    if _workload is None:
        _workload = build_example23(flows=scaled(4000))
    return _workload


def _plans(workload):
    return {"gmdj_coalesce": subquery_to_gmdj(
        workload.query, workload.catalog, optimize=True,
        coalesce=True, completion=False)}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_example23(benchmark, strategy):
    workload = _setup()
    expected = execute(workload.query, workload.catalog, "naive")
    plans = _plans(workload)
    if strategy in plans:
        runner = partial(execute, plans[strategy], workload.catalog, "gmdj")
    else:
        runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(expected)


def test_coalesce_ablation_report(benchmark):
    workload = _setup()

    def run():
        return compare_strategies(workload, list(STRATEGIES),
                                  plans=_plans(workload))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    text = print_series(
        "Ablation A: coalescing on Example 2.3 (three subqueries, one table)",
        [result], STRATEGIES, x_label="point",
    )
    scans = {
        strategy: result.reports[strategy].counters["relation_scans"]
        for strategy in STRATEGIES
    }
    text += f"\nrelation scans: {scans}"
    print(f"relation scans: {scans}")
    write_report("ablation_coalesce", text)
    assert scans["gmdj_coalesce"] < scans["gmdj"]
    assert scans["gmdj_optimized"] <= scans["gmdj_coalesce"]
