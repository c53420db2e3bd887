"""Ablation B — base-tuple completion (Theorems 4.1/4.2) on Figure 4's
workload.

With the ``<>`` correlation no hash partitioning is possible, so every
detail tuple tests every *active* base tuple.  Completion dooms a base
tuple on its first weak-only match (the cnt1=cnt2 pairwise rule), which
collapses the active set early in the scan; the completed-tuple counter
and the predicate-evaluation counter make the effect directly visible.

``gmdj_completion`` is not a strategy: it is the translation with
``coalesce=False, completion=True``, run pre-translated under ``gmdj``.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import scaled, write_report
from repro.bench import FIG4_SIZES, build_fig4, compare_strategies, print_series
from repro.engine import execute
from repro.unnesting import subquery_to_gmdj

STRATEGIES = ("gmdj", "gmdj_completion")
SIZES = tuple(map(scaled, FIG4_SIZES[:2]))
_workloads = {}


def _setup(size):
    if size not in _workloads:
        _workloads[size] = build_fig4(size)
    return _workloads[size]


def _plans(workload):
    return {"gmdj_completion": subquery_to_gmdj(
        workload.query, workload.catalog, optimize=True,
        coalesce=False, completion=True)}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fig4_completion(benchmark, size, strategy):
    workload = _setup(size)
    expected = execute(workload.query, workload.catalog, "native")
    plans = _plans(workload)
    if strategy in plans:
        runner = partial(execute, plans[strategy], workload.catalog, "gmdj")
    else:
        runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(expected)


def test_completion_ablation_report(benchmark):
    def run():
        return [
            compare_strategies(_setup(size), list(STRATEGIES),
                               plans=_plans(_setup(size)))
            for size in SIZES
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    text = print_series(
        "Ablation B: tuple completion on the Figure 4 (ALL, <>) workload",
        results, STRATEGIES, x_label="table size",
    )
    for result in results:
        basic = result.reports["gmdj"]
        completed = result.reports["gmdj_completion"]
        line = (
            f"size={result.workload.params['size']}: "
            f"predicate evals {basic.predicate_evals} -> "
            f"{completed.predicate_evals}, completed tuples "
            f"{completed.counters['completed_tuples']}"
        )
        print(line)
        text += "\n" + line
        assert completed.predicate_evals * 2 < basic.predicate_evals
    write_report("ablation_completion", text)
