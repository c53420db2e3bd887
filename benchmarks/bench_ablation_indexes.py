"""Ablation C — index sensitivity (the paper's stability claim).

"The presence or absence of indexes on the base tables has minimal or no
effect on the GMDJ processing algorithm", while the native strategy and
the join-unnesting plans of a conventional engine degrade badly.  This
ablation runs the Figure 2 EXISTS workload with and without indexes and
compares each strategy against itself.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import scaled, write_report
from repro.bench import FIG2_OUTER_SIZE, build_fig2, compare_strategies, print_series
from repro.engine import execute

INNER = scaled(12000)
PAIRS = (
    ("native", "native_noindex"),
    ("unnest_join", "unnest_join_noindex"),
    ("gmdj_optimized", "gmdj_optimized"),
)
_workloads = {}


def _setup(indexes: bool):
    if indexes not in _workloads:
        _workloads[indexes] = build_fig2(
            INNER, outer_size=scaled(FIG2_OUTER_SIZE), indexes=indexes)
    return _workloads[indexes]


@pytest.mark.parametrize("indexes", (True, False), ids=("indexed", "noindex"))
@pytest.mark.parametrize("pair", PAIRS, ids=(p[0] for p in PAIRS))
def test_index_ablation(benchmark, indexes, pair):
    strategy = pair[0] if indexes else pair[1]
    workload = _setup(indexes)
    expected = execute(workload.query, workload.catalog, "gmdj")
    runner = partial(execute, workload.query, workload.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(expected)


def test_index_ablation_report(benchmark):
    def run():
        indexed = compare_strategies(
            _setup(True), [p[0] for p in PAIRS]
        )
        unindexed = compare_strategies(
            _setup(False), sorted({p[1] for p in PAIRS})
        )
        return indexed, unindexed

    indexed, unindexed = benchmark.pedantic(run, rounds=1, iterations=1)
    strategies = list(dict.fromkeys(
        [p[0] for p in PAIRS] + [p[1] for p in PAIRS]
    ))
    indexed.reports.update(unindexed.reports)
    text = print_series(
        "Ablation C: index sensitivity on the Figure 2 workload",
        [indexed], strategies, x_label="point",
    )
    write_report("ablation_indexes", text)
    gmdj_idx = indexed.reports["gmdj_optimized"].total_work
    native_idx = indexed.reports["native"].total_work
    native_noidx = indexed.reports["native_noindex"].total_work
    # The GMDJ never used the indexes; native degrades sharply without them.
    assert native_noidx > native_idx
    assert native_noidx > gmdj_idx
