"""Table 1 — the six nested-form → GMDJ rewrite rules.

Table 1 is a correctness table, not a timing figure, so this benchmark
doubles as the equivalence harness: for every row of Table 1 the GMDJ
translation must return exactly the bag the naive tuple-iteration
semantics defines (on data containing NULLs), and each rewrite is timed
against the naive evaluation for reference.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import scaled, write_report
from repro.bench import build_table1_catalog, table1_queries
from repro.engine import execute, profile

_catalog = None
_queries = None


def _setup():
    global _catalog, _queries
    if _catalog is None:
        _catalog = build_table1_catalog(outer=scaled(120), inner=scaled(2400))
        _queries = table1_queries()
    return _catalog, _queries


RULES = ("comparison", "agg_comparison", "some", "all", "exists", "not_exists")
STRATEGIES = ("naive", "gmdj", "gmdj_optimized")


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_table1_rule(benchmark, rule, strategy):
    catalog, queries = _setup()
    query = queries[rule]
    expected = execute(query, catalog, "naive")
    runner = partial(execute, query, catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(expected), (
        f"Table 1 rule {rule!r} violated by strategy {strategy!r}"
    )


def test_table1_report(benchmark):
    catalog, queries = _setup()

    def run():
        rows = []
        for rule in RULES:
            reports = {
                strategy: profile(queries[rule], catalog, strategy)
                for strategy in STRATEGIES
            }
            rows.append((rule, reports))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["== Table 1: rewrite-rule equivalence and timing =="]
    header = f"{'rule':>16s}"
    for strategy in STRATEGIES:
        header += f" | {strategy:>16s}"
    lines.append(header + "   (ms)")
    for rule, reports in rows:
        row = f"{rule:>16s}"
        reference = None
        for strategy in STRATEGIES:
            report = reports[strategy]
            row += f" | {report.elapsed_seconds * 1000:16.2f}"
            if reference is None:
                reference = report.result
            else:
                assert reference.bag_equal(report.result)
        lines.append(row)
    text = "\n".join(lines)
    print(text)
    write_report("table1_mappings", text)
