"""A realistic decision-support SQL workload across all strategies.

Complements the per-figure microcosms with end-to-end SQL: parse, bind,
translate, optimize, execute.  Every query runs under every applicable
strategy with answers cross-checked; the report table mirrors the
Section 5 presentation over a workload instead of a single query shape.
"""

from __future__ import annotations

import pytest
from repro import QueryOptions

from conftest import write_report
from repro.data import TpcrSizes, build_tpcr_catalog
from repro.engine import Database, make_executor

STRATEGIES = ("naive", "native", "unnest_join", "gmdj", "gmdj_optimized")

QUERIES = {
    "exists_big_order": (
        "SELECT c.custkey FROM customer c WHERE EXISTS "
        "(SELECT * FROM orders o WHERE o.custkey = c.custkey AND "
        "o.totalprice > 350000)"
    ),
    "not_exists_urgent": (
        "SELECT c.custkey FROM customer c WHERE NOT EXISTS "
        "(SELECT * FROM orders o WHERE o.custkey = c.custkey AND "
        "o.orderpriority = '1-URGENT')"
    ),
    "above_segment_avg": (
        "SELECT c.custkey FROM customer c WHERE c.acctbal > "
        "(SELECT AVG(d.acctbal) FROM customer d WHERE "
        "d.mktsegment = c.mktsegment)"
    ),
    "brand_price_leader": (
        "SELECT p.partkey FROM part p WHERE p.retailprice >= ALL "
        "(SELECT q.retailprice FROM part q WHERE q.brand = p.brand)"
    ),
    "nations_with_rich_customers": (
        "SELECT s.suppkey FROM supplier s WHERE s.nationkey IN "
        "(SELECT c.nationkey FROM customer c WHERE c.acctbal > 9000)"
    ),
    "repeat_urgent_buyers": (
        "SELECT c.custkey FROM customer c WHERE 2 <= "
        "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey "
        "AND o.orderpriority = '1-URGENT')"
    ),
    "order_profile_columns": (
        "SELECT c.custkey, "
        "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey) n, "
        "(SELECT MAX(o2.totalprice) FROM orders o2 WHERE "
        "o2.custkey = c.custkey) top FROM customer c"
    ),
    "distinct_priorities": (
        "SELECT c.custkey FROM customer c WHERE 3 <= "
        "(SELECT COUNT(DISTINCT o.orderpriority) FROM orders o WHERE "
        "o.custkey = c.custkey)"
    ),
}

_db = None


def _setup() -> Database:
    global _db
    if _db is None:
        db = Database()
        catalog = build_tpcr_catalog(TpcrSizes(
            customers=150, orders=3000, lineitems=100, parts=300,
            suppliers=25,
        ))
        for name in catalog.table_names():
            db.register(name, catalog.table(name))
        db.create_index("orders", "custkey")
        db.create_index("customer", "custkey")
        _db = db
    return _db


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sql_workload(benchmark, query_name, strategy):
    db = _setup()
    plan = db.sql(QUERIES[query_name])
    expected = make_executor(plan, db.catalog, "gmdj")()
    runner = make_executor(plan, db.catalog, strategy)
    result = benchmark.pedantic(runner, rounds=1, iterations=1)
    assert result.bag_equal(expected), (query_name, strategy)


def test_sql_workload_report(benchmark):
    db = _setup()

    def run():
        lines = ["== SQL workload: time (ms) per strategy =="]
        header = f"{'query':>28s}"
        for strategy in STRATEGIES:
            header += f" | {strategy:>14s}"
        lines.append(header)
        for name in sorted(QUERIES):
            plan = db.sql(QUERIES[name])
            row = f"{name:>28s}"
            reference = None
            for strategy in STRATEGIES:
                report = db.profile(plan, QueryOptions(strategy))
                if reference is None:
                    reference = report.result
                else:
                    assert reference.bag_equal(report.result), (name, strategy)
                row += f" | {report.elapsed_seconds * 1000:14.1f}"
            lines.append(row)
        return "\n".join(lines)

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("sql_workload", text)
