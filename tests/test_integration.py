"""End-to-end integration tests: SQL over generated warehouses, all
strategies in agreement, paper examples reproduced."""

import pytest

from repro import QueryOptions, Database
from repro.algebra.expressions import col, lit
from repro.algebra.nested import Exists, NestedSelect, Subquery
from repro.algebra.operators import Project, ScanTable
from repro.bench import (
    build_fig2,
    build_table1_catalog,
    compare_strategies,
    table1_queries,
)
from repro.data import (
    NetflowConfig,
    TpcrSizes,
    build_netflow_catalog,
    build_tpcr_catalog,
)
from repro.engine import execute

STRATEGIES = ("naive", "native", "unnest_join", "gmdj", "gmdj_optimized")


@pytest.fixture(scope="module")
def tpcr_db() -> Database:
    db = Database()
    catalog = build_tpcr_catalog(TpcrSizes(
        customers=60, orders=400, lineitems=300, parts=80, suppliers=15
    ))
    for name in catalog.table_names():
        db.register(name, catalog.table(name))
    db.create_index("orders", "custkey")
    return db


@pytest.fixture(scope="module")
def netflow_db() -> Database:
    db = Database()
    catalog = build_netflow_catalog(
        NetflowConfig(flows=600, hours=6, users=12, extra_source_ips=4,
                      seed=33)
    )
    for name in catalog.table_names():
        db.register(name, catalog.table(name))
    return db


TPCR_SQL = [
    "SELECT c.custkey FROM customer c WHERE EXISTS "
    "(SELECT * FROM orders o WHERE o.custkey = c.custkey AND "
    "o.totalprice > 300000)",

    "SELECT c.custkey FROM customer c WHERE NOT EXISTS "
    "(SELECT * FROM orders o WHERE o.custkey = c.custkey)",

    "SELECT c.custkey FROM customer c WHERE c.acctbal > "
    "(SELECT AVG(d.acctbal) FROM customer d WHERE "
    "d.mktsegment = c.mktsegment)",

    "SELECT p.partkey FROM part p WHERE p.retailprice >= ALL "
    "(SELECT q.retailprice FROM part q WHERE q.brand = p.brand)",

    "SELECT s.suppkey FROM supplier s WHERE s.nationkey IN "
    "(SELECT c.nationkey FROM customer c WHERE c.acctbal > 8000)",

    "SELECT c.custkey FROM customer c WHERE c.nationkey NOT IN "
    "(SELECT s.nationkey FROM supplier s)",

    "SELECT c.custkey FROM customer c WHERE 2 <= "
    "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey AND "
    "o.orderpriority = '1-URGENT')",

    "SELECT c.custkey, "
    "(SELECT COUNT(*) FROM orders o WHERE o.custkey = c.custkey) n, "
    "(SELECT MAX(o2.totalprice) FROM orders o2 WHERE "
    "o2.custkey = c.custkey) top FROM customer c",

    "SELECT c.custkey FROM customer c WHERE 3 <= "
    "(SELECT COUNT(DISTINCT o.orderpriority) FROM orders o WHERE "
    "o.custkey = c.custkey)",
]


class TestTpcrStrategiesAgree:
    @pytest.mark.parametrize("sql", TPCR_SQL,
                             ids=[f"q{i}" for i in range(len(TPCR_SQL))])
    def test_all_strategies_agree(self, tpcr_db, sql):
        reference = tpcr_db.execute_sql(sql, QueryOptions("naive"))
        for strategy in STRATEGIES[1:]:
            result = tpcr_db.execute_sql(sql, QueryOptions(strategy))
            assert reference.bag_equal(result), strategy

    def test_non_trivial_answers(self, tpcr_db):
        # Guard against degenerate workloads: at least some of the suite
        # must return non-empty, non-total answers.
        sizes = [len(tpcr_db.execute_sql(sql, QueryOptions("gmdj"))) for sql in TPCR_SQL]
        assert any(0 < size < 60 for size in sizes)


class TestNetflowScenarios:
    def test_hours_with_special_traffic(self, netflow_db):
        sql = (
            "SELECT h.HourDescription FROM Hours h WHERE EXISTS "
            "(SELECT * FROM Flow f WHERE f.StartTime >= h.StartInterval "
            "AND f.StartTime < h.EndInterval AND "
            "f.DestIP = '167.167.167.0')"
        )
        reference = netflow_db.execute_sql(sql, QueryOptions("naive"))
        for strategy in STRATEGIES[1:]:
            assert reference.bag_equal(netflow_db.execute_sql(sql, QueryOptions(strategy)))

    def test_example_3_3_active_users(self, netflow_db):
        """Double NOT EXISTS with a non-neighboring predicate."""
        inner = Exists(
            Subquery(
                ScanTable("Flow", "F"),
                (col("F.StartTime") >= col("H.StartInterval"))
                & (col("F.StartTime") < col("H.EndInterval"))
                & (col("F.SourceIP") == col("U.IPAddress")),
            ),
            negated=True,
        )
        query = NestedSelect(
            ScanTable("User", "U"),
            Exists(Subquery(ScanTable("Hours", "H"),
                            (col("H.StartInterval") >= lit(0)) & inner),
                   negated=True),
        )
        reference = netflow_db.execute(query, QueryOptions("naive"))
        gmdj = netflow_db.execute(query, QueryOptions("gmdj"))
        optimized = netflow_db.execute(query, QueryOptions("gmdj_optimized"))
        assert reference.bag_equal(gmdj)
        assert reference.bag_equal(optimized)

    def test_sources_without_ftp(self, netflow_db):
        sql = (
            "SELECT DISTINCT f.SourceIP FROM Flow f WHERE f.SourceIP NOT IN "
            "(SELECT g.SourceIP FROM Flow g WHERE g.Protocol = 'FTP')"
        )
        reference = netflow_db.execute_sql(sql, QueryOptions("naive"))
        for strategy in ("unnest_join", "gmdj", "gmdj_optimized"):
            assert reference.bag_equal(netflow_db.execute_sql(sql, QueryOptions(strategy)))


class TestTable1Harness:
    """The benchmark workload builders are themselves correct."""

    @pytest.fixture(scope="class")
    def setup(self):
        catalog = build_table1_catalog(outer=40, inner=300)
        return catalog, table1_queries()

    @pytest.mark.parametrize("rule", ["comparison", "agg_comparison", "some",
                                      "all", "exists", "not_exists"])
    def test_rule_workload_equivalence(self, setup, rule):
        catalog, queries = setup
        query = queries[rule]
        expected = execute(query, catalog, "naive")
        for strategy in ("native", "gmdj", "gmdj_optimized"):
            result = execute(query, catalog, strategy)
            assert expected.bag_equal(result), (rule, strategy)


class TestStatsShapes:
    def test_gmdj_detail_scans_constant_in_subquery_count(self, netflow_db):
        """Coalescing: n subqueries over Flow still scan Flow once."""

        def flows_to(dest, alias):
            return Subquery(
                ScanTable("Flow", alias),
                (col(f"{alias}.SourceIP") == col("F0.SourceIP"))
                & (col(f"{alias}.DestIP") == lit(dest)),
            )

        base = Project(ScanTable("Flow", "F0"), ["F0.SourceIP"],
                       distinct=True)
        one = NestedSelect(base, Exists(flows_to("167.167.167.0", "F1")))
        three = NestedSelect(
            base,
            Exists(flows_to("167.167.167.0", "F1"))
            & Exists(flows_to("168.168.168.0", "F2"))
            & Exists(flows_to("169.169.169.0", "F3")),
        )
        report_one = netflow_db.profile(one, QueryOptions("gmdj_optimized"))
        report_three = netflow_db.profile(three, QueryOptions("gmdj_optimized"))
        assert (report_three.counters["relation_scans"]
                == report_one.counters["relation_scans"])

    def test_naive_work_explodes_relative_to_gmdj(self, tpcr_db):
        sql = TPCR_SQL[0]
        naive = tpcr_db.profile_sql(sql, QueryOptions("naive"))
        gmdj = tpcr_db.profile_sql(sql, QueryOptions("gmdj_optimized"))
        assert naive.total_work > gmdj.total_work * 10


class TestScalingLaw:
    """Work, not time: one detail scan keeps the GMDJ linear in each
    dimension, and the nested loop grows at least as steeply."""

    @pytest.mark.parametrize("points", [
        [(20, 500), (20, 1000), (20, 2000)],
        [(10, 1000), (20, 1000), (40, 1000)],
    ], ids=["detail", "base"])
    def test_work_growth_per_doubling(self, points):
        results = [
            compare_strategies(build_fig2(inner, outer_size=outer),
                               ["naive", "gmdj_optimized"])
            for outer, inner in points
        ]

        def growth(strategy):
            work = [r.reports[strategy].total_work for r in results]
            return [after / before for before, after in zip(work, work[1:])]

        gmdj, naive = growth("gmdj_optimized"), growth("naive")
        assert all(ratio < 2.9 for ratio in gmdj), gmdj
        assert all(n >= 0.9 * g for n, g in zip(naive, gmdj)), (naive, gmdj)
