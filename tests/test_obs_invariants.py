"""The paper's cost claims, checked from IOStats counters.

One detail scan per GMDJ evaluation (§2.2, Prop. 4.1) is
:meth:`~repro.lint.cost.CostCertificate.violations` over a run's
counters; output ≤ |B| (Def. 2.1) is raised by
:func:`~repro.gmdj.physical.evaluate_node` on every run, traced or not.
"""

import pytest

from repro import Database, DataType
from repro.bench.workloads import (
    build_fig5,
    build_table1_catalog,
    table1_queries,
)
from repro.engine import QueryOptions, execute, plan_for
from repro.errors import InvariantViolation
from repro.gmdj import evaluate_plan, run_gmdj
from repro.lint import certify_plan
from repro.storage import collect
from repro.unnesting import subquery_to_gmdj


@pytest.fixture(scope="module")
def table1_catalog():
    return build_table1_catalog(outer=40, inner=200)


def run_counting(query, catalog, options):
    with collect() as stats:
        result = execute(query, catalog, options)
    return result, stats.snapshot()


class TestTable1Invariants:
    """Every Table 1 rewrite holds the paper's cost claims at runtime."""

    @pytest.mark.parametrize("form", sorted(table1_queries()))
    def test_single_scan_and_output_bound(self, table1_catalog, form):
        query = table1_queries()[form]
        certificate = certify_plan(
            plan_for(query, table1_catalog, "gmdj_optimized"))
        _, counters = run_counting(query, table1_catalog, "gmdj_optimized")
        assert certificate.violations(counters) == []
        # Prop. 4.1: the one subquery table is one GMDJ's detail.
        assert certificate.scan_counts == {"R": 1}
        assert counters["detail_scans"] == 1

    def test_partitioned_run_holds(self, table1_catalog):
        # Fragments tile the detail: four scans, the volume of one.
        query = table1_queries()["exists"]
        whole, single = run_counting(query, table1_catalog, "gmdj")
        parts, fragmented = run_counting(
            query, table1_catalog, QueryOptions(strategy="gmdj", partitions=4))
        assert parts.rows == whole.rows
        assert fragmented["detail_scans"] == 4
        assert fragmented["tuples_scanned"] == single["tuples_scanned"]


class TestDecoalescedPlanTripsProp41:
    """A de-coalesced plan scans the shared detail twice — Prop. 4.1."""

    def run(self):
        workload = build_fig5(120, outer_size=20)
        coalesced = subquery_to_gmdj(
            workload.query, workload.catalog, optimize=True)
        plan = subquery_to_gmdj(
            workload.query, workload.catalog, optimize=False)
        with collect() as stats:
            evaluate_plan(plan, workload.catalog)
        return certify_plan(coalesced), certify_plan(plan), stats.snapshot()

    def test_non_strict_records_violation(self):
        coalesced, _, counters = self.run()
        assert coalesced.single_scan_tables == {"orders"}
        (violation,) = coalesced.violations(counters)
        assert "Prop. 4.1" in violation
        assert "1 GMDJ evaluation(s)" in violation
        assert "counted 2 detail scan(s)" in violation

    def test_strict_raises(self):
        # EXPLAIN ANALYZE's check, holding the de-coalesced ``gmdj`` run
        # to the coalesced plan's certificate: strict mode raises.
        from repro.obs.explain import _run_checked

        workload = build_fig5(120, outer_size=20)
        db = Database()
        for name in workload.catalog.table_names():
            db.register(name, workload.catalog.table(name))
        coalesced = subquery_to_gmdj(workload.query, db.catalog,
                                     optimize=True)
        with pytest.raises(InvariantViolation, match="Prop. 4.1"):
            _run_checked(db, workload.query, QueryOptions("gmdj"),
                         certify_plan(coalesced), strict=True)

    def test_per_gmdj_single_scan_still_holds(self):
        # Each *individual* GMDJ in the stacked plan is still single-scan;
        # only the query-level Prop. 4.1 claim fails.
        _, own, counters = self.run()
        assert own.violations(counters) == []
        assert own.scan_counts == {"orders": 2}


class TestOutputBound:
    """Def. 2.1 is checked on every run, not only traced ones."""

    def test_kernel_emitting_past_base_raises_untraced(self, monkeypatch):
        import repro.engine.executor as executor

        def one_row_too_many(base, *args):
            result = run_gmdj(base, *args)
            return type(result)(result.schema,
                                [*result.rows, result.rows[0]])

        monkeypatch.setattr(executor, "select_kernel",
                            lambda backend: one_row_too_many)
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)], [(1,), (2,)])
        db.create_table("R", [("K", DataType.INTEGER)], [(1,), (1,)])
        sql = ("SELECT B.K, (SELECT COUNT(*) FROM R WHERE R.K = B.K) AS n "
               "FROM B")
        with pytest.raises(InvariantViolation, match="3 rows from a 2-row"):
            db.execute_sql(sql, QueryOptions("gmdj", use_cache=False))
