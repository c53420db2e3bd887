"""Classification-gated optimizations: partition-and-merge and batch
MQO coalescing open only for decomposable aggregates and fall back to
one scan / a singleton otherwise.  (Validity masks are not gated by
certificates — they are the encoder's decision; see test_columnar.py.)"""

from __future__ import annotations

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec, agg
from repro.algebra.expressions import col
from repro.algebra.operators import ScanTable
from repro.gmdj import md
from repro.gmdj import evaluate_gmdj_partitioned
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, Relation


def null_heavy_catalog():
    """B(K) NULL-free; R(K, V) with K NULL-free and V NULL-bearing."""
    base = Relation.from_columns(
        [("K", DataType.INTEGER)],
        [(i % 4,) for i in range(8)],
        name="B", qualifier="b",
    )
    detail = Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 4, None if i % 3 == 0 else i * 10) for i in range(60)],
        name="R", qualifier="r",
    )
    catalog = Catalog()
    catalog.create_table("B", base)
    catalog.create_table("R", detail)
    return catalog, base, detail


class TestPartitionMergeGate:
    def partitioned_attrs(self, gmdj):
        catalog, _, _ = null_heavy_catalog()
        tracer = Tracer()
        with tracing(tracer):
            result = evaluate_gmdj_partitioned(gmdj, catalog, partitions=4,
                                               workers=1)
        spans = tracer.trace().find(kind="gmdj_partitioned")
        assert len(spans) == 1
        return result, spans[0].attrs

    def test_decomposable_plan_partitions(self):
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[agg("sum", col("r.V"), "total")]],
            [col("b.K") == col("r.K")],
        )
        _, attrs = self.partitioned_attrs(gmdj)
        assert attrs["partitions"] == 4

    def test_holistic_plan_collapses_to_one_scan(self):
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[AggregateSpec("count", col("r.V"), "c", distinct=True)]],
            [col("b.K") == col("r.K")],
        )
        result, attrs = self.partitioned_attrs(gmdj)
        assert attrs["partitions"] == 1

    def test_gated_and_ungated_rows_agree(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[AggregateSpec("count", col("r.V"), "c", distinct=True)]],
            [col("b.K") == col("r.K")],
        )
        single = evaluate_gmdj_partitioned(gmdj, catalog, partitions=1,
                                           workers=1)
        forced = evaluate_gmdj_partitioned(gmdj, catalog, partitions=4,
                                           workers=1)
        assert forced.rows == single.rows


class TestBatchCoalescingGate:
    def make_db(self):
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)],
                        [(i % 4,) for i in range(8)])
        db.create_table(
            "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(i % 4, i * 10) for i in range(60)],
        )
        return db

    def test_distinct_member_stays_singleton(self):
        from repro.engine.mqo import plan_batch

        db = self.make_db()
        shareable = ("SELECT b.K FROM B b WHERE EXISTS "
                     "(SELECT * FROM R r WHERE r.K = b.K)")
        holistic = ("SELECT b.K FROM B b WHERE 1 <= "
                    "(SELECT COUNT(DISTINCT r.V) FROM R r "
                    "WHERE r.K = b.K)")
        queries = [db.sql(shareable), db.sql(shareable), db.sql(holistic)]
        planned = plan_batch(queries, db.catalog,
                             QueryOptions(strategy="gmdj"))
        grouped = {index for group in planned.groups
                   for index in group.indices}
        assert grouped == {0, 1}
        assert 2 in planned.singletons
