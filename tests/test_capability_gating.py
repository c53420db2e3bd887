"""Certificate-gated optimizations: the gates must open only on a
sound certificate, fall back conservatively without one, and hard-fail
(rather than silently corrupt) when handed an unsound claim."""

from __future__ import annotations

import pytest

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec, agg, count_star
from repro.algebra.expressions import col
from repro.algebra.operators import ScanTable
from repro.errors import CertificateViolation
from repro.gmdj import md
from repro.gmdj import evaluate_gmdj_partitioned
from repro.gmdj.vectorized import run_gmdj_vectorized
from repro.lint.absint import (
    CapabilityCertificate,
    GMDJCapabilityEntry,
    capability_scope,
    certify_capabilities,
)
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, ColumnarRelation, Relation


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


def exists_gmdj():
    return md(
        ScanTable("B", "b"), ScanTable("R", "r"),
        [[count_star("c")]],
        [col("b.K") == col("r.K")],
    )


def detail_scan_attrs(run):
    tracer = Tracer()
    with tracing(tracer):
        result = run()
    scans = tracer.trace().find(kind="detail_scan")
    assert len(scans) == 1
    return result, scans[0].attrs


class TestVectorizedMaskSkip:
    def test_certificate_enables_mask_free_encoding(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = exists_gmdj()
        schema = gmdj.schema(catalog)
        certificate = certify_capabilities(gmdj, catalog)
        assert certificate.detail_never_null()["R"] == frozenset({"K"})

        def bare():
            return run_gmdj_vectorized(base, detail, gmdj, schema)

        def certified():
            with capability_scope(certificate):
                return run_gmdj_vectorized(base, detail, gmdj, schema)

        plain, plain_attrs = detail_scan_attrs(bare)
        gated, gated_attrs = detail_scan_attrs(certified)
        # The gate is observable (one mask-free column, K) and must not
        # change a single output row.
        assert plain_attrs["mask_skipped"] == 0
        assert gated_attrs["mask_skipped"] == 1
        assert gated.rows == plain.rows

    def test_claimless_certificate_keeps_masks(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = exists_gmdj()
        schema = gmdj.schema(catalog)
        claimless = CapabilityCertificate(columns=(), entries=(),
                                          complete=False)

        def run():
            with capability_scope(claimless):
                return run_gmdj_vectorized(base, detail, gmdj, schema)

        _, attrs = detail_scan_attrs(run)
        assert attrs["mask_skipped"] == 0

    def test_engine_installs_certificate_end_to_end(self):
        db = Database()
        db.create_table("B", [("K", DataType.INTEGER)],
                        [(i % 4,) for i in range(8)])
        db.create_table(
            "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(i % 4, None if i % 3 == 0 else i * 10) for i in range(60)],
        )
        sql = ("SELECT b.K FROM B b WHERE EXISTS "
               "(SELECT * FROM R r WHERE r.K = b.K)")
        options = QueryOptions(strategy="gmdj", backend="python")
        tracer = Tracer()
        with tracing(tracer):
            db.execute(db.sql(sql), options)
        scans = tracer.trace().find(kind="detail_scan")
        assert scans, "vectorized kernel did not run"
        assert all(span.attrs["mask_skipped"] >= 1 for span in scans)


class TestUnsoundCertificateFailsClosed:
    def test_columnar_encoding_rejects_false_never_null(self):
        _, _, detail = null_heavy_catalog()
        with pytest.raises(CertificateViolation, match="NEVER-null"):
            ColumnarRelation.from_relation(detail, never_null={1})

    def test_forged_ambient_claim_raises_not_corrupts(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = exists_gmdj()
        schema = gmdj.schema(catalog)
        forged = CapabilityCertificate(
            columns=(),
            entries=(GMDJCapabilityEntry(
                path="GMDJ", relation="R",
                detail_never_null=("K", "V"),  # V is a lie
                aggregates=(), theta=(),
            ),),
            complete=True,
        )
        with capability_scope(forged):
            with pytest.raises(CertificateViolation):
                run_gmdj_vectorized(base, detail, gmdj, schema)


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
