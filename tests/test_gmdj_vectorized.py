"""Columnar batch GMDJ kernel vs. the row interpreter.

The contract of :mod:`repro.gmdj.vectorized` is strict: for any GMDJ
and any chunk size, ``run_gmdj_vectorized`` must produce the *same rows
in the same order* as ``run_gmdj`` — and perform the same accounted
work, down to identical IOStats counter snapshots (predicate_evals,
aggregate_updates, index_probes, pages, tuples).  These tests pin that
contract on every access path (hash, scan, invariant), on multi-block
coalesced plans, under completion, and composed with the
partitioned/pooled execution regime.
"""

import random

import pytest

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable
from repro.errors import ConfigurationError
from repro.gmdj import md
from repro.gmdj.evaluate import run_gmdj
from repro.gmdj.physical import evaluate_plan, select_fragmenter, select_kernel
from repro.gmdj.vectorized import (
    DEFAULT_CHUNK_SIZE,
    resolve_chunk_size,
    run_gmdj_vectorized,
)
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, Relation, collect
from repro.unnesting import subquery_to_gmdj

DETAIL_ROWS = 157  # not a multiple of any chunk size used below


def null_heavy_catalog(seed=0):
    rng = random.Random(seed)

    def maybe(value, rate=0.25):
        return None if rng.random() < rate else value

    base = Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(maybe(i % 6), maybe(rng.randrange(50))) for i in range(17)],
        name="B", qualifier="b",
    )
    detail = Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER),
         ("S", DataType.STRING)],
        [(maybe(rng.randrange(6)), maybe(rng.randrange(100)),
          maybe(rng.choice(["red", "green", "blue"])))
         for _ in range(DETAIL_ROWS)],
        name="R", qualifier="r",
    )
    catalog = Catalog()
    catalog.create_table("B", base)
    catalog.create_table("R", detail)
    return catalog, base, detail


def assert_kernels_identical(gmdj, catalog, base, detail, chunk_size):
    output_schema = gmdj.schema(catalog)
    with collect() as row_stats:
        expected = run_gmdj(base, detail, gmdj, output_schema)
    with collect() as batch_stats:
        actual = run_gmdj_vectorized(base, detail, gmdj, output_schema,
                                     chunk_size=chunk_size)
    assert actual.rows == expected.rows  # same rows, same order
    assert batch_stats.snapshot() == row_stats.snapshot()
    return expected


class TestKernelEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_hash_block_with_residual(self, chunk_size):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c"), agg("sum", col("r.V"), "s"),
              agg("avg", col("r.V"), "a"), agg("min", col("r.V"), "lo")]],
            [(col("b.K") == col("r.K")) & (col("r.V") > lit(10))],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, chunk_size)

    @pytest.mark.parametrize("chunk_size", [7, 64])
    def test_scan_block(self, chunk_size):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c"), agg("max", col("r.V"), "hi")]],
            [col("b.K") < col("r.K")],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, chunk_size)

    @pytest.mark.parametrize("chunk_size", [7, 64])
    def test_invariant_block(self, chunk_size):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c"), agg("sum", col("r.V"), "s")]],
            [col("r.V") > lit(40)],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, chunk_size)

    def test_multi_block_coalesced_shape(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c1")],
             [agg("sum", col("r.V"), "s2")],
             [count_star("c3")]],
            [col("b.K") == col("r.K"),
             (col("b.K") == col("r.K")) | (col("r.V") < lit(20)),
             col("r.S") == lit("red")],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, 13)

    def test_distinct_aggregates(self):
        from repro.algebra.aggregates import AggregateSpec

        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[AggregateSpec("count", col("r.S"), "ds", distinct=True),
              count_star("c")]],
            [col("b.K") == col("r.K")],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, 11)

    def test_string_keys_and_predicates(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c")]],
            [(col("b.K") == col("r.K")) & (col("r.S") == lit("blue"))],
        )
        assert_kernels_identical(gmdj, catalog, base, detail, 10)

    def test_empty_detail(self):
        catalog, base, _ = null_heavy_catalog()
        empty = Relation(catalog.table("R").schema, [], validate=False)
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c")]],
            [col("b.K") == col("r.K")],
        )
        output_schema = gmdj.schema(catalog)
        expected = run_gmdj(base, empty, gmdj, output_schema)
        actual = run_gmdj_vectorized(base, empty, gmdj, output_schema)
        assert actual.rows == expected.rows
        assert len(actual) == len(base)


class TestChunkSize:
    def test_default(self):
        assert resolve_chunk_size(None) == DEFAULT_CHUNK_SIZE

    def test_explicit(self):
        assert resolve_chunk_size(7) == 7

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_chunk_size(bad)


class TestTraceSpans:
    def test_detail_scan_span_carries_chunk_attributes(self):
        catalog, base, detail = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[count_star("c")]],
            [col("b.K") == col("r.K")],
        )
        output_schema = gmdj.schema(catalog)
        tracer = Tracer()
        with tracing(tracer):
            # Pin the python backend: this test documents its per-chunk
            # span contract (the numpy backend scans whole-array and is
            # covered by tests/test_backend_numpy.py).
            run_gmdj_vectorized(base, detail, gmdj, output_schema,
                                chunk_size=50, backend="python")
        scans = tracer.trace().find(kind="detail_scan")
        assert len(scans) == 1
        attrs = scans[0].attrs
        assert attrs["vectorized"] is True
        assert attrs["chunk_size"] == 50
        assert attrs["chunks"] == -(-DETAIL_ROWS // 50)
        chunk_spans = tracer.trace().find(kind="chunk_batch")
        assert len(chunk_spans) == attrs["chunks"]


SQL_EXISTS = ("SELECT K FROM B b WHERE EXISTS "
              "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 20)")
SQL_NOT_EXISTS = ("SELECT K FROM B b WHERE NOT EXISTS "
                  "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 80)")
SQL_AGG = ("SELECT K FROM B b WHERE "
           "3 < (SELECT COUNT(*) FROM R r WHERE r.K = b.K)")


def fuzzy_database(seed=1):
    rng = random.Random(seed)

    def maybe(value, rate=0.3):
        return None if rng.random() < rate else value

    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER)],
        [(maybe(i % 5),) for i in range(12)],
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(maybe(rng.randrange(5)), maybe(rng.randrange(100)))
         for _ in range(60)],
    )
    return db


class TestEndToEnd:
    @pytest.mark.parametrize("sql", [SQL_EXISTS, SQL_NOT_EXISTS, SQL_AGG])
    @pytest.mark.parametrize("strategy", ["gmdj", "gmdj_optimized",
                                          "gmdj_completion"])
    def test_vectorized_matches_row_mode(self, sql, strategy):
        db = fuzzy_database()
        query = db.sql(sql)
        if strategy == "gmdj_completion":
            # The completion-only ablation is a translation flag, not a
            # strategy: its plan runs pre-translated under ``gmdj``.
            query = subquery_to_gmdj(query, db.catalog, optimize=True,
                                     coalesce=False)
            strategy = "gmdj"
        expected = db.execute(query, QueryOptions(strategy=strategy,
                                                  backend="row"))
        actual = db.execute(
            query, QueryOptions(strategy=strategy, backend="python")
        )
        assert expected.bag_equal(actual)

    def test_composes_with_partitions_and_pool(self):
        db = fuzzy_database()
        plan = subquery_to_gmdj(db.sql(SQL_EXISTS), db.catalog,
                                optimize=False)
        expected = evaluate_plan(plan, db.catalog, select_kernel("row"))
        actual = evaluate_plan(
            plan, db.catalog, select_kernel("python"),
            select_fragmenter(partitions=3, workers=2, executor="thread"))
        assert expected.bag_equal(actual)

    def test_identical_io_accounting_end_to_end(self):
        # rollup="off": this test compares the raw work both kernels
        # perform, so neither run may be served from the rollup store.
        db = fuzzy_database()
        with collect() as row_stats:
            db.execute_sql(SQL_EXISTS,
                           QueryOptions(strategy="gmdj", backend="row",
                                        use_cache=False, rollup="off"))
        with collect() as batch_stats:
            db.execute_sql(
                SQL_EXISTS,
                QueryOptions(strategy="gmdj", backend="python",
                             use_cache=False, rollup="off"),
            )
        assert batch_stats.snapshot() == row_stats.snapshot()


class TestExplainAnalyze:
    def test_executed_kernel_and_chunks_surfaced(self):
        db = fuzzy_database()
        text = db.explain_analyze(
            db.sql(SQL_EXISTS),
            QueryOptions(strategy="gmdj_optimized", backend="python"),
            strict=True,
        )
        assert "(strategy=gmdj_optimized kernel=python)" in text
        assert "-- executed:" in text
        assert "chunks=" in text
        assert f"chunk_size={DEFAULT_CHUNK_SIZE}" in text
        # Single-scan vectorized runs keep the cost certificate check.
        assert "all hold" in text

    def test_executed_summary_in_json(self):
        from repro.obs.explain import explain_analyze_json

        db = fuzzy_database()
        payload = explain_analyze_json(
            db, db.sql(SQL_EXISTS),
            QueryOptions(strategy="gmdj_optimized", backend="python"),
        )
        executed = payload["executed"]
        assert executed["kernel"] == "python"
        assert "fragmenter" not in executed
        assert executed["chunk_size"] == DEFAULT_CHUNK_SIZE
        assert executed["chunks"] >= 1

    def test_row_mode_has_no_chunk_fields(self):
        from repro.obs.explain import explain_analyze_json

        db = fuzzy_database()
        # backend="row" pins the row interpreter (unset means auto).
        payload = explain_analyze_json(
            db, db.sql(SQL_EXISTS),
            QueryOptions(strategy="gmdj", backend="row"),
        )
        assert payload["executed"]["kernel"] == "row"
        assert "chunks" not in payload["executed"]
