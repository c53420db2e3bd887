"""The numpy whole-array backend: selection, fallback, and caching.

Covers the knobs and edges the property suite cannot pin one by one:

* backend resolution (explicit > ``REPRO_BACKEND`` env > python;
  ``auto``; clean :class:`~repro.errors.ConfigurationError` without the
  optional numpy extra);
* per-operator fallback to the python kernel — holistic DISTINCT
  aggregates, object-encoded columns (>64-bit ints), int-sum overflow
  guards, NaN min/max, and completion runs — each recorded on the
  ``detail_scan`` span and each still producing the python kernel's
  exact rows and counters;
* the relation-level columnar-encoding cache (hit/miss counters, reuse
  across chunked fragments, invalidation on mutation).
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import AggregateSpec, agg, count_star
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable
from repro.errors import ConfigurationError
from repro.engine.options import resolve_kernel
from repro.gmdj import (
    BaseChunks,
    evaluate_plan,
    evaluate_plan_vectorized,
    md,
    select_kernel,
)
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.vectorized import run_gmdj_vectorized
from repro.obs.metrics import get_registry, metrics_scope
from repro.obs.tracer import Tracer, tracing
from repro.storage import Catalog, Relation, collect
from repro.storage.columnar import cached_columnar
from repro.unnesting import subquery_to_gmdj


def null_heavy_catalog(seed=0, rows=150):
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
         ("S", DataType.STRING), ("F", DataType.FLOAT)],
        [(maybe(rng.randrange(6)), maybe(rng.randrange(100)),
          maybe(rng.choice(["red", "green", "blue"])),
          maybe(rng.choice([0.5, -2.25, 31.0])))
         for _ in range(rows)],
        name="R", qualifier="r",
    )
    catalog = Catalog()
    catalog.create_table("B", base)
    catalog.create_table("R", detail)
    return catalog, base, detail


def run_both_kernels(gmdj, catalog):
    """(python rows/stats, numpy rows/stats, numpy detail_scan span)."""
    base = gmdj.base.evaluate(catalog)
    detail = gmdj.detail.evaluate(catalog)
    schema = gmdj.schema(catalog)
    with collect() as python_stats:
        python_result = run_gmdj_vectorized(base, detail, gmdj, schema,
                                            backend="python")
    tracer = Tracer()
    with collect() as numpy_stats, tracing(tracer):
        numpy_result = run_gmdj_vectorized(base, detail, gmdj, schema,
                                           backend="numpy")
    (scan,) = tracer.trace().find(kind="detail_scan")
    return python_result, python_stats, numpy_result, numpy_stats, scan


def assert_identical(gmdj, catalog, expect_fallback=None):
    python_result, python_stats, numpy_result, numpy_stats, scan = \
        run_both_kernels(gmdj, catalog)
    assert python_result.rows == numpy_result.rows
    assert python_stats.snapshot() == numpy_stats.snapshot()
    assert scan.attrs["backend"] == "numpy"
    fallbacks = scan.attrs.get("fallbacks", ())
    if expect_fallback is None:
        assert not fallbacks
    else:
        assert any(expect_fallback in reason for reason in fallbacks), \
            fallbacks
    return scan


class TestResolveKernel:
    def test_default_is_row_and_chunk_size_means_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_kernel(None) == "row"
        assert resolve_kernel(None, chunk_size=8) == "python"

    def test_explicit_values(self):
        assert resolve_kernel("python") == "python"
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("auto") == "numpy"  # extra is installed

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_kernel(None) == "numpy"
        # The explicit option always wins over the environment.
        assert resolve_kernel("python") == "python"

    def test_environment_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(ConfigurationError):
            resolve_kernel(None)

    def test_numpy_backend_without_numpy(self, monkeypatch):
        from repro.storage import npcolumns

        monkeypatch.setattr(npcolumns, "numpy", None)
        monkeypatch.setattr(npcolumns, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match="optional numpy"):
            resolve_kernel("numpy")
        # auto degrades to python instead of raising.
        assert resolve_kernel("auto") == "python"

    def test_options_validate_backend(self):
        with pytest.raises(ConfigurationError):
            QueryOptions(backend="cuda")


class TestKernelIdentityAndFallbacks:
    def test_hash_block_no_fallback(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c"), agg("sum", col("r.V"), "s")]],
                  [(col("b.K") == col("r.K")) & (col("r.V") > lit(40))])
        assert_identical(gmdj, catalog)

    def test_scan_block_base_residual_no_fallback(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("max", col("r.V"), "m")]],
                  [col("r.V") < col("b.X")])
        assert_identical(gmdj, catalog)

    def test_distinct_aggregate_falls_back_per_value(self):
        catalog, _, _ = null_heavy_catalog()
        gmdj = md(
            ScanTable("B", "b"), ScanTable("R", "r"),
            [[AggregateSpec("sum", col("r.V"), "d", distinct=True),
              count_star("c")]],
            [col("b.K") == col("r.K")],
        )
        assert_identical(gmdj, catalog, expect_fallback="DISTINCT")

    def test_object_column_falls_back_whole_block(self):
        # A detail column holding a >64-bit int has no array form; every
        # expression touching it sends the whole block to the python
        # kernel, and untouched blocks stay on the numpy path.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,), (1,), (None,)],
            name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("H", DataType.INTEGER)],
            [(0, 2 ** 70), (0, 3), (1, None), (None, 5)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("min", col("r.H"), "m")]],
                  [col("b.K") == col("r.K")])
        assert_identical(gmdj, catalog, expect_fallback="object-encoded")

    def test_int_sum_overflow_falls_back_exactly(self):
        huge = 2 ** 61
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,)], name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
            [(0, huge), (0, huge), (0, huge), (0, -7)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("sum", col("r.V"), "s")]],
                  [col("b.K") == col("r.K")])
        python_result, _, numpy_result, _, _ = run_both_kernels(
            gmdj, catalog)
        assert numpy_result.rows == python_result.rows
        assert numpy_result.rows[0][-1] == 3 * huge - 7  # exact bigint

    def test_nan_min_max_falls_back(self):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(0,)], name="B", qualifier="b"))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("F", DataType.FLOAT)],
            [(0, 2.5), (0, float("nan")), (0, -1.0)],
            name="R", qualifier="r"))
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("min", col("r.F"), "lo"),
                    agg("max", col("r.F"), "hi")]],
                  [col("b.K") == col("r.K")])
        python_result, _, numpy_result, _, _ = run_both_kernels(
            gmdj, catalog)
        assert numpy_result.rows == python_result.rows

    def test_completion_run_records_fallback(self):
        catalog, _, _ = null_heavy_catalog()
        from repro.algebra.nested import Exists, NestedSelect, Subquery

        query = NestedSelect(
            ScanTable("B", "b"),
            Exists(Subquery(ScanTable("R", "r"),
                            (col("r.K") == col("b.K"))
                            & (col("r.V") > lit(80))),
                   negated=True),
        )
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        assert any(isinstance(node, SelectGMDJ)
                   for node in _walk(plan)), "expected a completion plan"
        with collect() as python_stats:
            python_result = evaluate_plan_vectorized(
                plan, catalog, None, backend="python")
        tracer = Tracer()
        with collect() as numpy_stats, tracing(tracer):
            numpy_result = evaluate_plan_vectorized(
                plan, catalog, None, backend="numpy")
        assert python_result.rows == numpy_result.rows
        assert python_stats.snapshot() == numpy_stats.snapshot()
        scans = tracer.trace().find(kind="detail_scan")
        assert any(
            any("completion" in reason
                for reason in scan.attrs.get("fallbacks", ()))
            for scan in scans
        )


def _walk(node):
    yield node
    for child in getattr(node, "children", lambda: [])():
        yield from _walk(child)


class TestColumnarEncodingCache:
    def test_hit_miss_counters(self):
        catalog, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            first = cached_columnar(detail)
            second = cached_columnar(detail)
            assert second is first
            assert registry.counter("columnar.cache_misses").value == 1
            assert registry.counter("columnar.cache_hits").value == 1

    def test_scan_view_shares_cache(self):
        _, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            cached_columnar(detail)
            view = detail.rename("q")
            hit = cached_columnar(view)
            assert registry.counter("columnar.cache_hits").value == 1
            assert hit.schema is view.schema

    def test_mutation_invalidates(self):
        _, _, detail = null_heavy_catalog()
        with metrics_scope() as registry:
            cached_columnar(detail)
            detail.insert((0, 1, "red", 0.5))
            rebuilt = cached_columnar(detail)
            assert registry.counter("columnar.cache_misses").value == 2
            assert rebuilt.length == len(detail)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_chunked_fragments_encode_once(self, backend):
        # chunk_budget splits the base into fragments; every fragment
        # scans the same detail relation, so the columnar encoding must
        # be built exactly once and served from the cache after that.
        catalog, base, _ = null_heavy_catalog()
        gmdj = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c")]],
                  [col("b.K") == col("r.K")])
        fragments = -(-len(base) // 4)
        assert fragments > 1
        with metrics_scope() as registry:
            chunked = evaluate_plan(
                gmdj, catalog, select_kernel(backend), BaseChunks(4))
            misses = registry.counter("columnar.cache_misses").value
            hits = registry.counter("columnar.cache_hits").value
        assert misses == 1
        assert hits == fragments - 1
        plain = gmdj.evaluate(catalog)
        assert plain.bag_equal(chunked)
