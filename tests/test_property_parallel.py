"""Property tests: multi-worker evaluation is invisible to semantics.

For every Table-1 subquery form the grammar generates — EXISTS / NOT
EXISTS, quantified SOME/ALL comparisons, scalar aggregate comparisons,
and boolean combinations — evaluating the translated GMDJ plan on a
worker pool with 1, 2, or 4 workers must return exactly the same bag as
the sequential single-scan evaluation.  A second property drives the
fuzzer's NULL-heavy data generator through the same check, so
three-valued logic inside partial aggregates stays covered.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.nested import NestedSelect
from repro.algebra.operators import ScanTable
from repro.fuzz.datagen import random_database
from repro.gmdj import evaluate_plan, select_fragmenter
from repro.storage import Catalog, DataType, Relation
from repro.unnesting import subquery_to_gmdj
from tests.test_property_equivalence import databases, predicates

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

worker_counts = st.sampled_from([1, 2, 4])


class TestParallelEquivalence:
    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           partitions=st.integers(min_value=1, max_value=6),
           workers=worker_counts)
    def test_workers_match_sequential(self, catalog, predicate,
                                      partitions, workers):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog)
        sequential = plan.evaluate(catalog)
        pooled = evaluate_plan(plan, catalog, fragmenter=select_fragmenter(
            partitions=partitions, workers=workers, executor="thread"))
        assert sequential.bag_equal(pooled)

    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           workers=worker_counts)
    def test_workers_match_on_optimized_plans(self, catalog, predicate,
                                              workers):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        sequential = plan.evaluate(catalog)
        pooled = evaluate_plan(plan, catalog, fragmenter=select_fragmenter(
            partitions=3, workers=workers, executor="thread"))
        assert sequential.bag_equal(pooled)


class TestNullHeavyData:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           predicate=predicates(),
           workers=worker_counts)
    def test_fuzzer_databases_agree(self, seed, predicate, workers):
        # The fuzzer's generator skews keys, duplicates rows, and NULLs
        # 40% of every column — the hard regime for mergeable partials.
        spec = random_database(random.Random(seed), max_rows=12,
                               null_rate=0.4)
        generated = spec.build_catalog()
        # Property-grammar predicates reference B.K/B.X and R.K/R.Y;
        # the fuzzer emits lowercase (k, x/y, s) columns, so rebuild the
        # tables under the grammar's schema, data unchanged.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(row[0], row[1]) for row in generated.table("B").rows],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
            [(row[0], row[1]) for row in generated.table("R").rows],
        ))
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog)
        sequential = plan.evaluate(catalog)
        pooled = evaluate_plan(plan, catalog, fragmenter=select_fragmenter(
            partitions=4, workers=workers, executor="thread"))
        assert sequential.bag_equal(pooled)
