"""Differential proof that batch MQO execution is invisible.

``execute_batch`` must be a pure scheduling change: for every batch,
each member's result is row- AND order-identical to what ``execute``
returns for it alone.  The lattice (``tests/test_physical_lattice.py``)
holds all six Table 1 subquery forms over NULL-heavy data to that at
every kernel × fragmenter point; here the lint certificates prove one
detail scan per detail table per share group and the runtime counter
confirms it, random compatible/incompatible mixes keep their rows, and
a repeated batch goes through the result cache and the rollup store as
a query sent alone does.

The seeded-bug test demonstrates the suite has teeth: an over-eager
fingerprint that ignores θ conjuncts referencing only the base relation
(a classic MQO over-merge) makes the differential comparison fail.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import agg
from repro.algebra.expressions import TRUE, Comparison, col, conjuncts_of, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    in_predicate,
    not_in_predicate,
)
from repro.algebra.operators import ScanTable
from repro.obs import metrics_scope
from repro.storage import collect
from tests.test_physical_lattice import FORMS, form_query, make_db, subquery

NO_CACHE = QueryOptions(use_cache=False)


class TestSixFormsDifferential:
    @pytest.mark.parametrize("form", FORMS)
    def test_group_certificate_single_scan(self, form):
        db = make_db()
        queries = [form_query(form, bound) for bound in (1, 3, 5)]
        batch = db.execute_batch(queries, NO_CACHE)
        groups = batch.report.groups
        assert groups, f"{form}: expected a coalesced share group"
        for group in groups:
            # Static claim: one detail scan per detail table per group.
            assert group.certificate.scan_counts == {"R": 1}
            assert group.certificate.single_scan_tables == {"R"}
            # Runtime cross-check against the trace's detail_scan spans.
            assert group.runtime_detail_scans == 1
            assert group.certified is True
            assert group.scans_saved == len(group.members) - 1

    def test_mixed_form_mega_batch(self):
        db = make_db()
        queries = [form_query(form, bound)
                   for form in FORMS for bound in (1, 4)]
        batch = db.execute_batch(queries, NO_CACHE)
        assert batch.report.scans_saved >= 1
        for query, result in zip(queries, batch):
            expected = db.execute(query, NO_CACHE)
            assert result.rows == expected.rows


# -- property: random compatible/incompatible mixes ---------------------------

small_int = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def batch_members(draw):
    theta = TRUE
    if draw(st.booleans()):
        theta = col("r.K") == col("b.K")
    if draw(st.booleans()):
        extra = Comparison(draw(comparison_ops), col("r.Y"),
                           lit(draw(st.integers(0, 6))))
        theta = extra if theta is TRUE else theta & extra
    form = draw(st.sampled_from(FORMS))
    if form == "exists":
        predicate = Exists(subquery(theta),
                           negated=draw(st.booleans()))
    elif form == "not_exists":
        predicate = Exists(subquery(theta), negated=True)
    elif form == "in":
        predicate = in_predicate(col("b.X"),
                                 subquery(theta, item=col("r.Y")))
    elif form == "not_in":
        predicate = not_in_predicate(col("b.X"),
                                     subquery(theta, item=col("r.Y")))
    elif form == "quantified":
        predicate = QuantifiedComparison(
            draw(comparison_ops), draw(st.sampled_from(["some", "all"])),
            col("b.X"), subquery(theta, item=col("r.Y")),
        )
    else:
        function = draw(st.sampled_from(["count", "sum", "min", "max"]))
        argument = None if function == "count" else col("r.Y")
        predicate = ScalarComparison(
            draw(comparison_ops), col("b.X"),
            subquery(theta, aggregate=agg(function, argument, "v")),
        )
    # Flat members (no subquery) are share-incompatible by construction.
    if draw(st.integers(0, 4)) == 0:
        return NestedSelect(ScanTable("B", "b"),
                            col("b.X") > lit(draw(st.integers(0, 6))))
    return NestedSelect(ScanTable("B", "b"), predicate)


class TestBatchProperty:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        b_rows=st.lists(st.tuples(small_int, small_int), max_size=8),
        r_rows=st.lists(st.tuples(small_int, small_int), max_size=10),
        queries=st.lists(batch_members(), min_size=2, max_size=5),
    )
    def test_batch_bag_equal_to_sequential(self, b_rows, r_rows, queries):
        db = Database()
        db.create_table(
            "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)], b_rows
        )
        db.create_table(
            "R", [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], r_rows
        )
        batch = db.execute_batch(queries, NO_CACHE)
        for query, result in zip(queries, batch):
            expected = db.execute(query, NO_CACHE)
            assert result.rows == expected.rows
            assert expected.bag_equal(result)


# -- a repeated batch: the same serving tiers as a query sent alone ----------

EXISTS_SQL = ("SELECT b.K, b.X FROM B b WHERE EXISTS "
              "(SELECT * FROM R r WHERE r.K = b.K AND r.Y > 2)")


class TestWarmBatch:
    """Every member probes the result cache, and a share group's merged
    GMDJ meets the rollup store as any GMDJ node does: a batch run again
    scans nothing, as the same query sent alone does."""

    @pytest.mark.parametrize("strategy", ["gmdj", "gmdj_optimized"])
    @pytest.mark.parametrize("knobs", [
        dict(use_cache=True, rollup="subsume"),
        dict(use_cache=True),
        dict(rollup="subsume", use_cache=False),
    ], ids=["cache-rollup", "cache", "rollup"])
    def test_warm_batch_scans_nothing(self, strategy, knobs):
        db = make_db()
        options = QueryOptions(strategy, **knobs)
        cold = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert len(cold.report.groups) == 1
        with collect() as stats:
            warm = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert stats.detail_scans == 0
        assert [result.rows for result in warm] == [
            result.rows for result in cold]

    def test_repeated_member_is_answered_from_the_cache(self):
        # A holistic COUNT(DISTINCT) forms no group: the second copy is
        # answered by the first's stored result, as when run in order.
        db = make_db()
        sql = ("SELECT b.K FROM B b WHERE b.X > (SELECT COUNT(DISTINCT r.Y) "
               "FROM R r WHERE r.K = b.K)")
        with collect() as stats:
            batch = db.execute_sql_batch([sql, sql],
                                         QueryOptions(use_cache=True))
        assert not batch.report.groups
        assert stats.detail_scans == 1
        assert (db.cache.result_hits, db.cache.result_misses) == (1, 1)
        alone = db.execute_sql(sql, NO_CACHE).rows
        assert [result.rows for result in batch] == [alone, alone]

    def test_merged_node_is_stored_and_served(self):
        db = make_db()
        options = QueryOptions("gmdj", rollup="subsume", use_cache=False)
        cold = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        (group,) = cold.report.groups
        assert group.certified is True
        with metrics_scope(merge=False) as registry:
            warm = db.execute_sql_batch([EXISTS_SQL, EXISTS_SQL], options)
        assert registry.counters["rollup.exact_hits"].value == 1
        (group,) = warm.report.groups
        assert group.certified is None
        assert group.runtime_detail_scans == 0
        assert [result.rows for result in warm] == [
            result.rows for result in cold]


# -- the seeded bug: over-eager fingerprint ignoring base-only conjuncts ------


class TestSeededOverMerge:
    """An MQO merge keyed only on detail-referencing θ conjuncts merges
    blocks that differ in base-only conjuncts — routing one consumer's
    aggregates through another consumer's θ.  The differential suite
    must catch it."""

    @staticmethod
    def buggy_block_key(block):
        def touches_detail(conjunct):
            return any(
                ref.rpartition(".")[0].startswith("mqo_")
                for ref in conjunct.references()
            )

        kept = [c for c in conjuncts_of(block.condition)
                if touches_detail(c)]
        return repr([repr(c) for c in kept])

    def queries(self):
        # Same detail θ; the *base-only* conjunct (b.X > bound) differs.
        def query(bound):
            theta = ((col("r.K") == col("b.K"))
                     & (col("b.X") > lit(bound)))
            return NestedSelect(ScanTable("B", "b"),
                                Exists(subquery(theta)))

        return [query(5), query(35)]

    def test_blocks_do_merge_under_the_bug(self, monkeypatch):
        import repro.gmdj.share as share

        monkeypatch.setattr(share, "block_key", self.buggy_block_key)
        db = make_db()
        from repro.engine.mqo import plan_batch

        plan = plan_batch(self.queries(), db.catalog, NO_CACHE)
        assert len(plan.groups) == 1
        assert plan.groups[0].shared.shared_blocks == 1  # over-merged

    def test_differential_catches_the_over_merge(self, monkeypatch):
        import repro.gmdj.share as share

        monkeypatch.setattr(share, "block_key", self.buggy_block_key)
        db = make_db()
        queries = self.queries()
        batch = db.execute_batch(queries, NO_CACHE)
        diverged = any(
            batch[i].rows != db.execute(queries[i], NO_CACHE).rows
            for i in range(len(queries))
        )
        assert diverged, (
            "the seeded over-merge produced identical results; the "
            "differential suite would not catch this bug class"
        )

    def test_correct_key_passes_the_same_comparison(self):
        db = make_db()
        queries = self.queries()
        batch = db.execute_batch(queries, NO_CACHE)
        for query, result in zip(queries, batch):
            assert result.rows == db.execute(query, NO_CACHE).rows
