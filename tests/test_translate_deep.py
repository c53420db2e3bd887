"""Deeper translator coverage: mixed quantifiers, OR forests, aggregate
arguments with arithmetic, randomized nesting shapes."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.aggregates import agg
from repro.algebra.expressions import Not, TRUE, col, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
)
from repro.algebra.operators import ScanTable
from repro.baselines import evaluate_naive
from repro.storage import Catalog, DataType, Relation
from repro.unnesting import subquery_to_gmdj


def assert_translates(query, catalog):
    expected = evaluate_naive(query, catalog)
    plain = subquery_to_gmdj(query, catalog).evaluate(catalog)
    optimized = subquery_to_gmdj(query, catalog, optimize=True).evaluate(catalog)
    assert expected.bag_equal(plain)
    assert expected.bag_equal(optimized)
    return expected


@pytest.fixture
def catalog(kv_catalog) -> Catalog:
    return kv_catalog


class TestRicherShapes:
    def test_aggregate_with_arithmetic_argument(self, catalog):
        sub = Subquery(ScanTable("R", "r"), col("r.K") == col("b.K"),
                       aggregate=agg("sum", col("r.Y") * lit(2), "s2"))
        query = NestedSelect(
            ScanTable("B", "b"), ScalarComparison(">", col("b.X"), sub)
        )
        assert_translates(query, catalog)

    def test_arithmetic_outer_operand(self, catalog):
        sub = Subquery(ScanTable("R", "r"), col("r.K") == col("b.K"),
                       item=col("r.Y"))
        query = NestedSelect(
            ScanTable("B", "b"),
            QuantifiedComparison(">", "some", col("b.X") + lit(1), sub),
        )
        assert_translates(query, catalog)

    def test_or_of_three_subqueries(self, catalog):
        def exists(alias, low):
            return Exists(Subquery(
                ScanTable("R", alias),
                (col(f"{alias}.K") == col("b.K"))
                & (col(f"{alias}.Y") > lit(low)),
            ))

        predicate = exists("r1", 1) | exists("r2", 5) | exists("r3", 7)
        assert_translates(NestedSelect(ScanTable("B", "b"), predicate),
                          catalog)

    def test_not_over_and_of_subqueries(self, catalog):
        def exists(alias):
            return Exists(Subquery(ScanTable("R", alias),
                                   col(f"{alias}.K") == col("b.K")))

        predicate = Not(exists("r1") & Not(exists("r2")))
        assert_translates(NestedSelect(ScanTable("B", "b"), predicate),
                          catalog)

    def test_mixed_quantifiers_same_level(self, catalog):
        some = QuantifiedComparison(
            "<", "some", col("b.X"),
            Subquery(ScanTable("R", "r1"), col("r1.K") == col("b.K"),
                     item=col("r1.Y")),
        )
        all_ = QuantifiedComparison(
            "<>", "all", col("b.X"),
            Subquery(ScanTable("R", "r2"), col("r2.K") == col("b.K"),
                     item=col("r2.Y")),
        )
        assert_translates(NestedSelect(ScanTable("B", "b"), some & all_),
                          catalog)

    def test_quantifier_nested_in_quantifier(self, catalog):
        inner = QuantifiedComparison(
            ">", "some", col("r1.Y"),
            Subquery(ScanTable("R", "r2"), col("r2.K") == col("r1.K"),
                     item=col("r2.Y")),
        )
        outer_sub = Subquery(ScanTable("R", "r1"),
                             (col("r1.K") == col("b.K")) & inner,
                             item=col("r1.Y"))
        query = NestedSelect(
            ScanTable("B", "b"),
            QuantifiedComparison("<=", "all", col("b.X"), outer_sub),
        )
        assert_translates(query, catalog)

    def test_uncorrelated_inside_correlated(self, catalog):
        uncorrelated = Exists(Subquery(ScanTable("R", "r2"),
                                       col("r2.Y") > lit(7)))
        outer_sub = Subquery(ScanTable("R", "r1"),
                             (col("r1.K") == col("b.K")) & uncorrelated)
        assert_translates(
            NestedSelect(ScanTable("B", "b"), Exists(outer_sub)), catalog
        )

    def test_fully_uncorrelated_chain(self, catalog):
        inner = Exists(Subquery(ScanTable("R", "r2"), col("r2.Y") > lit(90)))
        outer = Exists(Subquery(ScanTable("R", "r1"), TRUE & inner),
                       negated=True)
        assert_translates(NestedSelect(ScanTable("B", "b"), outer), catalog)

    def test_pushed_down_copy_counts_a_repeated_base_tuple_once(self):
        """Thm 3.3/3.4's copy of B is linked to B by identity: with B's
        tuple repeated, each repeat must still meet one copy."""
        catalog = Catalog()
        for name, rows in (("B", [(1, 7), (1, 7)]), ("R", [(2, 2)]),
                           ("S", [(2, 4)])):
            catalog.create_table(name, Relation.from_columns(
                [("K", DataType.INTEGER), ("X", DataType.INTEGER)], rows))
        non_neighbor = Subquery(
            ScanTable("S", "s"),
            QuantifiedComparison(">=", "some", col("s.K"), Subquery(
                ScanTable("R", "r"), col("r.X") != col("b.K"),
                item=col("r.X"))),
            aggregate=agg("count", None, "n"))
        query = NestedSelect(
            ScanTable("B", "b"), ScalarComparison("=", lit(1), non_neighbor))
        assert len(assert_translates(query, catalog)) == 2

    @pytest.mark.parametrize("where", ["EXISTS (SELECT * FROM R r1)",
                                       "b.X > 0"])
    def test_a_copy_runs_no_gmdj_twice(self, where):
        """A SELECT-list item's pushed-down copy is of its input's rows,
        which hold the GMDJs of its WHERE block and of earlier items:
        each is evaluated once, at every rollup level."""
        from repro import QueryOptions
        from repro.engine import Database, plan_for
        from repro.gmdj import GMDJ
        from repro.storage import collect

        db = Database()
        for name in ("B", "R"):
            db.create_table(name, [("K", DataType.INTEGER),
                                   ("X", DataType.INTEGER)],
                            [(1, 7), (2, 3), (3, 3)])
        sql = ("SELECT b.K, (SELECT COUNT(*) FROM R r3 WHERE r3.X <> b.K) n, "
               "(SELECT SUM(r.X) FROM R r WHERE EXISTS (SELECT * FROM R r2 "
               f"WHERE r2.K < b.X AND r2.X = r.X)) s FROM B b WHERE {where}")

        def nodes(node):
            yield node
            for child in node.children():
                yield from nodes(child)

        plan = plan_for(db.sql(sql), db.catalog, "gmdj")
        gmdjs = {repr(node) for node in nodes(plan) if isinstance(node, GMDJ)}
        naive = db.execute_sql(sql, QueryOptions("naive")).rows
        for rollup in ("off", "subsume"):
            with collect() as stats:
                rows = db.execute_sql(sql, QueryOptions(
                    "gmdj", backend="row", rollup=rollup,
                    use_cache=False)).rows
            assert sorted(rows) == sorted(naive)
            assert stats.detail_scans == len(gmdjs), rollup


class TestRandomizedNesting:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.lists(st.tuples(st.integers(0, 4),
                                st.one_of(st.none(), st.integers(0, 8))),
                      min_size=0, max_size=14),
        ops=st.lists(st.sampled_from(["=", "<>", "<", ">"]), min_size=3,
                     max_size=3),
        negations=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_three_level_chains(self, data, ops, negations):
        from repro.algebra.expressions import Comparison

        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
            [(i, i * 2) for i in range(5)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], data,
        ))
        level3 = Exists(
            Subquery(ScanTable("R", "r3"),
                     Comparison(ops[2], col("r3.Y"), col("r2.Y"))),
            negated=negations[2],
        )
        level2 = Exists(
            Subquery(ScanTable("R", "r2"),
                     Comparison(ops[1], col("r2.K"), col("r1.K")) & level3),
            negated=negations[1],
        )
        level1 = Exists(
            Subquery(ScanTable("R", "r1"),
                     Comparison(ops[0], col("r1.K"), col("b.K")) & level2),
            negated=negations[0],
        )
        query = NestedSelect(ScanTable("B", "b"), level1)
        expected = evaluate_naive(query, catalog)
        translated = subquery_to_gmdj(query, catalog).evaluate(catalog)
        optimized = subquery_to_gmdj(query, catalog,
                                     optimize=True).evaluate(catalog)
        assert expected.bag_equal(translated)
        assert expected.bag_equal(optimized)
