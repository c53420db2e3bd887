"""Tests for scalar subqueries in the SELECT list (APPLY-based)."""

import pytest
from repro import QueryOptions

from repro.algebra.nested import Apply
from repro.algebra.operators import Project
from repro.engine import Database
from repro.errors import BindError
from repro.gmdj import GMDJ
from repro.sql import compile_sql
from repro.storage import DataType


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "customer", [("ck", DataType.INTEGER), ("seg", DataType.STRING)],
        [(1, "a"), (2, "a"), (3, "b")],
    )
    database.create_table(
        "orders", [("ck", DataType.INTEGER), ("price", DataType.INTEGER)],
        [(1, 10), (1, 30), (2, 5), (9, 99)],
    )
    return database


class TestBinding:
    def test_aggregate_select_subquery_binds_to_apply(self, db):
        plan = compile_sql(
            "SELECT c.ck, (SELECT count(*) FROM orders o WHERE o.ck = c.ck) "
            "AS n FROM customer c", db.catalog,
        )
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Apply)
        assert plan.child.subquery.aggregate.function == "count"

    def test_mixing_with_group_by_rejected(self, db):
        with pytest.raises(BindError):
            compile_sql(
                "SELECT seg, (SELECT count(*) FROM orders o) FROM customer "
                "GROUP BY seg", db.catalog,
            )

    def test_subquery_in_where_arithmetic_rejected(self, db):
        with pytest.raises(BindError):
            compile_sql(
                "SELECT ck FROM customer c WHERE ck > "
                "(SELECT max(price) FROM orders) + 1", db.catalog,
            )


class TestExecution:
    SQL = ("SELECT c.ck, (SELECT count(*) FROM orders o WHERE o.ck = c.ck) "
           "AS n, (SELECT sum(o2.price) FROM orders o2 WHERE o2.ck = c.ck) "
           "AS total FROM customer c")

    def test_values(self, db):
        result = db.execute_sql(self.SQL, QueryOptions("naive"))
        rows = {row[0]: (row[1], row[2]) for row in result.rows}
        assert rows == {1: (2, 40), 2: (1, 5), 3: (0, None)}

    @pytest.mark.parametrize("strategy", ["naive", "native", "gmdj",
                                          "gmdj_optimized", "unnest_join"])
    def test_strategies_agree(self, db, strategy):
        expected = db.execute_sql(self.SQL, QueryOptions("naive"))
        assert expected.bag_equal(db.execute_sql(self.SQL, QueryOptions(strategy)))

    def test_gmdj_strategy_rewrites_apply(self, db):
        from repro.unnesting import subquery_to_gmdj

        plan = compile_sql(self.SQL, db.catalog)
        translated = subquery_to_gmdj(plan, db.catalog)

        def contains(node, kind):
            if isinstance(node, kind):
                return True
            return any(
                contains(child, kind)
                for child in getattr(node, "children", lambda: ())()
            )

        assert contains(translated, GMDJ)
        assert not contains(translated, Apply)

    def test_scalar_mode_select_subquery(self, db):
        sql = ("SELECT c.ck, (SELECT o.price FROM orders o "
               "WHERE o.ck = c.ck AND o.price > 20) AS big FROM customer c")
        result = db.execute_sql(sql, QueryOptions("naive"))
        rows = {row[0]: row[1] for row in result.rows}
        assert rows == {1: 30, 2: None, 3: None}

    def test_uncorrelated_select_subquery(self, db):
        sql = ("SELECT c.ck, (SELECT max(o.price) FROM orders o) AS top "
               "FROM customer c")
        result = db.execute_sql(sql, QueryOptions("gmdj_optimized"))
        assert all(row[1] == 99 for row in result.rows)


class TestDefaultRouting:
    """Under default options every subquery form reaches the GMDJ."""

    SQL = TestExecution.SQL

    def test_siblings_coalesce_into_one_scan(self, db):
        report = db.profile_sql(self.SQL, QueryOptions(trace=True,
                                                      use_cache=False))
        expected = db.execute_sql(self.SQL, QueryOptions("native"))
        assert report.result.rows == expected.rows
        scans = report.trace.find(kind="detail_scan")
        assert [s.attrs["relation"] for s in scans] == ["orders"]

    def test_same_work_as_explicit_gmdj_optimized(self, db):
        default = db.profile_sql(self.SQL, QueryOptions(use_cache=False))
        named = db.profile_sql(
            self.SQL, QueryOptions("gmdj_optimized", use_cache=False))
        assert default.result.rows == named.result.rows
        assert default.counters == named.counters

    @pytest.mark.parametrize("sql, subqueries", [
        pytest.param("SELECT c.ck, (SELECT o.price FROM orders o "
                     "WHERE o.ck = c.ck AND o.price > 20) AS big "
                     "FROM customer c", 1, id="scalar_item"),
        pytest.param("SELECT c.ck, (SELECT count(*) FROM orders o "
                     "WHERE o.ck = c.ck AND EXISTS (SELECT * FROM customer d "
                     "WHERE d.ck = o.ck)) AS n FROM customer c", 2,
                     id="nested_inner_predicate"),
    ])
    def test_both_shapes_translate(self, db, sql, subqueries):
        from repro.engine import plan_for

        def nodes(node):
            yield node
            for child in node.children():
                yield from nodes(child)

        plan = plan_for(db.sql(sql), db.catalog, "gmdj_optimized")
        kinds = [type(node) for node in nodes(plan)]
        assert kinds.count(GMDJ) == subqueries and Apply not in kinds
        expected = db.execute_sql(sql, QueryOptions("naive"))
        assert expected.bag_equal(
            db.execute_sql(sql, QueryOptions(use_cache=False)))
