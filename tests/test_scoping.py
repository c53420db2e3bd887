"""Regression tests for SQL name scoping through the rewrites.

A bare column name inside a subquery resolves in the *innermost* scope
that declares it.  The GMDJ translation, join unnesting, and the APPLY
rewrites all lift subquery expressions into conditions over combined
schemas — where a bare name could suddenly capture an outer attribute of
the same name.  These tests pin the inner-wins behaviour (found
originally by the SQL fuzzer).
"""

import pytest
from repro import QueryOptions

from repro.engine import Database
from repro.storage import DataType

STRATEGIES = ("naive", "native", "unnest_join", "gmdj", "gmdj_optimized")


@pytest.fixture
def db() -> Database:
    database = Database()
    # Both tables declare a column named `a` — the capture hazard.
    database.create_table(
        "T", [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        [(1, 2), (3, 4), (None, 5), (7, 1)],
    )
    database.create_table(
        "U", [("a", DataType.INTEGER)], [(1,), (3,), (9,)],
    )
    return database


def agree(db: Database, sql: str):
    reference = db.execute_sql(sql, QueryOptions("naive"))
    for strategy in STRATEGIES[1:]:
        assert reference.bag_equal(db.execute_sql(sql, QueryOptions(strategy))), strategy
    return reference


class TestBareNameCapture:
    def test_not_in_with_bare_item(self, db):
        result = agree(db, "SELECT a FROM T WHERE T.a NOT IN (SELECT a FROM U)")
        assert sorted(row[0] for row in result.rows) == [7]

    def test_in_with_bare_item(self, db):
        result = agree(db, "SELECT a FROM T WHERE T.a IN (SELECT a FROM U)")
        assert sorted(row[0] for row in result.rows) == [1, 3]

    def test_exists_with_bare_inner_column(self, db):
        result = agree(
            db,
            "SELECT b FROM T WHERE EXISTS (SELECT * FROM U WHERE a = T.a)",
        )
        assert sorted(row[0] for row in result.rows) == [2, 4]

    def test_quantified_with_bare_item(self, db):
        agree(db, "SELECT a FROM T WHERE T.b > ALL (SELECT a FROM U)")

    def test_scalar_aggregate_with_bare_argument(self, db):
        # Non-equality correlation: join unnesting legitimately refuses
        # (aggregate unnesting needs equality groups), so compare the
        # remaining strategies.
        sql = ("SELECT a FROM T WHERE T.b > (SELECT sum(a) FROM U WHERE "
               "a < T.b)")
        reference = db.execute_sql(sql, QueryOptions("naive"))
        for strategy in ("native", "gmdj", "gmdj_optimized"):
            assert reference.bag_equal(db.execute_sql(sql, QueryOptions(strategy)))
        assert len(reference) > 0

    def test_scalar_aggregate_equality_correlation(self, db):
        result = agree(
            db,
            "SELECT a FROM T WHERE T.b > (SELECT sum(a) FROM U WHERE "
            "a = T.a)",
        )
        assert len(result) > 0

    def test_select_list_subquery_with_bare_correlation(self, db):
        sql = ("SELECT T.a, (SELECT count(*) FROM U WHERE a = T.a) AS n "
               "FROM T")
        reference = db.execute_sql(sql, QueryOptions("naive"))
        for strategy in ("gmdj", "gmdj_optimized", "unnest_join"):
            assert reference.bag_equal(db.execute_sql(sql, QueryOptions(strategy)))
        rows = {row[0]: row[1] for row in reference.rows}
        assert rows[1] == 1 and rows[7] == 0 and rows[None] == 0

    def test_outer_bare_name_still_resolves_outer(self, db):
        # `b` exists only in T, so inside the subquery it reaches out.
        result = agree(
            db,
            "SELECT a FROM T WHERE EXISTS (SELECT * FROM U WHERE U.a = b)",
        )
        # b values: 2,4,5,1 — U.a values 1,3,9 — only b=1 matches (a=7).
        assert sorted(row[0] for row in result.rows) == [7]


class TestApplyScoping:
    def test_apply_to_gmdj_bare_names(self, db):
        from repro.algebra.aggregates import count_star
        from repro.algebra.expressions import col
        from repro.algebra.nested import Apply, Subquery
        from repro.algebra.operators import ScanTable
        from repro.unnesting.translate import subquery_to_gmdj

        apply = Apply(
            ScanTable("T", "t"),
            Subquery(ScanTable("U"), col("a") == col("t.a"),
                     aggregate=count_star("n")),
            output_name="n",
        )
        looped = apply.evaluate(db.catalog)
        rewritten = subquery_to_gmdj(apply, db.catalog).evaluate(db.catalog)
        assert looped.bag_equal(rewritten)
