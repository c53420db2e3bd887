"""Tests for compound SELECTs (UNION/EXCEPT/INTERSECT), LIMIT/OFFSET,
and the Intersect/Limit operators."""

import sqlite3

import pytest

from repro.algebra.operators import Intersect, Limit, ScanTable
from repro.errors import PlanError, SQLSyntaxError
from repro.sql import compile_sql, parse_sql
from repro.sql.ast_nodes import CompoundSelect
from repro.storage import Catalog, DataType, Relation


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("T", Relation.from_columns(
        [("k", DataType.INTEGER)], [(1,), (1,), (2,), (3,)],
    ))
    cat.create_table("U", Relation.from_columns(
        [("k", DataType.INTEGER)], [(1,), (3,), (3,), (4,)],
    ))
    return cat


class TestOperators:
    def test_intersect_all_min_multiplicity(self, catalog):
        node = Intersect(ScanTable("T", "t"), ScanTable("U", "u"))
        result = node.evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [1, 3]

    def test_intersect_distinct(self, catalog):
        node = Intersect(ScanTable("T", "t"), ScanTable("U", "u"),
                         distinct=True)
        assert sorted(r[0] for r in node.evaluate(catalog).rows) == [1, 3]

    def test_limit(self, catalog):
        node = Limit(ScanTable("T", "t"), 2)
        assert len(node.evaluate(catalog)) == 2

    def test_limit_with_offset(self, catalog):
        node = Limit(ScanTable("T", "t"), 2, offset=3)
        assert [row[0] for row in node.evaluate(catalog).rows] == [3]

    def test_negative_limit_rejected(self, catalog):
        with pytest.raises(PlanError):
            Limit(ScanTable("T", "t"), -1)


class TestParsing:
    def test_union_parses_to_compound(self):
        statement = parse_sql("SELECT k FROM T UNION SELECT k FROM U")
        assert isinstance(statement, CompoundSelect)
        assert statement.operator == "union" and not statement.all

    def test_union_all(self):
        statement = parse_sql("SELECT k FROM T UNION ALL SELECT k FROM U")
        assert statement.all

    def test_left_associative_chain(self):
        statement = parse_sql(
            "SELECT k FROM T UNION SELECT k FROM U EXCEPT SELECT k FROM T"
        )
        assert statement.operator == "except"
        assert isinstance(statement.left, CompoundSelect)

    def test_limit_clause(self):
        statement = parse_sql("SELECT k FROM T LIMIT 5 OFFSET 2")
        assert statement.limit == 5 and statement.offset == 2

    def test_limit_requires_number(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT k FROM T LIMIT many")


class TestExecution:
    def test_union_distinct(self, catalog):
        result = compile_sql("SELECT k FROM T UNION SELECT k FROM U",
                             catalog).evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [1, 2, 3, 4]

    def test_union_all_keeps_duplicates(self, catalog):
        result = compile_sql("SELECT k FROM T UNION ALL SELECT k FROM U",
                             catalog).evaluate(catalog)
        assert len(result) == 8

    def test_except_distinct_is_set_difference(self, catalog):
        result = compile_sql("SELECT k FROM T EXCEPT SELECT k FROM U",
                             catalog).evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [2]

    def test_except_all_is_bag_difference(self, catalog):
        result = compile_sql("SELECT k FROM T EXCEPT ALL SELECT k FROM U",
                             catalog).evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [1, 2]

    def test_intersect(self, catalog):
        result = compile_sql("SELECT k FROM T INTERSECT SELECT k FROM U",
                             catalog).evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [1, 3]

    def test_limit_execution(self, catalog):
        result = compile_sql("SELECT k FROM T ORDER BY k DESC LIMIT 2",
                             catalog).evaluate(catalog)
        assert [row[0] for row in result.rows] == [3, 2]

    def test_compound_with_subqueries(self, catalog):
        sql = (
            "SELECT t.k FROM T t WHERE EXISTS "
            "(SELECT * FROM U u WHERE u.k = t.k) "
            "UNION SELECT u.k FROM U u WHERE u.k NOT IN (SELECT k FROM T)"
        )
        result = compile_sql(sql, catalog).evaluate(catalog)
        assert sorted(row[0] for row in result.rows) == [1, 3, 4]

    def test_compound_through_strategies(self, catalog):
        from repro.engine import execute

        sql = (
            "SELECT t.k FROM T t WHERE EXISTS "
            "(SELECT * FROM U u WHERE u.k = t.k) "
            "EXCEPT SELECT u.k FROM U u WHERE u.k > 2"
        )
        plan = compile_sql(sql, catalog)
        reference = execute(plan, catalog, "naive")
        for strategy in ("native", "gmdj", "gmdj_optimized"):
            assert reference.bag_equal(execute(plan, catalog, strategy))


# Two columns per table, so a member bound without its projection (or
# with its columns in the wrong order) changes the rows or the arity.
PAIRS_T = [(1, 10), (1, 10), (2, 20), (3, None), (4, 4), (5, 50)]
PAIRS_U = [(10, 1), (30, 3), (4, 4), (None, 3), (20, 5)]


@pytest.fixture
def pairs() -> Catalog:
    cat = Catalog()
    for name, rows in (("T", PAIRS_T), ("U", PAIRS_U)):
        cat.create_table(name, Relation.from_columns(
            [("a", DataType.INTEGER), ("b", DataType.INTEGER)], rows,
        ))
    return cat


def sqlite_rows(sql: str) -> list:
    connection = sqlite3.connect(":memory:")
    for name, rows in (("T", PAIRS_T), ("U", PAIRS_U)):
        connection.execute(f"CREATE TABLE {name} (a INTEGER, b INTEGER)")
        connection.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
    try:
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


def bag(rows) -> list:
    return sorted(rows, key=lambda row: tuple((v is None, v or 0)
                                              for v in row))


class TestMembersOfTwoColumnTables:
    @pytest.mark.parametrize("sql", [
        "SELECT a, b FROM T UNION ALL SELECT b, a FROM U",
        "SELECT a, b FROM T UNION SELECT b, a FROM U",
        "SELECT b FROM T EXCEPT SELECT a FROM U",
        "SELECT b FROM T INTERSECT SELECT a FROM U",
    ])
    def test_each_member_keeps_its_projection(self, pairs, sql):
        result = compile_sql(sql, pairs).evaluate(pairs)
        assert bag(result.rows) == bag(sqlite_rows(sql))
