"""Tests for the GMDJ → SQL reduction (conditional aggregation)."""

import pytest

from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import Coalesce, IsNull, col, lit
from repro.algebra.nested import Exists, NestedSelect, Subquery
from repro.algebra.operators import ScanTable
from repro.errors import TranslationError
from repro.gmdj import expression_to_sql, gmdj_to_sql, md, plan_to_sql
from repro.storage import Catalog, DataType, Relation
from repro.unnesting import subquery_to_gmdj


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)], [(1, 2)],
    ))
    cat.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], [(1, 3)],
    ))
    return cat


class TestExpressionRendering:
    def test_column_and_literal(self):
        assert expression_to_sql(col("b.K") == lit(5)) == "b.K = 5"

    def test_string_escaping(self):
        assert expression_to_sql(lit("it's")) == "'it''s'"

    def test_null_literal(self):
        assert expression_to_sql(lit(None)) == "NULL"

    def test_boolean_connectives(self):
        text = expression_to_sql((col("a") > lit(1)) & ~(col("b") < lit(2)))
        assert text == "(a > 1 AND (NOT b < 2))"

    def test_is_null_and_coalesce(self):
        assert expression_to_sql(IsNull(col("a"))) == "a IS NULL"
        assert expression_to_sql(
            Coalesce(col("a"), lit(0))
        ) == "COALESCE(a, 0)"

    def test_arithmetic(self):
        assert expression_to_sql(col("a") / lit(2)) == "(a / 2)"


class TestGmdjReduction:
    def test_shape(self, catalog):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("cnt"), agg("sum", col("r.Y"), "s")]],
                  [col("b.K") == col("r.K")])
        sql = gmdj_to_sql(plan, catalog)
        assert "COUNT(CASE WHEN b.K = r.K THEN 1 END) AS cnt" in sql
        assert "SUM(CASE WHEN b.K = r.K THEN r.Y END) AS s" in sql
        assert "LEFT OUTER JOIN R AS r" in sql
        assert "GROUP BY b.K, b.X" in sql

    def test_multi_block_join_filter_is_disjunction(self, catalog):
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c1")], [count_star("c2")]],
                  [col("b.K") == col("r.K"), col("r.Y") > lit(0)])
        sql = gmdj_to_sql(plan, catalog)
        assert "OR" in sql.split("ON", 1)[1].split("GROUP BY")[0]

    def test_non_scan_operand_rejected(self, catalog):
        from repro.algebra.operators import Select

        plan = md(Select(ScanTable("B", "b"), col("b.X") > lit(0)),
                  ScanTable("R", "r"), [[count_star("c")]],
                  [col("b.K") == col("r.K")])
        with pytest.raises(TranslationError):
            gmdj_to_sql(plan, catalog)


class TestPlanReduction:
    def test_translated_exists_plan(self, catalog):
        query = NestedSelect(
            ScanTable("B", "b"),
            Exists(Subquery(ScanTable("R", "r"), col("r.K") == col("b.K"))),
        )
        plan = subquery_to_gmdj(query, catalog)
        sql = plan_to_sql(plan, catalog)
        assert sql.startswith("SELECT K, X")
        assert "b.K AS K" in sql  # inner SELECT aliases base columns bare
        assert "GROUP BY b.K, b.X" in sql
        assert "WHERE" in sql
        assert "COUNT(CASE WHEN" in sql

    def test_optimized_plan_with_completion(self, catalog):
        query = NestedSelect(
            ScanTable("B", "b"),
            Exists(Subquery(ScanTable("R", "r"), col("r.K") == col("b.K")),
                   negated=True),
        )
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        sql = plan_to_sql(plan, catalog)
        assert "= 0" in sql  # the NOT EXISTS count condition survives

    def test_unsupported_plan_rejected(self, catalog):
        with pytest.raises(TranslationError):
            plan_to_sql(ScanTable("B", "b"), catalog)


class TestSingleReduction:
    """``single(y)`` has no SQL aggregate: the reduction returns MIN's
    value where the engine raises, and shows the θ-row count that says
    where."""

    def test_min_beside_its_row_count(self):
        import sqlite3

        from repro.errors import CardinalityError

        cat = Catalog()
        cat.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(1,), (2,)]))
        cat.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER), ("Y", DataType.INTEGER)],
            [(1, 3), (1, 4), (2, 5)]))
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[agg("single", col("r.Y"), "v")]],
                  [col("b.K") == col("r.K")])
        sql = gmdj_to_sql(plan, cat)
        assert "MIN(CASE WHEN b.K = r.K THEN r.Y END) AS v" in sql
        assert "COUNT(CASE WHEN b.K = r.K THEN 1 END) AS v__rows" in sql
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE B (K)")
        connection.execute("CREATE TABLE R (K, Y)")
        connection.executemany("INSERT INTO B VALUES (?)", [(1,), (2,)])
        connection.executemany("INSERT INTO R VALUES (?, ?)",
                               [(1, 3), (1, 4), (2, 5)])
        assert sorted(connection.execute(sql).fetchall()) == [
            (1, 3, 2), (2, 5, 1)]
        with pytest.raises(CardinalityError):
            plan.evaluate(cat)
