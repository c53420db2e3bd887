"""Unit tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_sql


class TestSelectClause:
    def test_star(self):
        statement = parse_sql("SELECT * FROM T")
        assert statement.is_star

    def test_items_with_aliases(self):
        statement = parse_sql("SELECT a AS x, b y, c FROM T")
        assert [item.alias for item in statement.items] == ["x", "y", None]

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM T").distinct

    def test_qualified_columns(self):
        statement = parse_sql("SELECT t.a FROM T t")
        ref = statement.items[0].expression
        assert isinstance(ref, ast.ColumnRef)
        assert ref.qualifier == "t" and ref.name == "a"

    def test_aggregates(self):
        statement = parse_sql("SELECT count(*), sum(x) FROM T")
        count, total = (item.expression for item in statement.items)
        assert isinstance(count, ast.FunctionCall) and count.argument is None
        assert isinstance(total, ast.FunctionCall) and total.name == "sum"

    def test_unknown_function_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT median(x) FROM T")

    def test_arithmetic_precedence(self):
        statement = parse_sql("SELECT a + b * c FROM T")
        expr = statement.items[0].expression
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_unary_minus(self):
        statement = parse_sql("SELECT -5 FROM T")
        expr = statement.items[0].expression
        assert isinstance(expr, ast.BinaryOp) and expr.op == "-"


class TestFromClause:
    def test_single_table(self):
        statement = parse_sql("SELECT * FROM Flow")
        assert statement.tables == (ast.TableRef("Flow", None),)

    def test_alias_forms(self):
        statement = parse_sql("SELECT * FROM Flow f, Hours AS h")
        assert statement.tables == (
            ast.TableRef("Flow", "f"), ast.TableRef("Hours", "h")
        )

    def test_missing_from(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a")


class TestWhereClause:
    def test_comparison(self):
        statement = parse_sql("SELECT * FROM T WHERE a >= 3")
        assert isinstance(statement.where, ast.Comparison)
        assert statement.where.op == ">="

    def test_boolean_precedence_and_binds_tighter(self):
        statement = parse_sql("SELECT * FROM T WHERE a=1 OR b=2 AND c=3")
        assert isinstance(statement.where, ast.OrPredicate)
        assert isinstance(statement.where.right, ast.AndPredicate)

    def test_parenthesized_predicate(self):
        statement = parse_sql("SELECT * FROM T WHERE (a=1 OR b=2) AND c=3")
        assert isinstance(statement.where, ast.AndPredicate)
        assert isinstance(statement.where.left, ast.OrPredicate)

    def test_not(self):
        statement = parse_sql("SELECT * FROM T WHERE NOT a = 1")
        assert isinstance(statement.where, ast.NotPredicate)

    def test_is_null(self):
        statement = parse_sql("SELECT * FROM T WHERE a IS NULL")
        assert isinstance(statement.where, ast.IsNullPredicate)
        assert not statement.where.negated

    def test_is_not_null(self):
        statement = parse_sql("SELECT * FROM T WHERE a IS NOT NULL")
        assert statement.where.negated

    def test_between(self):
        statement = parse_sql("SELECT * FROM T WHERE a BETWEEN 1 AND 5")
        assert isinstance(statement.where, ast.BetweenPredicate)

    def test_not_between(self):
        statement = parse_sql("SELECT * FROM T WHERE a NOT BETWEEN 1 AND 5")
        assert statement.where.negated


class TestSubqueries:
    def test_exists(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE EXISTS (SELECT * FROM U WHERE U.k = T.k)"
        )
        assert isinstance(statement.where, ast.ExistsPredicate)

    def test_not_exists(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE NOT EXISTS (SELECT * FROM U)"
        )
        assert isinstance(statement.where, ast.NotPredicate)
        assert isinstance(statement.where.operand, ast.ExistsPredicate)

    def test_in(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a IN (SELECT b FROM U)"
        )
        assert isinstance(statement.where, ast.InPredicate)
        assert not statement.where.negated

    def test_not_in(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a NOT IN (SELECT b FROM U)"
        )
        assert statement.where.negated

    def test_quantified_all(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a > ALL (SELECT b FROM U)"
        )
        assert isinstance(statement.where, ast.Comparison)
        assert statement.where.quantifier == "all"

    def test_any_is_some(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a = ANY (SELECT b FROM U)"
        )
        assert statement.where.quantifier == "some"

    def test_scalar_subquery(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a > (SELECT max(b) FROM U)"
        )
        assert isinstance(statement.where.right, ast.ScalarSubquery)
        assert isinstance(statement.where.right.query, ast.SelectStatement)
        assert statement.where.quantifier is None

    def test_scalar_subquery_in_select_list(self):
        statement = parse_sql(
            "SELECT a, (SELECT max(b) FROM U) AS top FROM T"
        )
        assert isinstance(statement.items[1].expression, ast.ScalarSubquery)

    def test_parenthesized_expression_not_subquery(self):
        statement = parse_sql("SELECT * FROM T WHERE a > (b + 1)")
        assert isinstance(statement.where.right, ast.BinaryOp)


class TestTrailingClauses:
    def test_group_by(self):
        statement = parse_sql("SELECT k, count(*) FROM T GROUP BY k")
        assert statement.group_by == (ast.ColumnRef(None, "k"),)

    def test_group_by_qualified(self):
        statement = parse_sql("SELECT t.k FROM T t GROUP BY t.k")
        assert statement.group_by[0].qualifier == "t"

    def test_having(self):
        statement = parse_sql(
            "SELECT k, count(*) FROM T GROUP BY k HAVING count(*) > 2"
        )
        assert statement.having is not None

    def test_order_by(self):
        statement = parse_sql("SELECT k FROM T ORDER BY k DESC, v")
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT k FROM T extra nonsense ,")

    def test_empty_input_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("")


class TestBetweenPrecedence:
    def test_between_and_then_conjunction(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a BETWEEN 1 AND 5 AND b = 3"
        )
        assert isinstance(statement.where, ast.AndPredicate)
        assert isinstance(statement.where.left, ast.BetweenPredicate)

    def test_between_with_arithmetic_bounds(self):
        statement = parse_sql(
            "SELECT * FROM T WHERE a BETWEEN 1 + 1 AND 5 * 2"
        )
        where = statement.where
        assert isinstance(where, ast.BetweenPredicate)
        assert isinstance(where.low, ast.BinaryOp)
        assert isinstance(where.high, ast.BinaryOp)


class TestNumericLiterals:
    """A number is ASCII digits, and LIMIT / OFFSET take an integer:
    everything else is a syntax error at the offending token."""

    @pytest.mark.parametrize("sql, position", [
        ("SELECT a FROM T WHERE a = ٣", 26),  # ARABIC-INDIC DIGIT THREE
        ("SELECT a FROM T WHERE a = ²", 26),  # SUPERSCRIPT TWO
        ("SELECT a FROM T LIMIT 2.5", 22),
        ("SELECT a FROM T LIMIT .5", 22),
        ("SELECT a FROM T LIMIT 2 OFFSET 1.5", 31),
        ("SELECT a FROM T LIMIT ٣", 22),
    ])
    def test_rejected_with_a_position(self, sql, position):
        with pytest.raises(SQLSyntaxError) as info:
            parse_sql(sql)
        assert info.value.position == position

    def test_integer_limit_and_offset(self):
        statement = parse_sql("SELECT a FROM T LIMIT 2 OFFSET 10")
        assert (statement.limit, statement.offset) == (2, 10)
