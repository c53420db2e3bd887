"""Recursive-descent parser for the subquery SQL subset.

Grammar (roughly)::

    query      := SELECT [DISTINCT] (STAR | item ("," item)*)
                  FROM table [alias] ("," table [alias])*
                  [WHERE predicate]
                  [GROUP BY column ("," column)*]
                  [HAVING predicate]
                  [ORDER BY order_item ("," order_item)*]
    predicate  := or_term
    or_term    := and_term (OR and_term)*
    and_term   := not_term (AND not_term)*
    not_term   := NOT not_term | primary_pred
    primary    := "(" predicate ")"
                | EXISTS "(" query ")"
                | expr IS [NOT] NULL
                | expr [NOT] IN "(" query ")"
                | expr [NOT] BETWEEN expr AND expr
                | expr compop [SOME|ANY|ALL] ("(" query ")" | expr)
    expr       := add_expr with ``* /`` binding tighter than ``+ -``
    atom       := literal | column_ref | func "(" (STAR|expr) ")" | "(" expr ")"

``ANY`` parses as SOME (the SQL synonym the paper notes in Section 2.1).
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    AndPredicate,
    BetweenPredicate,
    BinaryOp,
    ColumnRef,
    Comparison,
    ExistsPredicate,
    FunctionCall,
    InPredicate,
    IsNullPredicate,
    NotPredicate,
    NullLiteral,
    NumberLiteral,
    OrPredicate,
    OrderItem,
    SelectItem,
    SelectStatement,
    StringLiteral,
    TableRef,
)
from repro.sql.lexer import Token, tokenize

_COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")
_AGGREGATES = ("count", "sum", "avg", "min", "max")


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.position = 0
        #: ``tokens[position]``, kept in step by :meth:`advance` and by
        #: the backtrack in :meth:`_primary_predicate` (the EOF token is
        #: never advanced over).
        self.current: Token = self.tokens[0]

    # -- token plumbing ------------------------------------------------------------

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        self.current = self.tokens[self.position]
        return token

    def accept_keyword(self, word: str) -> bool:
        token = self.current
        if token.kind == "KEYWORD" and token.text == word:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self._fail(f"expected {word}")

    def accept_op(self, op: str) -> bool:
        token = self.current
        if token.kind == "OP" and token.text == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            self._fail(f"expected {op!r}")

    def _fail(self, message: str):
        token = self.current
        raise SQLSyntaxError(
            f"{message}, found {token.kind} {token.text!r}", token.position
        )

    # -- entry ------------------------------------------------------------------------

    def parse(self):
        statement = self.parse_statement()
        if self.current.kind != "EOF":
            self._fail("trailing input after query")
        return statement

    def parse_statement(self):
        """A SELECT, possibly compounded with UNION/EXCEPT/INTERSECT."""
        from repro.sql.ast_nodes import CompoundSelect

        statement = self.parse_select()
        while True:
            operator = None
            for keyword in ("UNION", "EXCEPT", "INTERSECT"):
                if self.accept_keyword(keyword):
                    operator = keyword.lower()
                    break
            if operator is None:
                return statement
            all_rows = self.accept_keyword("ALL")
            right = self.parse_select()
            statement = CompoundSelect(operator, all_rows, statement, right)

    # -- SELECT blocks -----------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items: list[SelectItem] = []
        if self.accept_op("*"):
            pass  # SELECT * — items stay empty
        else:
            items.append(self._select_item())
            while self.accept_op(","):
                items.append(self._select_item())
        self.expect_keyword("FROM")
        tables = [self._table_ref()]
        while self.accept_op(","):
            tables.append(self._table_ref())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        group_by: list[ColumnRef] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._column_ref())
            while self.accept_op(","):
                group_by.append(self._column_ref())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_predicate()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())
        limit = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self._count("LIMIT")
            if self.accept_keyword("OFFSET"):
                offset = self._count("OFFSET")
        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            distinct=distinct,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _count(self, clause: str) -> int:
        """The integer literal after ``LIMIT`` / ``OFFSET``."""
        token = self.current
        if token.kind != "NUMBER" or not token.text.isdigit():
            self._fail(f"expected an integer after {clause}")
        self.advance()
        return int(token.text)

    def _select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            if self.current.kind != "IDENT":
                self._fail("expected alias after AS")
            alias = self.advance().text
        elif self.current.kind == "IDENT":
            alias = self.advance().text
        return SelectItem(expression, alias)

    def _table_ref(self) -> TableRef:
        if self.current.kind != "IDENT":
            self._fail("expected table name")
        name = self.advance().text
        alias = None
        if self.accept_keyword("AS"):
            if self.current.kind != "IDENT":
                self._fail("expected alias after AS")
            alias = self.advance().text
        elif self.current.kind == "IDENT":
            alias = self.advance().text
        return TableRef(name, alias)

    def _order_item(self) -> OrderItem:
        expression = self.parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expression, descending)

    def _column_ref(self) -> ColumnRef:
        if self.current.kind != "IDENT":
            self._fail("expected column reference")
        first = self.advance().text
        if self.accept_op("."):
            if self.current.kind != "IDENT":
                self._fail("expected column name after '.'")
            return ColumnRef(first, self.advance().text)
        return ColumnRef(None, first)

    # -- predicates -------------------------------------------------------------------

    def parse_predicate(self):
        return self._or_term()

    def _or_term(self):
        left = self._and_term()
        while self.accept_keyword("OR"):
            left = OrPredicate(left, self._and_term())
        return left

    def _and_term(self):
        left = self._not_term()
        while self.accept_keyword("AND"):
            left = AndPredicate(left, self._not_term())
        return left

    def _not_term(self):
        if self.accept_keyword("NOT"):
            return NotPredicate(self._not_term())
        return self._primary_predicate()

    def _primary_predicate(self):
        if self.current.is_keyword("EXISTS"):
            self.advance()
            self.expect_op("(")
            query = self.parse_select()
            self.expect_op(")")
            return ExistsPredicate(query)
        if self.current.is_op("("):
            # Could be a parenthesized predicate or a parenthesized
            # expression beginning a comparison; try predicate first.
            saved = self.position
            self.advance()
            try:
                inner = self.parse_predicate()
                self.expect_op(")")
                if self._at_comparison():
                    # It was an expression after all (e.g. ``(a + b) > 1``
                    # never reaches here because + parses as expression,
                    # but ``(a = b) ...`` style is rejected); rewind.
                    raise SQLSyntaxError("reparse as expression")
                return inner
            except SQLSyntaxError:
                self.position = saved
                self.current = self.tokens[saved]
        expression = self.parse_expression()
        return self._predicate_tail(expression)

    def _at_comparison(self) -> bool:
        token = self.current
        return token.kind == "OP" and token.text in _COMPARE_OPS

    def _predicate_tail(self, expression):
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNullPredicate(expression, negated)
        negated = self.accept_keyword("NOT")
        if self.accept_keyword("IN"):
            self.expect_op("(")
            query = self.parse_select()
            self.expect_op(")")
            return InPredicate(expression, query, negated)
        if self.accept_keyword("BETWEEN"):
            low = self.parse_expression()
            self.expect_keyword("AND")
            high = self.parse_expression()
            return BetweenPredicate(expression, low, high, negated)
        if negated:
            self._fail("expected IN or BETWEEN after NOT")
        if self.current.kind == "OP" and self.current.text in _COMPARE_OPS:
            op = self.advance().text
            quantifier = None
            if self.accept_keyword("SOME") or self.accept_keyword("ANY"):
                quantifier = "some"
            elif self.accept_keyword("ALL"):
                quantifier = "all"
            if quantifier is not None:
                self.expect_op("(")
                query = self.parse_select()
                self.expect_op(")")
                return Comparison(op, expression, query, quantifier)
            # A scalar subquery on the right parses via _factor, which
            # recognizes "(SELECT" in expression position.
            right = self.parse_expression()
            return Comparison(op, expression, right, None)
        self._fail("expected a predicate")

    # -- expressions --------------------------------------------------------------------

    def parse_expression(self):
        left = self._term()
        while self.current.kind == "OP" and self.current.text in ("+", "-"):
            op = self.advance().text
            left = BinaryOp(op, left, self._term())
        return left

    def _term(self):
        left = self._factor()
        while self.current.kind == "OP" and self.current.text in ("*", "/"):
            op = self.advance().text
            left = BinaryOp(op, left, self._factor())
        return left

    def _factor(self):
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            return NumberLiteral(token.text)
        if token.kind == "STRING":
            self.advance()
            return StringLiteral(token.text)
        if token.is_keyword("NULL"):
            self.advance()
            return NullLiteral()
        if token.is_op("-"):
            self.advance()
            operand = self._factor()
            return BinaryOp("-", NumberLiteral("0"), operand)
        if token.is_op("("):
            self.advance()
            if self.current.is_keyword("SELECT"):
                from repro.sql.ast_nodes import ScalarSubquery

                query = self.parse_select()
                self.expect_op(")")
                return ScalarSubquery(query)
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if token.kind == "IDENT":
            name = self.advance().text
            if self.current.is_op("("):
                lowered = name.lower()
                if lowered not in _AGGREGATES:
                    self._fail(f"unknown function {name!r}")
                self.advance()
                distinct = self.accept_keyword("DISTINCT")
                if self.accept_op("*"):
                    if distinct:
                        self._fail("DISTINCT * is not allowed")
                    argument = None
                else:
                    argument = self.parse_expression()
                self.expect_op(")")
                return FunctionCall(lowered, argument, distinct)
            if self.accept_op("."):
                if self.current.kind != "IDENT":
                    self._fail("expected column name after '.'")
                return ColumnRef(name, self.advance().text)
            return ColumnRef(None, name)
        self._fail("expected an expression")


def parse_sql(text: str) -> SelectStatement:
    """Parse one SELECT statement."""
    return Parser(text).parse()
