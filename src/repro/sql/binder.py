"""Binding: SQL AST → (possibly nested) algebra trees.

The binder resolves table names against the catalog, builds
:class:`~repro.algebra.nested.Subquery` blocks for EXISTS/IN/quantified/
scalar subqueries, and assembles projection/grouping/ordering on top.
Column references are carried through symbolically (``alias.name``); the
algebra resolves them at bind-or-evaluate time with proper SQL scoping
(inner scope shadows outer), so correlated references "just work".
"""

from __future__ import annotations

from repro.algebra import aggregates as agg_mod
from repro.algebra.expressions import (
    Arithmetic,
    Column,
    Comparison as AlgComparison,
    Expression,
    Literal,
    Not,
    TRUE,
)
from repro.algebra.nested import (
    Apply,
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
    has_subqueries,
    in_predicate,
    not_in_predicate,
)
from repro.algebra.operators import (
    GroupBy,
    Join,
    Operator,
    OrderBy,
    Project,
    ProjectItem,
    ScanTable,
    Select,
)
from repro.errors import BindError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_sql
from repro.storage.catalog import Catalog


class Binder:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._fresh = 0

    # -- statements ---------------------------------------------------------------

    def bind_statement(self, statement) -> Operator:
        if isinstance(statement, ast.CompoundSelect):
            return self._bind_compound(statement)
        source = self._bind_from(statement.tables)
        plan: Operator = source
        if statement.where is not None:
            predicate = self.bind_predicate(statement.where)
            if has_subqueries(predicate):
                plan = NestedSelect(plan, predicate)
            else:
                plan = Select(plan, predicate)
        plan = self._bind_output(statement, plan)
        if statement.order_by:
            keys = []
            for item in statement.order_by:
                if not isinstance(item.expression, ast.ColumnRef):
                    raise BindError("ORDER BY supports column references only")
                keys.append((item.expression.reference, item.descending))
            plan = OrderBy(plan, keys)
        if statement.limit is not None:
            from repro.algebra.operators import Limit

            plan = Limit(plan, statement.limit, statement.offset)
        return plan

    def _bind_compound(self, statement: ast.CompoundSelect) -> Operator:
        from repro.algebra.operators import Difference, Intersect, Union

        left = self.bind_statement(statement.left)
        right = self.bind_statement(statement.right)
        distinct = not statement.all
        if statement.operator == "union":
            return Union(left, right, distinct=distinct)
        if statement.operator == "except":
            return Difference(left, right, distinct=distinct)
        return Intersect(left, right, distinct=distinct)

    def _bind_from(self, tables) -> Operator:
        if not tables:
            raise BindError("FROM clause is empty")
        plans: list[Operator] = []
        for table in tables:
            if not self.catalog.has_table(table.name):
                raise BindError(f"unknown table {table.name!r}")
            plans.append(ScanTable(table.name, table.alias or table.name))
        plan = plans[0]
        for right in plans[1:]:
            plan = Join(plan, right, TRUE, kind="inner", method="nested")
        return plan

    # -- output shaping (projection / grouping / having) ----------------------------

    def _bind_output(self, statement: ast.SelectStatement,
                     plan: Operator) -> Operator:
        if statement.is_star:
            if statement.group_by or statement.having is not None:
                raise BindError("SELECT * cannot be combined with GROUP BY")
            if statement.distinct:
                from repro.algebra.operators import Distinct

                return Distinct(plan)
            return plan
        specs: list[agg_mod.AggregateSpec] = []
        applies: list = []
        rewritten: list[tuple[Expression, str]] = []
        for index, item in enumerate(statement.items):
            expression = self._rewrite_aggregates(item.expression, specs,
                                                  applies)
            name = item.alias or self._default_name(item.expression, index)
            rewritten.append((expression, name))
        having_expr = None
        if statement.having is not None:
            having_expr = self._rewrite_aggregates_pred(statement.having, specs)
        if applies and (specs or statement.group_by):
            raise BindError(
                "scalar subqueries in the SELECT list cannot be combined "
                "with GROUP BY or outer aggregates"
            )
        if specs or statement.group_by:
            keys = [ref.reference for ref in statement.group_by]
            plan = GroupBy(plan, keys, specs)
            if having_expr is not None:
                if has_subqueries(having_expr):
                    # HAVING with subqueries: a nested selection over the
                    # grouped result, so the whole strategy machinery
                    # (including the GMDJ rewrite) applies to it.
                    plan = NestedSelect(plan, having_expr)
                else:
                    plan = Select(plan, having_expr)
        elif statement.having is not None:
            raise BindError("HAVING requires GROUP BY or aggregates")
        for subquery, output_name in applies:
            plan = Apply(plan, subquery, output_name)
        items = [
            ProjectItem(expression, name,
                        preserve=isinstance(expression, Column) and
                        name == expression.bare_name)
            for expression, name in rewritten
        ]
        return Project(plan, items, distinct=statement.distinct)

    def _default_name(self, expression: ast.SqlNode, index: int) -> str:
        if isinstance(expression, ast.ColumnRef):
            return expression.name
        if isinstance(expression, ast.FunctionCall):
            return expression.name
        return f"col{index + 1}"

    def _rewrite_aggregates(self, node: ast.SqlNode, specs: list,
                            applies: list | None = None) -> Expression:
        """Bind an output expression, pulling aggregates into ``specs``
        and SELECT-list scalar subqueries into ``applies``."""
        if isinstance(node, ast.FunctionCall):
            name = self._fresh_name(node.name)
            argument = (
                None if node.argument is None
                else self.bind_expression(node.argument)
            )
            specs.append(
                agg_mod.AggregateSpec(node.name, argument, name,
                                      node.distinct)
            )
            return Column(name)
        if isinstance(node, ast.ScalarSubquery):
            if applies is None:
                raise BindError(
                    "scalar subqueries are not allowed in this context"
                )
            subquery = self._bind_subquery(node.query, need_item=True)
            name = self._fresh_name("sq")
            applies.append((subquery, name))
            return Column(name)
        if isinstance(node, ast.BinaryOp):
            return Arithmetic(
                node.op,
                self._rewrite_aggregates(node.left, specs, applies),
                self._rewrite_aggregates(node.right, specs, applies),
            )
        return self.bind_expression(node)

    def _rewrite_aggregates_pred(self, node: ast.SqlNode, specs) -> Expression:
        """Bind a HAVING predicate: aggregates become group columns,
        subqueries become subquery predicates over the grouped rows."""
        if isinstance(node, ast.AndPredicate):
            return self._rewrite_aggregates_pred(node.left, specs) & (
                self._rewrite_aggregates_pred(node.right, specs)
            )
        if isinstance(node, ast.OrPredicate):
            return self._rewrite_aggregates_pred(node.left, specs) | (
                self._rewrite_aggregates_pred(node.right, specs)
            )
        if isinstance(node, ast.NotPredicate):
            return Not(self._rewrite_aggregates_pred(node.operand, specs))
        if isinstance(node, ast.Comparison):
            left = self._rewrite_aggregates(node.left, specs)
            right_node = node.right
            if isinstance(right_node, ast.ScalarSubquery):
                right_node = right_node.query
            if isinstance(right_node, ast.SelectStatement):
                subquery = self._bind_subquery(right_node, need_item=True)
                if node.quantifier is not None:
                    return QuantifiedComparison(
                        node.op, node.quantifier, left, subquery
                    )
                return ScalarComparison(node.op, left, subquery)
            return AlgComparison(
                node.op, left, self._rewrite_aggregates(right_node, specs)
            )
        if isinstance(node, ast.ExistsPredicate):
            return Exists(self._bind_subquery(node.query, need_item=False),
                          node.negated)
        if isinstance(node, ast.InPredicate):
            subquery = self._bind_subquery(node.query, need_item=True)
            outer = self._rewrite_aggregates(node.expression, specs)
            if node.negated:
                return not_in_predicate(outer, subquery)
            return in_predicate(outer, subquery)
        raise BindError(
            "HAVING supports comparisons over aggregates, EXISTS, IN, and "
            "subquery comparisons"
        )

    def _fresh_name(self, stem: str) -> str:
        self._fresh += 1
        return f"{stem}_{self._fresh}"

    # -- predicates -----------------------------------------------------------------

    def bind_predicate(self, node: ast.SqlNode) -> Expression:
        if isinstance(node, ast.AndPredicate):
            return self.bind_predicate(node.left) & self.bind_predicate(node.right)
        if isinstance(node, ast.OrPredicate):
            return self.bind_predicate(node.left) | self.bind_predicate(node.right)
        if isinstance(node, ast.NotPredicate):
            return Not(self.bind_predicate(node.operand))
        if isinstance(node, ast.IsNullPredicate):
            from repro.algebra.expressions import IsNull

            return IsNull(self.bind_expression(node.expression), node.negated)
        if isinstance(node, ast.BetweenPredicate):
            expression = self.bind_expression(node.expression)
            low = self.bind_expression(node.low)
            high = self.bind_expression(node.high)
            between = (AlgComparison(">=", expression, low)
                       & AlgComparison("<=", expression, high))
            return Not(between) if node.negated else between
        if isinstance(node, ast.ExistsPredicate):
            return Exists(self._bind_subquery(node.query, need_item=False),
                          node.negated)
        if isinstance(node, ast.InPredicate):
            subquery = self._bind_subquery(node.query, need_item=True)
            outer = self.bind_expression(node.expression)
            if node.negated:
                return not_in_predicate(outer, subquery)
            return in_predicate(outer, subquery)
        if isinstance(node, ast.Comparison):
            left = self.bind_expression(node.left)
            right_node = node.right
            if isinstance(right_node, ast.ScalarSubquery):
                right_node = right_node.query
            if isinstance(right_node, ast.SelectStatement):
                subquery = self._bind_subquery(right_node, need_item=True)
                if node.quantifier is not None:
                    return QuantifiedComparison(
                        node.op, node.quantifier, left, subquery
                    )
                return ScalarComparison(node.op, left, subquery)
            right = self.bind_expression(right_node)
            return AlgComparison(node.op, left, right)
        raise BindError(f"cannot bind predicate {node!r}")

    def _bind_subquery(self, statement: ast.SelectStatement,
                       need_item: bool) -> Subquery:
        if statement.group_by or statement.having is not None:
            raise BindError("subqueries with GROUP BY/HAVING are not supported")
        if statement.order_by:
            raise BindError("ORDER BY inside a subquery has no effect")
        source = self._bind_from(statement.tables)
        predicate = (
            self.bind_predicate(statement.where)
            if statement.where is not None
            else TRUE
        )
        item: Expression | None = None
        aggregate = None
        if need_item:
            if statement.is_star or len(statement.items) != 1:
                raise BindError(
                    "a comparison/IN subquery must select exactly one item"
                )
            expression = statement.items[0].expression
            if isinstance(expression, ast.FunctionCall):
                argument = (
                    None if expression.argument is None
                    else self.bind_expression(expression.argument)
                )
                aggregate = agg_mod.AggregateSpec(
                    expression.name, argument,
                    self._fresh_name(expression.name), expression.distinct,
                )
            else:
                item = self.bind_expression(expression)
        return Subquery(source, predicate, item=item, aggregate=aggregate)

    # -- scalar expressions -------------------------------------------------------------

    def bind_expression(self, node: ast.SqlNode) -> Expression:
        if isinstance(node, ast.ColumnRef):
            return Column(node.reference)
        if isinstance(node, ast.NumberLiteral):
            return Literal(node.value)
        if isinstance(node, ast.StringLiteral):
            return Literal(node.value)
        if isinstance(node, ast.NullLiteral):
            return Literal(None)
        if isinstance(node, ast.BinaryOp):
            return Arithmetic(
                node.op,
                self.bind_expression(node.left),
                self.bind_expression(node.right),
            )
        if isinstance(node, ast.FunctionCall):
            raise BindError(
                "aggregate functions are only allowed in SELECT lists and "
                "scalar subqueries"
            )
        if isinstance(node, ast.ScalarSubquery):
            raise BindError(
                "a scalar subquery is not allowed in this expression "
                "position (supported: comparison operands and SELECT items)"
            )
        raise BindError(f"cannot bind expression {node!r}")


def compile_sql(text: str, catalog: Catalog) -> Operator:
    """Parse and bind one SQL statement into an algebra tree."""
    return Binder(catalog).bind_statement(parse_sql(text))
