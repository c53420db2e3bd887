"""Non-executing plan walk: the engine's own checks, then the rules.

:class:`PlanTyper` walks a plan tree without reading a row.  At every
operator it first asks the engine what the engine would check before
the first row: the operator's schema derivation
(:meth:`~repro.algebra.operators.Operator.schema`) and the binding of
each expression the operator evaluates (:meth:`Expression.bind
<repro.algebra.expressions.Expression.bind>` over the operator's input;
inside a subquery, :func:`~repro.algebra.nested.substitute_free` over
the enclosing scopes first, as tuple iteration does).  A typed
:class:`~repro.errors.ReproError` from any of them is reported as
``L000`` with the engine's own message; nothing here re-derives what the
engine enforces.

Over what the engine accepts, the walk runs the rules the engine does
not enforce, because they concern values rather than names:

* **L003** — a string compared with a number, or arithmetic over a
  string.  The engine fails only when a row reaches the expression, so
  the same query over an empty table answers.
* **W101 / W102** — the 3VL hazards of valid SQL (:mod:`repro.lint.rules`).
* the advisories of :mod:`repro.lint.advice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.algebra.apply_op import Apply
from repro.algebra.expressions import (
    And,
    Arithmetic,
    Coalesce,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
    Or,
    TruthLiteral,
)
from repro.algebra.nested import (
    Environment,
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
    SubqueryPredicate,
    env_with_row,
    substitute_free,
)
from repro.algebra.operators import (
    Distinct,
    GroupBy,
    Join,
    Limit,
    Operator,
    OrderBy,
    Project,
    ProjectItem,
    Rename,
    ScanTable,
    Select,
    TableValue,
)
from repro.algebra.rewrite import map_children
from repro.errors import (
    AmbiguousAttributeError,
    CatalogError,
    ReproError,
    SchemaError,
    TypeCheckError,
    UnknownAttributeError,
)
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ
from repro.lint.diagnostics import LintReport
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.types import DataType

_T = TypeVar("_T")


@dataclass(frozen=True)
class Frame:
    """One visible scope: its schema plus the operator that produced it.

    ``origin`` is kept so NULL-safety rules can trace a resolved column
    back to stored data (see :meth:`PlanTyper.column_possibly_null`).
    """

    schema: Schema
    origin: Operator | None = None


#: Operators whose output preserves their input's column order — safe to
#: unwrap when tracing a column back to a stored table.
_ORDER_PRESERVING = (Select, Distinct, OrderBy, Limit, Rename, NestedSelect)


def _environment(frames: list[Frame]) -> Environment:
    """The enclosing scopes as tuple iteration binds them, outermost
    first; the values are placeholders, only the names matter."""
    env: Environment = {}
    for frame in reversed(frames):
        env = env_with_row(env, frame.schema, (None,) * len(frame.schema))
    return env


class PlanTyper:
    """One lint run's walk over one plan tree."""

    def __init__(self, catalog: Catalog, report: LintReport,
                 advice: bool = True) -> None:
        self.catalog = catalog
        self.report = report
        self.advice = advice

    def engine_check(self, check: Callable[[], _T], path: str) -> _T | None:
        """Run one of the engine's own checks: its result, or None and
        ``L000`` with the engine's message when it raises."""
        try:
            return check()
        except ReproError as error:
            self.report.add("L000", f"{type(error).__name__}: {error}", path)
            return None

    # -- operator walk ------------------------------------------------------

    def infer(self, node: Operator, path: str = "") -> Schema | None:
        """Schema of ``node``, or None when the engine rejects the subtree.

        The engine derives ``node``'s schema with each child standing in
        as an empty relation of the schema already derived for it, so
        every subtree is derived once, not once per ancestor (an
        ``Apply``'s subquery source, not a child, is derived once more
        by ``Apply.schema``).
        """
        name = type(node).__name__
        path = f"{path}/{name}" if path else name
        if isinstance(node, GMDJ):
            children = [(node.base, f"{path}/base"),
                        (node.detail, f"{path}/detail")]
        else:
            children = [(child, path) for child in node.children()]
        inputs: list[Schema] = []
        for child, child_path in children:
            schema = self.infer(child, child_path)
            if schema is None:
                return None
            inputs.append(schema)
        derived = {
            id(child): TableValue(Relation(child_schema, [], validate=False))
            for (child, _), child_schema in zip(children, inputs)
        }
        local = map_children(node, lambda child: derived.get(id(child), child))
        schema = self.engine_check(lambda: local.schema(self.catalog), path)
        check = getattr(self, f"_check_{name}", None)
        if schema is not None and check is not None:
            check(node, inputs, schema, path)
        return schema

    def _check_Select(self, node: Select, inputs: list[Schema],
                      schema: Schema, path: str) -> None:
        self.check_expression(node.predicate, [Frame(inputs[0], node.child)],
                              f"{path}:predicate")

    def _check_Project(self, node: Project, inputs: list[Schema],
                       schema: Schema, path: str) -> None:
        frames = [Frame(inputs[0], node.child)]
        for position, raw in enumerate(node.items):
            self.check_expression(ProjectItem.of(raw).expression, frames,
                                  f"{path}:items[{position}]")

    def _check_OrderBy(self, node: OrderBy, inputs: list[Schema],
                       schema: Schema, path: str) -> None:
        for reference, _descending in node.keys:
            self.engine_check(lambda: inputs[0].index_of(reference),
                              f"{path}:keys")

    def _check_Join(self, node: Join, inputs: list[Schema],
                    schema: Schema, path: str) -> None:
        combined = self.engine_check(
            lambda: inputs[0].concat(inputs[1]), path)
        if combined is not None:
            self.check_expression(node.condition, [Frame(combined)],
                                  f"{path}:condition")

    def _check_GroupBy(self, node: GroupBy, inputs: list[Schema],
                       schema: Schema, path: str) -> None:
        frames = [Frame(inputs[0], node.child)]
        for position, spec in enumerate(node.aggregates):
            if spec.argument is not None:
                self.check_expression(
                    spec.argument, frames,
                    f"{path}:aggregates[{position}]:{spec.output_name}")

    def _check_GMDJ(self, node: GMDJ, inputs: list[Schema],
                    schema: Schema, path: str) -> None:
        base_schema, detail_schema = inputs
        combined = self.engine_check(
            lambda: base_schema.concat(detail_schema), path)
        if combined is None:
            return
        for position, block in enumerate(node.blocks):
            block_path = f"{path}:blocks[{position}]"
            self.check_expression(block.condition, [Frame(combined)],
                                  f"{block_path}:condition")
            for spec in block.aggregates:
                if spec.argument is not None:
                    self.check_expression(
                        spec.argument, [Frame(detail_schema, node.detail)],
                        f"{block_path}:{spec.output_name}")
        if self.advice:
            from repro.lint.advice import (
                check_missed_coalesce,
                check_theta_hashability,
            )

            check_missed_coalesce(node, self.report, path)
            check_theta_hashability(
                node, base_schema, detail_schema, self.report, path
            )

    def _check_SelectGMDJ(self, node: SelectGMDJ, inputs: list[Schema],
                          schema: Schema, path: str) -> None:
        self.check_expression(node.selection, [Frame(schema, node.gmdj)],
                              f"{path}:selection")

    def _check_NestedSelect(self, node: NestedSelect, inputs: list[Schema],
                            schema: Schema, path: str) -> None:
        self.check_nested_predicate(
            node.predicate, [Frame(inputs[0], node.child)],
            f"{path}:predicate",
        )

    def _check_Apply(self, node: Apply, inputs: list[Schema],
                     schema: Schema, path: str) -> None:
        self._check_subquery_block(
            node.subquery, [Frame(inputs[0], node.input)],
            f"{path}:subquery",
        )

    # -- expressions ----------------------------------------------------------

    def check_expression(
        self, expression: Expression, frames: list[Frame], path: str
    ) -> DataType | None:
        """Bind ``expression`` as the engine would in the innermost scope
        of ``frames``, then infer its type, reporting L003/W102 on the
        way; None when the type is unknown or the engine rejects it."""
        local = frames[0].schema
        if len(frames) == 1:
            bound = self.engine_check(lambda: expression.bind(local), path)
        else:
            env = _environment(frames[1:])
            bound = self.engine_check(
                lambda: substitute_free(expression, local, env).bind(local),
                path,
            )
        if bound is None:
            return None
        return self._type_of(expression, frames, path)

    def _type_of(
        self, expression: Expression, frames: list[Frame], path: str
    ) -> DataType | None:
        if isinstance(expression, Column):
            for frame in frames:
                try:
                    return frame.schema.field_of(expression.reference).dtype
                except SchemaError:
                    continue
            return None
        if isinstance(expression, Literal):
            if expression.value is None:
                return None
            try:
                return DataType.infer(expression.value)
            except TypeCheckError as error:
                self.report.add("L003", str(error), path)
                return None
        if isinstance(expression, TruthLiteral):
            return DataType.BOOLEAN
        if isinstance(expression, Arithmetic):
            left = self._type_of(expression.left, frames, path)
            right = self._type_of(expression.right, frames, path)
            if DataType.STRING in (left, right):
                self.report.add(
                    "L003",
                    f"arithmetic {expression.op!r} over a STRING "
                    f"operand in {expression!r}",
                    path,
                )
                return None
            if expression.op == "/":
                return DataType.FLOAT
            if left is DataType.INTEGER and right is DataType.INTEGER:
                return DataType.INTEGER
            return DataType.FLOAT
        if isinstance(expression, Comparison):
            left = self._type_of(expression.left, frames, path)
            right = self._type_of(expression.right, frames, path)
            self._check_comparable(left, right, expression, path)
            for side in (expression.left, expression.right):
                if isinstance(side, Literal) and side.value is None:
                    self.report.add(
                        "W102",
                        f"comparison {expression!r} against a NULL literal "
                        f"is always UNKNOWN and never satisfies a filter",
                        path,
                        hint="use IS NULL / IS NOT NULL",
                    )
            return DataType.BOOLEAN
        if isinstance(expression, (And, Or)):
            self._type_of(expression.left, frames, path)
            self._type_of(expression.right, frames, path)
            return DataType.BOOLEAN
        if isinstance(expression, (Not, IsNull)):
            self._type_of(expression.operand, frames, path)
            return DataType.BOOLEAN
        if isinstance(expression, Coalesce):
            first = self._type_of(expression.first, frames, path)
            second = self._type_of(expression.second, frames, path)
            return first if first is not None else second
        return None

    def _check_comparable(
        self,
        left: DataType | None,
        right: DataType | None,
        expression: Expression,
        path: str,
    ) -> None:
        """L003: the runtime raises on string vs non-string, per row."""
        if left is None or right is None:
            return
        if (left is DataType.STRING) != (right is DataType.STRING):
            self.report.add(
                "L003",
                f"cannot compare {left.value} with {right.value} in "
                f"{expression!r} (string vs non-string)",
                path,
                hint="cast one side or fix the column reference",
            )

    # -- nested predicates ----------------------------------------------------

    def check_nested_predicate(
        self, predicate: Expression, frames: list[Frame], path: str
    ) -> None:
        """Check a predicate that may contain subquery leaves."""
        if isinstance(predicate, SubqueryPredicate):
            self._check_subquery_leaf(predicate, frames, path)
        elif isinstance(predicate, (And, Or)):
            self.check_nested_predicate(predicate.left, frames, path)
            self.check_nested_predicate(predicate.right, frames, path)
        elif isinstance(predicate, Not):
            self.check_nested_predicate(predicate.operand, frames, path)
        else:
            self.check_expression(predicate, frames, path)

    def _check_subquery_leaf(
        self, leaf: SubqueryPredicate, frames: list[Frame], path: str
    ) -> None:
        inner_frames = self._check_subquery_block(
            leaf.subquery, frames, f"{path}/subquery"
        )
        if isinstance(leaf, Exists) or inner_frames is None:
            return
        assert isinstance(leaf, (ScalarComparison, QuantifiedComparison))
        outer_type = self.check_expression(leaf.outer, frames,
                                           f"{path}:outer")
        self._check_comparable(
            outer_type, self._subquery_value_type(leaf.subquery, inner_frames),
            leaf, path,
        )
        if isinstance(leaf, QuantifiedComparison):
            from repro.lint.rules import check_quantifier_nullability

            check_quantifier_nullability(leaf, frames, inner_frames, self,
                                         path)
        elif self.advice:
            from repro.lint.advice import check_extremum_quantifier

            check_extremum_quantifier(leaf, self.report, path)

    def _check_subquery_block(
        self, subquery: Subquery, frames: list[Frame], path: str
    ) -> list[Frame] | None:
        """Check one subquery block; returns the extended scope stack."""
        source_schema = self.infer(subquery.source, f"{path}/source")
        if source_schema is None:
            return None
        inner_frames = [Frame(source_schema, subquery.source)] + frames
        self.check_nested_predicate(
            subquery.predicate, inner_frames, f"{path}:predicate"
        )
        if subquery.item is not None:
            self.check_expression(subquery.item, inner_frames,
                                  f"{path}:item")
        aggregate = subquery.aggregate
        if aggregate is not None and aggregate.argument is not None:
            self.check_expression(aggregate.argument, inner_frames,
                                  f"{path}:aggregate")
        return inner_frames

    def _subquery_value_type(
        self, subquery: Subquery, inner_frames: list[Frame]
    ) -> DataType | None:
        """The type of a subquery's produced value (item or aggregate)."""
        value = subquery.item
        if subquery.aggregate is not None:
            if subquery.aggregate.function == "count":
                return DataType.INTEGER
            if subquery.aggregate.function == "avg":
                return DataType.FLOAT
            value = subquery.aggregate.argument
        if isinstance(value, Column):
            return self._type_of(value, inner_frames, "")
        return None

    # -- nullability oracle ----------------------------------------------------

    def column_possibly_null(
        self, expression: Expression, frames: list[Frame]
    ) -> bool:
        """True when ``expression`` is a column whose stored data holds NULLs.

        Conservative in the quiet direction: anything that cannot be
        traced back to catalog rows (computed columns, projections,
        joins) reports False, so the W101 warning only fires on columns
        *demonstrably* containing NULLs right now.
        """
        if not isinstance(expression, Column):
            return False
        for frame in frames:
            try:
                index = frame.schema.index_of(expression.reference)
            except (UnknownAttributeError, AmbiguousAttributeError):
                continue
            rows = self._stored_rows(frame.origin)
            if rows is None:
                return False
            return any(row[index] is None for row in rows)
        return False

    def _stored_rows(self, origin: Operator | None) -> list | None:
        """Rows of the stored table behind an order-preserving chain."""
        node = origin
        while isinstance(node, _ORDER_PRESERVING):
            node = node.child
        if isinstance(node, ScanTable):
            try:
                return self.catalog.table(node.table_name).rows
            except CatalogError:
                return None
        if isinstance(node, TableValue):
            return node.relation.rows
        return None
