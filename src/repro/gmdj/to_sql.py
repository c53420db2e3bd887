"""Reduction of a GMDJ to standard SQL (after Akinde & Böhlen, ref [2]).

"Generalized MD-joins: Evaluation and reduction to SQL" (the paper's
reference [2]) shows that a GMDJ over base B and detail R can be written
in plain SQL-92 as a *conditional aggregation* over a single left outer
join::

    SELECT B.*,
           COUNT(CASE WHEN θ1 THEN 1 END)            AS cnt1,
           SUM(CASE WHEN θ2 THEN R.c END)            AS sum2, ...
    FROM B LEFT OUTER JOIN R ON <join filter>
    GROUP BY B.*

The join filter is the OR of the θ conditions (any superset works; TRUE
is always correct), so all blocks share one pass — exactly the GMDJ's
single-scan behaviour, which is why the paper calls CASE-based
conditional aggregation the closest conventional-SQL relative of the
operator (and why its prototype still beat it: the GMDJ's hash
partitioning avoids the join blow-up).

This emitter exists for interoperability and documentation: it lets a
translated plan be inspected as, or shipped to, an ordinary SQL engine.
The emitted text targets generic SQL-92; this library's own SQL subset
does not parse CASE, so the emitter is exercised structurally in tests.

No SQL aggregate raises on a second row, so ``single(y)`` renders as
``MIN`` (its value wherever it does not raise) beside its θ-row count
``<output>__rows``: the engine raises CardinalityError where it exceeds 1.
"""

from __future__ import annotations

from repro.algebra.aggregates import AggregateSpec
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
    disjoin,
    map_columns,
)
from repro.algebra.operators import Operator, Project, ScanTable, Select
from repro.algebra.truth import Truth
from repro.errors import TranslationError
from repro.gmdj.operator import GMDJ
from repro.storage.catalog import Catalog


def expression_to_sql(expression: Expression) -> str:
    """Render an expression as SQL text."""
    if isinstance(expression, Column):
        return expression.reference
    if isinstance(expression, Literal):
        value = expression.value
        if value is None:
            return "NULL"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return repr(value)
    if isinstance(expression, TruthLiteral):
        if expression.value is Truth.TRUE:
            return "1=1"
        if expression.value is Truth.FALSE:
            return "1=0"
        return "NULL = NULL"
    if isinstance(expression, Comparison):
        return (f"{expression_to_sql(expression.left)} {expression.op} "
                f"{expression_to_sql(expression.right)}")
    if isinstance(expression, And):
        return (f"({expression_to_sql(expression.left)} AND "
                f"{expression_to_sql(expression.right)})")
    if isinstance(expression, Or):
        return (f"({expression_to_sql(expression.left)} OR "
                f"{expression_to_sql(expression.right)})")
    if isinstance(expression, Not):
        return f"(NOT {expression_to_sql(expression.operand)})"
    if isinstance(expression, IsNull):
        suffix = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"{expression_to_sql(expression.operand)} {suffix}"
    if isinstance(expression, Arithmetic):
        return (f"({expression_to_sql(expression.left)} {expression.op} "
                f"{expression_to_sql(expression.right)})")
    if isinstance(expression, Coalesce):
        return (f"COALESCE({expression_to_sql(expression.first)}, "
                f"{expression_to_sql(expression.second)})")
    raise TranslationError(f"cannot render {expression!r} as SQL")


def _aggregate_to_sql(spec: AggregateSpec, condition: Expression) -> str:
    """One conditional-aggregation output column."""
    predicate = expression_to_sql(condition)
    if spec.is_count_star:
        return (f"COUNT(CASE WHEN {predicate} THEN 1 END) "
                f"AS {spec.output_name}")
    argument = expression_to_sql(spec.argument)
    if spec.function == "single":
        return (f"MIN(CASE WHEN {predicate} THEN {argument} END) "
                f"AS {spec.output_name},\n       COUNT(CASE WHEN "
                f"{predicate} THEN 1 END) AS {spec.output_name}__rows")
    return (f"{spec.function.upper()}(CASE WHEN {predicate} THEN "
            f"{argument} END) AS {spec.output_name}")


def _source_to_sql(operator: Operator, catalog: Catalog) -> str:
    if isinstance(operator, ScanTable):
        alias = operator.alias or operator.table_name
        return f"{operator.table_name} AS {alias}"
    raise TranslationError(
        f"SQL reduction supports plain table scans as GMDJ operands; "
        f"got {operator!r}"
    )


def _unqualify(expression: Expression) -> Expression:
    """Strip qualifiers from column references (``b.K`` → ``K``).

    The outer SELECT of :func:`plan_to_sql` reads from the derived table
    ``gmdj_result``, whose columns carry the *bare* base-attribute names
    — the original qualifiers are not in scope there.
    """
    return map_columns(expression, lambda node: Column(node.bare_name))


def gmdj_to_sql(gmdj: GMDJ, catalog: Catalog) -> str:
    """Emit the conditional-aggregation SQL for one GMDJ."""
    base_sql = _source_to_sql(gmdj.base, catalog)
    detail_sql = _source_to_sql(gmdj.detail, catalog)
    base_schema = gmdj.base.schema(catalog)
    base_columns = ", ".join(
        field.full_name if field.full_name == field.name
        else f"{field.full_name} AS {field.name}"
        for field in base_schema.fields
    )
    group_by = ", ".join(field.full_name for field in base_schema.fields)
    output_columns = [base_columns]
    for block in gmdj.blocks:
        for spec in block.aggregates:
            output_columns.append(_aggregate_to_sql(spec, block.condition))
    join_filter = expression_to_sql(
        disjoin([block.condition for block in gmdj.blocks])
    )
    lines = [
        "SELECT " + ",\n       ".join(output_columns),
        f"FROM {base_sql}",
        f"LEFT OUTER JOIN {detail_sql}",
        f"  ON {join_filter}",
        f"GROUP BY {group_by}",
    ]
    return "\n".join(lines)


def plan_to_sql(plan: Operator, catalog: Catalog) -> str:
    """Emit SQL for a translated subquery plan.

    Supports the shapes Algorithm SubqueryToGMDJ produces: an optional
    projection over an optional selection over a GMDJ whose operands are
    table scans.  Deeper plans (stacked GMDJs, pushed joins) are out of
    the reduction's scope and raise.
    """
    from repro.algebra.operators import ProjectItem

    projection = None
    selection = None
    node = plan
    if isinstance(node, Project):
        projection = node
        node = node.child
    # The translator inserts a schema-restoring projection (pure column
    # keeps) under the user's own projection; those compose away as long
    # as they do not compute anything.
    while isinstance(node, Project) and all(
        ProjectItem.of(item).preserve for item in node.items
    ):
        node = node.child
    if isinstance(node, Select):
        selection = node
        node = node.child
    from repro.gmdj.evaluate import SelectGMDJ

    if isinstance(node, SelectGMDJ):
        selection = node
        gmdj = node.gmdj
    elif isinstance(node, GMDJ):
        gmdj = node
    else:
        raise TranslationError(f"cannot reduce {type(node).__name__} to SQL")
    inner = gmdj_to_sql(gmdj, catalog)
    if selection is None and projection is None:
        return inner
    predicate = (
        expression_to_sql(_unqualify(
            selection.predicate if isinstance(selection, Select)
            else selection.selection
        ))
        if selection is not None
        else None
    )
    columns = "*"
    if projection is not None:
        from repro.algebra.operators import ProjectItem

        rendered = []
        for item in projection.items:
            resolved = ProjectItem.of(item)
            text = expression_to_sql(_unqualify(resolved.expression))
            if not resolved.preserve:
                text += f" AS {resolved.name}"
            rendered.append(text)
        columns = ", ".join(rendered)
    lines = [f"SELECT {columns}", "FROM (", _indent(inner), ") AS gmdj_result"]
    if predicate is not None:
        lines.append(f"WHERE {predicate}")
    return "\n".join(lines)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
